"""The N-photon polarization state shared around a ring of d nodes.

The state is a superposition of exactly 2*d basis kets: for each cyclically
adjacent node pair (j, j+1) there is one all-horizontal and one all-vertical
ket, each placing N/2 photons at both nodes of the pair.  The state is held
exactly as one dense (d, 2) array of amplitudes, one row per pair, and phase
accumulation acts only on its vertical column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

POLARIZATIONS = ("H", "V")

# Largest accepted ring size: one d x d float64 matrix is then 128 MiB.
# Counts are checked against it before any d x d array is allocated.
MAX_NODES = 4096
# Largest accepted photon number, 2**53.  Pair sums live in the identifiable
# window |x_j| < 2*pi/N, and a phase of modulus up to pi is stored with a
# float64 spacing of 2**-51 (4.4e-16).  At N = 2**53 the window, 7.0e-16,
# still spans that spacing; at the next power of two it no longer does, so
# phases inside one window cannot be told apart.  Every even integer up to
# 2**53 is also exactly a float64, so the matrix prefactors N**2/(2d) are
# formed from an exact N.
MAX_PHOTONS = 2**53
# Largest shot count per table: multinomial draws and stored counts are int64.
MAX_SHOTS = 2**63 - 1


def node_pair(pair: int, d: int) -> tuple[int, int]:
    """Return the node indices (j, j+1 mod d) carrying ring pair ``pair``."""
    return pair, pair % d + 1


def _check_counts(photons: int, nodes: int) -> None:
    if not isinstance(photons, (int, np.integer)) or isinstance(photons, bool):
        raise ValidationError(f"photon count must be an integer, got {photons!r}")
    if photons < 2 or photons % 2 != 0:
        raise ValidationError(
            f"photon count must be an even integer >= 2, got {photons}"
        )
    if photons > MAX_PHOTONS:
        raise ValidationError(f"photon count {photons} exceeds the cap of {MAX_PHOTONS}")
    _check_nodes(nodes)


def _check_nodes(nodes, minimum: int = 3, even: bool = False) -> None:
    """``nodes`` is an integer (not a bool) from ``minimum`` to ``MAX_NODES``, even if ``even``."""
    if not isinstance(nodes, (int, np.integer)) or isinstance(nodes, bool):
        raise ValidationError(f"node count must be an integer, got {nodes!r}")
    if nodes < minimum or (even and nodes % 2 != 0):
        kind = "an even integer" if even else "an integer"
        raise ValidationError(f"node count must be {kind} >= {minimum}, got {nodes}")
    if nodes > MAX_NODES:
        raise ValidationError(f"node count {nodes} exceeds the cap of {MAX_NODES}")


def _check_shots(shots) -> int:
    """``shots`` as an int: a positive integer (not a bool) of at most ``MAX_SHOTS``."""
    if not isinstance(shots, (int, np.integer)) or isinstance(shots, bool) or shots < 1:
        raise ValidationError(f"shot count must be a positive integer, got {shots!r}")
    if shots > MAX_SHOTS:
        raise ValidationError(f"shot count {shots} exceeds the cap of {MAX_SHOTS}")
    return int(shots)


def _check_seed(seed) -> int:
    """``seed`` as an int: a nonnegative integer, not a bool."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _float_array(values, what: str, shape: tuple) -> np.ndarray:
    """``values`` read as a new float64 array of ``shape`` with finite entries.

    This is the one reader of every number array a caller hands the library.
    A None in ``shape`` matches any size along that axis.  Values that numpy
    cannot convert (strings, ragged lists, None), complex values, whose
    imaginary part the conversion would drop, and any other shape or a
    non-finite entry raise ValidationError naming ``what``.
    """
    try:
        array = np.asarray(values)
        if not np.iscomplexobj(array):
            array = np.array(array, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of numbers: {exc}") from None
    if np.iscomplexobj(array):
        raise ValidationError(f"{what} must be real, got dtype {array.dtype}")
    if array.ndim != len(shape) or any(
        n is not None and n != m for n, m in zip(shape, array.shape)
    ):
        sizes = ", ".join("any" if n is None else str(n) for n in shape)
        expected = f"({sizes},)" if len(shape) == 1 else f"({sizes})"
        raise ValidationError(f"{what} must have shape {expected}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} entries must be finite")
    return array


def phase_vector(values, d: int) -> np.ndarray:
    """``values`` as a new length-d float64 phase vector with finite entries."""
    return _float_array(values, "phase vector", (d,))


@dataclass(eq=False, frozen=True)
class RingState:
    """Complex superposition over the 2*d ring-pair basis kets.

    ``amplitudes`` has shape (d, 2): row j - 1 holds the amplitudes of pair
    j's all-horizontal and all-vertical kets, so its row-major order is the
    canonical ket order (pair 1..d, H before V).  It is a read-only copy of
    the array passed in.  The JSON form lists the nonzero amplitudes only.
    """

    amplitudes: np.ndarray
    photons: int
    nodes: int

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        amplitudes = np.array(self.amplitudes, dtype=complex)
        if amplitudes.shape != (self.nodes, 2):
            raise ValidationError(
                f"amplitudes must have shape ({self.nodes}, 2), got {amplitudes.shape}"
            )
        if not np.all(np.isfinite(amplitudes)):
            j, col = np.argwhere(~np.isfinite(amplitudes))[0]
            raise ValidationError(
                f"amplitude for pair {j + 1} polarization {POLARIZATIONS[col]} is not finite"
            )
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_json_dict(self) -> dict:
        rows = []
        for j, col in zip(*np.nonzero(self.amplitudes)):
            amp = complex(self.amplitudes[j, col])
            rows.append(
                {
                    "pair": list(node_pair(int(j) + 1, self.nodes)),
                    "pol": POLARIZATIONS[col],
                    "re": amp.real,
                    "im": amp.imag,
                }
            )
        return {"N": int(self.photons), "d": int(self.nodes), "terms": rows}


def build_input_state(photons: int, nodes: int) -> RingState:
    """Equal-weight superposition over all 2*d ring-pair kets, zero phases.

    Parameters
    ----------
    photons : int
        Total photon number N; must be even and at least 2 so each node of a
        pair holds N/2 photons.
    nodes : int
        Ring size d, at least 3.

    Returns
    -------
    RingState
        Normalized state with all 2*d amplitudes equal to 1/sqrt(2*d).
    """
    _check_counts(photons, nodes)
    amp = 1.0 / math.sqrt(2 * nodes)
    return RingState(np.full((nodes, 2), amp, dtype=complex), photons, nodes)


def apply_phases(state: RingState, phases) -> RingState:
    """Imprint local phases: the vertical ket of pair (j, j+1) acquires
    exp(i*(N/2)*(phi_j + phi_{j+1})); horizontal kets are unchanged."""
    phi = phase_vector(phases, state.nodes)
    amplitudes = state.amplitudes.copy()
    amplitudes[:, 1] *= np.exp(1j * (state.photons / 2.0) * (phi + np.roll(phi, -1)))
    return RingState(amplitudes, state.photons, state.nodes)
