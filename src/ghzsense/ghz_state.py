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


def _check_int(value, what: str, low: int, high: int | None = None, even: bool = False) -> int:
    """``value`` as an int: an integer (not a bool) from ``low`` to ``high``, even if ``even``.

    This is the one reader of every count the library accepts; ``what``
    names the count in the refusal.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low or (even and value % 2 != 0):
        kind = "an even integer" if even else "an integer"
        raise ValidationError(f"{what} must be {kind} >= {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{what} {value} exceeds the cap of {high}")
    return int(value)


def _check_counts(photons: int, nodes: int) -> None:
    _check_int(photons, "photon count", 2, MAX_PHOTONS, even=True)
    _check_nodes(nodes)


def _check_nodes(nodes, minimum: int = 3, even: bool = False) -> None:
    _check_int(nodes, "node count", minimum, MAX_NODES, even)


def _check_shots(shots) -> int:
    return _check_int(shots, "shot count", 1, MAX_SHOTS)


def _check_seed(seed) -> int:
    return _check_int(seed, "seed", 0)


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


def _pair_sums(values: np.ndarray) -> np.ndarray:
    """x_j = phi_j + phi_{j+1} along the last axis, the last pair closing the ring.

    This is the one statement of the ring's pair sums: the state, the outcome
    probabilities, the fit and the pair-sum gradients all read them here.
    """
    return values + np.concatenate((values[..., 1:], values[..., :1]), axis=-1)


def _pair_sum_phases(pair_sums: np.ndarray) -> np.ndarray:
    """Phases with the given pair sums along the last axis, the inverse of :func:`_pair_sums`.

    The pair sums of an even ring satisfy sum_j (-1)^j x_j = 0, and any
    such x is reached: phi_0 = 0 and phi_k = (-1)^(k-1) sum_{i<k} (-1)^i x_i.
    The alternating direction, which changes no pair sum, is left at zero.
    """
    alternating = (-1.0) ** np.arange(pair_sums.shape[-1])
    phi = np.zeros_like(pair_sums)
    phi[..., 1:] = -alternating[1:] * np.cumsum(alternating * pair_sums, axis=-1)[..., :-1]
    return phi


def phase_vector(values, d: int) -> np.ndarray:
    """``values`` as a new length-d float64 phase vector with finite entries and pair sums.

    This is the one reader of every phase vector: the state, both Fisher
    matrices, the outcome probabilities and the experiment read their
    phases here.  A pair sum phi_j + phi_{j+1} beyond the float64 range
    raises ValidationError naming the two phases.
    """
    phi = _float_array(values, "phase vector", (d,))
    if np.abs(phi).max(initial=0.0) < 2.0**1023:  # no sum of two can overflow
        return phi
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(_pair_sums(phi))
    if overflow.any():
        j, k = node_pair(int(np.argmax(overflow)) + 1, d)
        first, second = float(phi[j - 1]), float(phi[k - 1])
        raise ValidationError(
            f"phase vector pair sum phi_{j} + phi_{k} = {first!r} + {second!r} "
            "overflows the float64 range"
        )
    return phi


def _imprinted_phases(photons: int, phi: np.ndarray) -> np.ndarray:
    """(N/2)(phi_j + phi_{j+1}), the phase that pair j's vertical ket acquires.

    This is the one statement of the imprinted phase: the state and the
    outcome probabilities read it here.  ``phi`` is a phase vector read by
    :func:`phase_vector`, so its pair sums are finite; a product beyond the
    float64 range raises ValidationError naming the pair, its two phases
    and N.
    """
    with np.errstate(over="ignore"):
        imprinted = (photons / 2.0) * _pair_sums(phi)
    overflow = ~np.isfinite(imprinted)
    if overflow.any():
        pair = int(np.argmax(overflow)) + 1
        j, k = node_pair(pair, phi.shape[0])
        raise ValidationError(
            f"imprinted phase (N/2)(phi_{j} + phi_{k}) of pair {pair} at N = {photons}, "
            f"phi_{j} = {float(phi[j - 1])!r} and phi_{k} = {float(phi[k - 1])!r}, "
            "overflows the float64 range"
        )
    return imprinted


@dataclass(eq=False, frozen=True)
class RingState:
    """Complex superposition over the 2*d ring-pair basis kets.

    ``amplitudes`` has shape (d, 2): row j - 1 holds the amplitudes of pair
    j's all-horizontal and all-vertical kets, so its row-major order is the
    canonical ket order (pair 1..d, H before V), and its row count is the
    ring size ``nodes``.  It is a read-only copy of the array passed in.
    The JSON form lists the nonzero amplitudes only.
    """

    amplitudes: np.ndarray
    photons: int

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes, dtype=complex)
        if amplitudes.ndim != 2 or amplitudes.shape[1] != 2:
            raise ValidationError(f"amplitudes must have shape (d, 2), got {amplitudes.shape}")
        _check_counts(self.photons, amplitudes.shape[0])
        if not np.all(np.isfinite(amplitudes)):
            j, col = np.argwhere(~np.isfinite(amplitudes))[0]
            raise ValidationError(
                f"amplitude for pair {j + 1} polarization {POLARIZATIONS[col]} is not finite"
            )
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def nodes(self) -> int:
        return self.amplitudes.shape[0]

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
    return RingState(np.full((nodes, 2), amp, dtype=complex), photons)


def apply_phases(state: RingState, phases) -> RingState:
    """Imprint local phases: the vertical ket of pair (j, j+1) acquires
    exp(i*(N/2)*(phi_j + phi_{j+1})); horizontal kets are unchanged."""
    imprinted = _imprinted_phases(state.photons, phase_vector(phases, state.nodes))
    amplitudes = state.amplitudes.copy()
    amplitudes[:, 1] *= np.exp(1j * imprinted)
    return RingState(amplitudes, state.photons)
