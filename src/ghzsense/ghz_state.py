"""Sparse kets for N-photon polarization entanglement shared around a ring of d nodes.

Every state handled here is a superposition of at most 2*d basis kets: for each
cyclically adjacent node pair (j, j+1) there is one all-horizontal and one
all-vertical ket, each placing N/2 photons at both nodes of the pair.  Phase
accumulation acts only on the vertical kets, which is what makes a sparse
dictionary representation exact rather than approximate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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


class KetLabel(NamedTuple):
    """Basis-ket identifier: 1-based ring-pair index and polarization."""

    pair: int
    pol: str


def node_pair(pair: int, d: int) -> tuple[int, int]:
    """Return the node indices (j, j+1 mod d) carrying ring pair ``pair``."""
    return pair, pair % d + 1


def ket_labels(d: int) -> list[KetLabel]:
    """All 2*d basis labels for a ring of d nodes, in canonical order."""
    return [KetLabel(j, pol) for j in range(1, d + 1) for pol in POLARIZATIONS]


def _check_counts(photons: int, nodes: int) -> None:
    if not isinstance(photons, (int, np.integer)) or isinstance(photons, bool):
        raise ValidationError(f"photon count must be an integer, got {photons!r}")
    if photons < 2 or photons % 2 != 0:
        raise ValidationError(
            f"photon count must be an even integer >= 2, got {photons}"
        )
    if photons > MAX_PHOTONS:
        raise ValidationError(f"photon count {photons} exceeds the cap of {MAX_PHOTONS}")
    if not isinstance(nodes, (int, np.integer)) or isinstance(nodes, bool):
        raise ValidationError(f"node count must be an integer, got {nodes!r}")
    if nodes < 3:
        raise ValidationError(f"node count must be an integer >= 3, got {nodes}")
    if nodes > MAX_NODES:
        raise ValidationError(f"node count {nodes} exceeds the cap of {MAX_NODES}")


def _check_shots(shots) -> int:
    """``shots`` as an int: a positive integer (not a bool) of at most ``MAX_SHOTS``."""
    if not isinstance(shots, (int, np.integer)) or isinstance(shots, bool) or shots < 1:
        raise ValidationError(f"shot count must be a positive integer, got {shots!r}")
    if shots > MAX_SHOTS:
        raise ValidationError(f"shot count {shots} exceeds the cap of {MAX_SHOTS}")
    return int(shots)


def phase_vector(values, d: int) -> np.ndarray:
    """Coerce ``values`` to a length-d float64 phase vector, validating it."""
    phi = np.asarray(values, dtype=float)
    if phi.shape != (d,):
        raise ValidationError(
            f"phase vector must have shape ({d},), got {phi.shape}"
        )
    if not np.all(np.isfinite(phi)):
        raise ValidationError("phase vector entries must be finite")
    return phi


@dataclass(eq=False)
class SparseKetState:
    """Sparse complex superposition over the 2*d ring-pair basis kets.

    ``terms`` maps a :class:`KetLabel` to its complex amplitude.  Labels with
    amplitude exactly zero are omitted, so a derivative state that vanishes
    identically is represented by an empty dictionary.
    """

    terms: dict[KetLabel, complex]
    photons: int
    nodes: int

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        self.terms = dict(self.terms)
        if len(self.terms) > 2 * self.nodes:
            raise ValidationError(
                f"state has {len(self.terms)} terms, at most {2 * self.nodes} allowed"
            )
        for label, amp in self.terms.items():
            if not isinstance(label, KetLabel):
                raise ValidationError(f"term key {label!r} is not a KetLabel")
            if not 1 <= label.pair <= self.nodes:
                raise ValidationError(
                    f"ring-pair index {label.pair} outside 1..{self.nodes}"
                )
            if label.pol not in POLARIZATIONS:
                raise ValidationError(f"polarization must be 'H' or 'V', got {label.pol!r}")
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValidationError(f"amplitude for {label} is not finite")

    def amplitude(self, label: KetLabel) -> complex:
        return self.terms.get(label, 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))

    def to_json_dict(self) -> dict:
        rows = []
        for label in sorted(self.terms):
            amp = complex(self.terms[label])
            j, k = node_pair(label.pair, self.nodes)
            rows.append(
                {"pair": [j, k], "pol": label.pol, "re": amp.real, "im": amp.imag}
            )
        return {"N": int(self.photons), "d": int(self.nodes), "terms": rows}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SparseKetState":
        try:
            photons = int(doc["N"])
            nodes = int(doc["d"])
            rows = doc["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed state document: {exc}") from exc
        terms: dict[KetLabel, complex] = {}
        for row in rows:
            j, k = (int(x) for x in row["pair"])
            if not 1 <= j <= nodes or k != j % nodes + 1:
                raise ValidationError(
                    f"node pair [{j}, {k}] is not cyclically adjacent for d={nodes}"
                )
            label = KetLabel(j, str(row["pol"]))
            if label in terms:
                raise ValidationError(f"duplicate term for {label}")
            terms[label] = complex(float(row["re"]), float(row["im"]))
        return cls(terms, photons, nodes)


def build_input_state(photons: int, nodes: int) -> SparseKetState:
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
    SparseKetState
        Normalized state with all 2*d amplitudes equal to 1/sqrt(2*d).
    """
    _check_counts(photons, nodes)
    amp = 1.0 / math.sqrt(2 * nodes)
    terms = {label: complex(amp) for label in ket_labels(nodes)}
    state = SparseKetState(terms, photons, nodes)
    assert abs(state.norm() - 1.0) < 1e-12
    return state


def apply_phases(state: SparseKetState, phases) -> SparseKetState:
    """Imprint local phases: the vertical ket of pair (j, j+1) acquires
    exp(i*(N/2)*(phi_j + phi_{j+1})); horizontal kets are unchanged."""
    phi = phase_vector(phases, state.nodes)
    d = state.nodes
    half = state.photons / 2.0
    terms: dict[KetLabel, complex] = {}
    for label, amp in state.terms.items():
        if label.pol == "V":
            j = label.pair
            terms[label] = amp * cmath.exp(1j * half * (phi[j - 1] + phi[j % d]))
        else:
            terms[label] = amp
    return SparseKetState(terms, state.photons, state.nodes)


def directional_state_derivative(
    photons: int, nodes: int, phases, direction
) -> SparseKetState:
    """Derivative of the phase-imprinted state along a phase-space direction.

    Differentiating the imprinted state along ``direction`` v scales the
    vertical ket of pair (j, j+1) by i*(N/2)*(v_j + v_{j+1}) and removes every
    horizontal ket.  The result is generally unnormalized; it is the zero
    state exactly when every cyclic pair sum of v vanishes (the alternating
    direction on an even ring).
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    v = np.asarray(direction, dtype=float)
    if v.shape != (nodes,):
        raise ValidationError(
            f"direction must have shape ({nodes},), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("direction entries must be finite")
    if np.linalg.norm(v) == 0.0:
        raise ValidationError("direction vector must be nonzero")
    output = apply_phases(build_input_state(photons, nodes), phi)
    half = photons / 2.0
    terms: dict[KetLabel, complex] = {}
    for j in range(1, nodes + 1):
        coeff = 1j * half * (v[j - 1] + v[j % nodes])
        if coeff != 0j:
            label = KetLabel(j, "V")
            terms[label] = coeff * output.terms[label]
    return SparseKetState(terms, photons, nodes)


def inner_product(bra: SparseKetState, ket: SparseKetState) -> complex:
    """Hermitian inner product <bra|ket>; the first argument is conjugated."""
    if bra.photons != ket.photons or bra.nodes != ket.nodes:
        raise ValidationError(
            "states live in different spaces: "
            f"(N={bra.photons}, d={bra.nodes}) vs (N={ket.photons}, d={ket.nodes})"
        )
    if len(bra.terms) > len(ket.terms):
        return sum(
            bra.terms[label].conjugate() * amp
            for label, amp in ket.terms.items()
            if label in bra.terms
        )
    return sum(
        amp.conjugate() * ket.terms[label]
        for label, amp in bra.terms.items()
        if label in ket.terms
    )
