"""Paired diagonal-basis projective measurement and its classical Fisher matrix.

Measuring both nodes of each ring pair in the +/- (diagonal) polarization
basis yields four outcomes per pair.  With x_j = phi_j + phi_{j+1} the
agreeing patterns share probability (1 + cos((N/2) x_j)) / (4 d) and the
disagreeing patterns share (1 - cos((N/2) x_j)) / (4 d).

For the Fisher matrix the four outcomes of pair j collapse analytically:
1/(1+c) + 1/(1-c) = 2/sin^2 cancels the sin^2 from the squared derivative,
leaving the phase-independent kernel (N^2 / (4 d)) * grad(x_j) grad(x_j)^T.
The cancellation also covers outcomes of probability zero, so the kernel is
valid at every phase point, not just where all probabilities are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .ghz_state import _check_counts, _imprinted_phases, phase_vector
from .qfim import (
    Chart, FisherMatrix, _central_differences, _directions_for, _read_only, _slot_matrix
)

PATTERNS = ("++", "--", "+-", "-+")


class OutcomeLabel(NamedTuple):
    """Measurement outcome: ring-pair index and +/- pattern at its two nodes."""

    pair: int
    pattern: str


def outcome_labels(d: int) -> list[OutcomeLabel]:
    """All 4*d outcome labels in canonical order."""
    return [OutcomeLabel(j, p) for j in range(1, d + 1) for p in PATTERNS]


def _label_at(index: int) -> OutcomeLabel:
    """Outcome label at position ``index`` of the canonical order."""
    return OutcomeLabel(index // 4 + 1, PATTERNS[index % 4])


def _canonical_entries(values, nodes: int, table: str) -> np.ndarray:
    """Entries of a label-keyed mapping or of a flat array, in canonical label order."""
    if isinstance(values, Mapping):
        labels = outcome_labels(nodes)
        values = [values[label] for label in labels] if set(values) == set(labels) else None
    try:
        entries = np.asarray(values)
    except ValueError:  # a ragged sequence
        entries = None
    if entries is None or entries.shape != (4 * nodes,):
        raise ValidationError(f"{table} must cover exactly the {4 * nodes} canonical outcomes")
    return entries


def _float_entries(entries: np.ndarray, what: str) -> np.ndarray:
    """Canonical ``entries`` as a new float64 array.

    Complex entries raise ValidationError naming ``what``, and an entry that
    is not a number raises one naming ``what`` and its outcome label.
    """
    if np.iscomplexobj(entries):
        raise ValidationError(f"{what} entries must be real, got dtype {entries.dtype}")
    try:
        return np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    for index, value in enumerate(entries.tolist()):
        try:
            float(value)
        except (TypeError, ValueError, OverflowError):
            break
    raise ValidationError(f"{what} for {_label_at(index)} must be a number, got {value!r}")


def _by_label(entries: np.ndarray, nodes: int) -> dict:
    """Mapping from each outcome label to its entry, in canonical order."""
    return dict(zip(outcome_labels(nodes), entries.tolist()))


@dataclass(eq=False, frozen=True)
class OutcomeDistribution:
    """Probability table over the 4*d paired diagonal-basis outcomes.

    ``array`` holds the probabilities in canonical label order (see
    :func:`outcome_labels`).  It may be given as such an array or as a
    mapping from :class:`OutcomeLabel`; it is stored as a read-only copy,
    so a validated distribution never changes.  ``probabilities`` is a
    read-only label-keyed view of it.
    """

    array: np.ndarray
    photons: int
    nodes: int

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        entries = _canonical_entries(self.array, self.nodes, "distribution")
        probs = _read_only(_float_entries(entries, "probability"))
        object.__setattr__(self, "array", probs)
        bad = ~(np.isfinite(probs) & (probs >= 0.0))
        if bad.any():
            label = _label_at(int(np.argmax(bad)))
            raise ValidationError(f"probability for {label} must be finite and >= 0")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        # consecutive entries pair up as ++/-- and +-/-+
        unmatched = probs[0::2] != probs[1::2]
        if unmatched.any():
            raise ValidationError(
                f"pattern symmetry violated for pair {int(np.argmax(unmatched)) // 2 + 1}: "
                "++/-- and +-/-+ must match"
            )

    @cached_property
    def _probabilities(self) -> dict:
        return _by_label(self.array, self.nodes)

    @property
    def probabilities(self) -> MappingProxyType:
        return MappingProxyType(self._probabilities)

    def probability(self, label: OutcomeLabel) -> float:
        return self.probabilities[label]

    def as_array(self) -> np.ndarray:
        """Writable copy of the probabilities in canonical label order."""
        return self.array.copy()


def _pair_totals(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's agree (++, --) and disagree (+-, -+) totals of canonical ``entries``.

    ``entries`` has the 4d outcomes along its last axis, in the order that
    :func:`outcome_distribution` lays out; both totals have d entries there.
    """
    per_pair = entries.reshape(*entries.shape[:-1], -1, 4)
    return per_pair[..., 0] + per_pair[..., 1], per_pair[..., 2] + per_pair[..., 3]


def outcome_distribution(photons: int, nodes: int, phases) -> OutcomeDistribution:
    """Outcome probabilities of the paired diagonal-basis measurement."""
    _check_counts(photons, nodes)
    c = np.cos(_imprinted_phases(photons, phase_vector(phases, nodes)))
    agree = (1.0 + c) / (4.0 * nodes)
    disagree = (1.0 - c) / (4.0 * nodes)
    # canonical order per pair: ++, -- (agree), +-, -+ (disagree)
    probs = np.repeat(np.stack([agree, disagree], axis=1), 2)
    return OutcomeDistribution(probs, photons, nodes)


def cfim(photons: int, nodes: int, phases, chart: Chart | None = None) -> FisherMatrix:
    """Classical Fisher matrix of the paired measurement in a given chart.

    Uses the analytically collapsed kernel, so the result is exact at every
    phase point including those where some outcomes have probability zero,
    and is independent of the phases for any fixed linear chart.  The kernel
    sum is (N^2/4d) G^T G, with G the chart's
    :func:`ghzsense.qfim.pair_sum_gradients`.
    Calls with the same chart and photon number copy the entries of one
    matrix, formed and validated on the first of them.
    """
    return _slot_matrix(photons, nodes, phases, chart, "classical")


def cfim_brute_force_oracle(
    photons: int, nodes: int, phases, chart: Chart | None = None
) -> FisherMatrix:
    """Independent cross-check: literal sum over outcomes with numerical dP.

    Computes sum_o (1/P_o) (dP_o/dm) (dP_o/dn) with central-difference
    probability derivatives of step 1e-6
    (:func:`ghzsense.qfim._central_differences`).  Requires every outcome
    probability to exceed 1e-8 so the quotient is well conditioned.
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    chart, directions = _directions_for(nodes, chart)

    def probabilities(p):
        return outcome_distribution(photons, nodes, p).as_array()

    base = probabilities(phi)
    lowest = float(np.min(base))
    if lowest <= 1e-8:
        raise ValidationError(
            f"brute-force Fisher sum needs all outcome probabilities > 1e-8; "
            f"smallest is {lowest:.3e}"
        )
    derivs = _central_differences(probabilities, phi, directions)
    # sum_o dP_o dP_o^T / P_o as one product over the (4d, k) stack
    weighted = derivs / np.sqrt(base)[:, None]
    return FisherMatrix(weighted.T @ weighted, "classical", chart, photons)
