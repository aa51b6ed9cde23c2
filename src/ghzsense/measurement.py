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
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .ghz_state import _check_counts, _check_shots, _imprinted_phases, phase_vector
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


def _refuse_booleans(values, what: str) -> None:
    """Refuse count entries ``values`` if one is a boolean, alone or mixed with numbers.

    numpy reads booleans mixed with numbers as 0 and 1, so only a numeric
    array is judged by its dtype alone; any other input is read entry by
    entry, where a numpy boolean or boolean array counts as a boolean too.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        found = values.dtype == bool
    else:
        cells = np.asarray(values, dtype=object).flat
        found = any(isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in cells)
    if found:
        raise ValidationError(f"{what} entries must be whole numbers, not booleans")


@dataclass(eq=False, frozen=True)
class _OutcomeTable:
    """Frozen table of one entry per outcome, in canonical label order.

    ``array`` may be given as an array in canonical label order (see
    :func:`outcome_labels`) or as a mapping from :class:`OutcomeLabel`
    whose keys are exactly those labels.  A subclass's ``_read`` turns the
    canonical entries (and the values they were read from) into a new array,
    which is stored read-only, so a validated table never changes; its
    ``_check`` then applies the subclass's rule to it.
    """

    array: np.ndarray
    photons: int
    nodes: int

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        values = self.array
        if isinstance(values, Mapping):
            labels = outcome_labels(self.nodes)
            values = [values[label] for label in labels] if set(values) == set(labels) else None
        try:
            entries = np.asarray(values)
        except ValueError:  # a ragged sequence
            entries = None
        if entries is None or entries.shape != (4 * self.nodes,):
            raise ValidationError(
                f"{self._TABLE} must cover exactly the {4 * self.nodes} canonical outcomes"
            )
        object.__setattr__(self, "array", _read_only(self._read(entries, values)))
        self._check()

    @cached_property
    def _label_view(self) -> MappingProxyType:
        """Read-only mapping from each outcome label to its entry, in canonical order."""
        return MappingProxyType(dict(zip(outcome_labels(self.nodes), self.array.tolist())))


class OutcomeDistribution(_OutcomeTable):
    """Probability table over the 4*d paired diagonal-basis outcomes.

    The probabilities must be finite, >= 0 and sum to 1, and the two
    agreeing and the two disagreeing patterns of each pair must match.
    ``probabilities`` is a read-only label-keyed view of ``array``.
    """

    _TABLE = "distribution"

    def _read(self, entries: np.ndarray, values) -> np.ndarray:
        return _float_entries(entries, "probability")

    def _check(self):
        bad = ~(np.isfinite(self.array) & (self.array >= 0.0))
        if bad.any():
            label = _label_at(int(np.argmax(bad)))
            raise ValidationError(f"probability for {label} must be finite and >= 0")
        total = math.fsum(self.array.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        # consecutive entries pair up as ++/-- and +-/-+
        unmatched = self.array[0::2] != self.array[1::2]
        if unmatched.any():
            raise ValidationError(
                f"pattern symmetry violated for pair {int(np.argmax(unmatched)) // 2 + 1}: "
                "++/-- and +-/-+ must match"
            )

    @property
    def probabilities(self) -> MappingProxyType:
        return self._label_view

    def probability(self, label: OutcomeLabel) -> float:
        return self._label_view[label]

    def as_array(self) -> np.ndarray:
        """Writable copy of the probabilities in canonical label order."""
        return self.array.copy()


@dataclass(eq=False, frozen=True)
class CountTable(_OutcomeTable):
    """Observed outcome counts from one measurement run.

    Every count must be a whole number, not a boolean, and none negative;
    ``array`` stores them as int64.  ``shots``, their sum, must pass the
    shot-count rule.  ``counts`` is a read-only label-keyed view of ``array``.
    """

    shots: int = field(init=False)
    _TABLE = "count table"

    def _read(self, entries: np.ndarray, values) -> np.ndarray:
        _refuse_booleans(values, "count table")
        if not np.can_cast(entries.dtype, np.int64):
            entries = _float_entries(entries, "count")
            # int64 holds every whole number of magnitude below 2**63 exactly
            whole = np.isfinite(entries) & (entries == np.trunc(entries))
            whole &= np.abs(entries) < 2.0**63
            if not whole.all():
                label = _label_at(int(np.argmax(~whole)))
                raise ValidationError(f"count for {label} must be a finite integer below 2**63")
        return entries.astype(np.int64)

    def _check(self):
        negative = self.array < 0
        if negative.any():
            raise ValidationError(f"count for {_label_at(int(np.argmax(negative)))} is negative")
        object.__setattr__(self, "shots", _check_shots(sum(self.array.tolist())))

    @property
    def counts(self) -> MappingProxyType:
        return self._label_view


def _pair_totals(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's agree (++, --) and disagree (+-, -+) totals of canonical ``entries``.

    ``entries`` has the 4d outcomes along its last axis, in the order that
    :func:`outcome_distribution` lays out; both totals have d entries there,
    each float(x) + float(y) of its two outcomes x and y.
    """
    per_pair = entries.reshape(*entries.shape[:-1], -1, 4)
    return (
        np.add(per_pair[..., 0], per_pair[..., 1], dtype=float),
        np.add(per_pair[..., 2], per_pair[..., 3], dtype=float),
    )


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
