"""Cramer-Rao variance bounds for linear functions of the phases.

For a weight vector alpha and shot count n, the exact bound on the variance
of an unbiased estimate of alpha^T p is alpha^T F^{-1} alpha / n, defined
only when F is invertible.  The weaker single-direction bound
(alpha^T alpha)^2 / (n alpha^T F alpha) never needs an inverse and by the
Cauchy-Schwarz inequality never exceeds the exact one, with equality exactly
when alpha is an eigenvector of F.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .ghz_state import _check_counts, _check_nodes, _check_shots, _float_array
from .qfim import RANK_RTOL, FisherMatrix, _check_fisher, _entries_of, _shifted_cholesky
from .reparam import _mc_coordinates_adjoint


def _weight(alpha, dim: int) -> np.ndarray:
    """``alpha`` read as a nonzero weight on ``dim`` coordinates.

    Its alpha^T alpha must pass :func:`_in_range`, as must each bound computed
    from it, so a weight too large or too small for float64 arithmetic is
    refused with ValidationError, not with an overflow or a meaningless bound.
    """
    a = _float_array(alpha, "weight vector", (dim,))
    if not a.any():
        raise ValidationError("weight vector must be nonzero")
    with np.errstate(over="ignore"):
        _in_range(float(a @ a), "alpha^T alpha")
    return a


def _in_range(value: float, what: str) -> float:
    """``value``, a quantity of the weight, if it is a positive finite normal float."""
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise ValidationError(
            f"weight vector gives {what} = {value:.3e}, not a positive finite normal float"
        )
    return value


def exact_crb(matrix, alpha, shots: int = 1) -> float:
    """Exact variance bound alpha^T F^{-1} alpha / shots.

    Refuses numerically singular matrices: the smallest eigenvalue must
    exceed ``RANK_RTOL`` times the largest.  For a singular matrix, remove
    the irrelevant direction with a reparametrization first.  A raw array
    is read by :func:`ghzsense.qfim._entries_of`: one that is not square,
    not finite or not symmetric raises ValidationError.  The singularity
    test is :func:`_refuse_singular`, and the weight and the bound follow
    the rule of :func:`_weight`.
    """
    entries = _entries_of(matrix)
    n = _check_shots(shots)
    return _exact_bound(entries, _weight(alpha, entries.shape[0]), n)


def _refuse_singular(entries: np.ndarray) -> None:
    """Raise SingularMatrixError unless lambda_min > ``RANK_RTOL`` * lambda_max.

    The largest absolute row sum b bounds the largest eigenvalue, so a
    successful Cholesky factorization of F - RANK_RTOL * b * I
    (:func:`ghzsense.qfim._shifted_cholesky`) proves the test; only when it
    fails does ``eigvalsh`` decide.
    """
    if _shifted_cholesky(entries, -RANK_RTOL)[0]:
        return
    eigs = np.linalg.eigvalsh(entries)
    if eigs[-1] <= 0.0 or eigs[0] <= RANK_RTOL * eigs[-1]:
        raise SingularMatrixError(
            "Fisher matrix is numerically singular "
            f"(smallest eigenvalue {eigs[0]:.3e}, largest {eigs[-1]:.3e}); "
            "re-express it in an invertible chart via a reparametrization "
            "before taking the exact bound"
        )


def _exact_bound(entries: np.ndarray, a: np.ndarray, n: int) -> float:
    """:func:`exact_crb` of already validated entries, weight and shot count."""
    _refuse_singular(entries)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(a @ np.linalg.solve(entries, a)) / n
    return _in_range(bound, "exact bound")


def weak_crb(matrix, alpha, shots: int = 1) -> float:
    """Single-direction bound (alpha^T alpha)^2 / (shots * alpha^T F alpha).

    The matrix is read like that of :func:`exact_crb`.
    """
    entries = _entries_of(matrix)
    n = _check_shots(shots)
    return _weak_bound(entries, _weight(alpha, entries.shape[0]), n)


def _weak_bound(entries: np.ndarray, a: np.ndarray, n: int) -> float:
    """:func:`weak_crb` of already validated entries, weight and shot count.

    The bound is :func:`_weak_quotient` at ``a``.  Where that is not a
    normal float, because a step of it over- or underflowed, it is taken at
    the weight scaled by a power of two to a largest entry in [0.5, 1)
    (:func:`_scaled`) and multiplied by that power squared, which is exact.  So
    a weight whose bound is a normal float is accepted whatever the size of
    (a^T a)^2.  The scaled form is not taken everywhere: Python's
    ``x ** 2`` is libm's pow, which is not correctly rounded, so at about
    one weight in two thousand it would move the last bit of a bound that
    the expression as written gives.
    """
    bound = _weak_quotient(entries, a, n)
    if not sys.float_info.min <= bound < math.inf:
        scaled, k = _scaled(a)
        with np.errstate(over="ignore"):
            bound = float(np.ldexp(_weak_quotient(entries, scaled, n), 2 * k))
    return _in_range(bound, "weak bound")


def _weak_quotient(entries: np.ndarray, a: np.ndarray, n: int) -> float:
    """(a^T a)^2 / (n a^T F a), inf when a step of it overflows.

    The weight is nonzero, so ``entries`` is not empty; its largest
    absolute entry is max(max F, -min F), which forms no array.  A weight
    with a^T F a <= 1e-12 max|F| a^T a lies in the null space and raises
    SingularMatrixError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(a @ entries @ a)
    norm2 = float(a @ a)
    scale = max(float(entries.max()), -float(entries.min())) * norm2
    denominator = n * quad
    if not (math.isfinite(denominator) and math.isfinite(scale)):
        return math.inf
    if quad <= 1e-12 * max(scale, 1e-300):
        raise SingularMatrixError(
            "weight vector lies in the null space of the Fisher matrix "
            f"(alpha^T F alpha = {quad:.3e} for alpha = {a.tolist()}); "
            "no finite information is available along this direction"
        )
    try:
        return norm2**2 / denominator
    except OverflowError:  # (alpha^T alpha)^2 beyond the float64 range
        return math.inf


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` times 2^-k, and k, the binary exponent of the largest |a_i|.

    The largest scaled entry lies in [0.5, 1).  A power of two scales every
    product and sum exactly, so a quantity of degree m in the weight is
    2^(mk) times its value at the scaled weight, bit for bit, unless a step
    leaves the normal float range.
    """
    k = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -k), k


@dataclass
class BoundReport:
    """Exact and weak bounds of one weight vector, with the matrix they were taken from.

    The matrix is frozen, so the kind, chart and photon number that
    ``to_json_dict`` reads off it are those the bounds were computed with.
    ``equality_gap`` is exact - weak, None when the exact bound is.
    """

    matrix: FisherMatrix
    alpha: np.ndarray
    shots: int
    weak_bound: float
    exact_bound: float | None
    exact_unavailable_reason: str | None

    @property
    def equality_gap(self) -> float | None:
        return None if self.exact_bound is None else self.exact_bound - self.weak_bound

    def to_json_dict(self) -> dict:
        return {
            "alpha": [float(x) for x in self.alpha],
            "shots": int(self.shots),
            "weak_bound": float(self.weak_bound),
            "exact_bound": None if self.exact_bound is None else float(self.exact_bound),
            "exact_unavailable_reason": self.exact_unavailable_reason,
            "equality_gap": None if self.equality_gap is None else float(self.equality_gap),
            "kind": self.matrix.kind,
            "chart": self.matrix.chart.name,
            "N": int(self.matrix.photons),
            "d": int(self.matrix.nodes),
        }


def bound_report(matrix: FisherMatrix, alpha, shots: int = 1) -> BoundReport:
    """Assemble both bounds; the exact one may be unavailable when singular.

    ``matrix`` must be a :class:`ghzsense.qfim.FisherMatrix`, whose entries
    are already validated.  The weight and the shot count are validated
    once, here, and both bounds are computed from them; the exact one keeps
    its Cholesky certificate and its solve.
    """
    a = _weight(alpha, _check_fisher(matrix).dim)
    n = _check_shots(shots)
    weak = _weak_bound(matrix.entries, a, n)
    try:
        exact = _exact_bound(matrix.entries, a, n)
        reason = None
    except SingularMatrixError as exc:
        exact = None
        reason = str(exc)
    return BoundReport(matrix, a, n, weak, exact, reason)


@dataclass
class WeakExactReport:
    """Two sides of the weak-vs-exact comparison for one (S, alpha) pair.

    ``gap`` is exact - weak.  At alpha = e_0 the two sides are 1/S[0,0] and
    (S^{-1})[0,0], the scalar corollary of the comparison.
    """

    weak_side: float
    exact_side: float
    rayleigh_quotient: float
    eigenvector_residual: float
    alpha_is_eigenvector: bool

    @property
    def gap(self) -> float:
        return self.exact_side - self.weak_side


def weak_vs_exact_check(matrix, alpha) -> WeakExactReport:
    """Verify (a^T a)^2 / (a^T S a) <= a^T S^{-1} a for a positive definite S.

    S is read like the matrix of :func:`exact_crb`, and the exact side is
    that function's bound of (S, a) at one shot, bit for bit: one
    singularity test and one single-column solve, so a matrix or a weight
    that :func:`exact_crb` refuses raises the same error.  The weak side is
    :func:`weak_crb`'s.  Also reports the eigenvector equality condition (a
    residual of at most 1e-9 times the largest absolute entry of S), taken
    at the weight scaled by a power of two (:func:`_scaled`); the Rayleigh
    quotient and the residual do not change with the weight's scale.  At
    a = e_0 the sides are 1/S[0,0] and (S^{-1})[0,0].
    """
    s = _entries_of(matrix)
    a = _weight(alpha, s.shape[0])
    exact_side = _exact_bound(s, a, 1)
    weak_side = _weak_bound(s, a, 1)
    u, _ = _scaled(a)
    norm2 = float(u @ u)
    rayleigh = float(u @ s @ u) / norm2
    residual = float(np.linalg.norm(s @ u - rayleigh * u)) / math.sqrt(norm2)
    scale = max(float(s.max()), -float(s.min()))
    return WeakExactReport(weak_side, exact_side, rayleigh, residual, residual <= 1e-9 * scale)


def _mc_spectral_bounds(photons: int, nodes: int, alpha: np.ndarray) -> tuple[float, float]:
    """Exact one-shot bounds alpha^T F^{-1} alpha in the reduced ``mc`` chart, from the spectrum.

    Returns the (quantum, classical) pair.  ``photons`` and ``nodes`` must
    already be validated (d even), and ``alpha`` is a weight on the d - 1
    kept coordinates theta_1..theta_{d-1}.
    With J = ``build_mc(d).inverse[:, 1:]`` and W = ``build_mc(d).forward[1:]``,
    the reduced matrix of a node-chart matrix F is J^T F J.  W J = I and W
    annihilates the alternating null vector of F, so (J^T F J)^{-1} =
    W F^+ W^T, and the bound is w^T F^+ w with w = W^T alpha.  F is
    circulant, with the eigenvalue (N^2/d) c_k on Fourier mode k:
    c_k = cos^2(pi k/d) for the classical matrix, and 2 cos^2(pi k/d) except
    c_0 = 1 for the quantum one.  With U the DFT of u = d w,
    :func:`ghzsense.reparam._mc_coordinates_adjoint`, the bound is the sum of
    |U_k|^2 / (d^2 N^2 c_k) over every mode but the null mode k = d/2, which
    is dropped by its index.  Every kept c_k is at least sin^2(pi/d) > 0, so
    nothing is refused, and no d x d matrix is formed.  The DFT of a real u
    is even in k, so modes 1..d/2 - 1 are summed twice.  On mode 0,
    c_0 = 1 and U_0 = d alpha_1 exactly (the differences in w sum to zero),
    so that mode adds alpha_1^2 / N^2.  For the average phase, alpha = e_1,
    the other modes hold only rounding noise, far below an ulp of 1, and the
    bound is 1/N^2 as rounded.

    Both kinds come from one FFT.  Off mode 0 each quantum term is the
    classical term halved, exactly (a division by a power of two), so twice
    the quantum sum is the classical sum itself, bit for bit, as if each
    kind were summed on its own.
    """
    d = nodes
    spectrum = np.fft.rfft(_mc_coordinates_adjoint(alpha))[1 : d // 2]
    modes = np.cos((np.pi / d) * np.arange(1, d // 2)) ** 2
    total = float(np.sum((spectrum.real**2 + spectrum.imag**2) / modes))
    first = float(alpha[0]) ** 2
    scale = float(photons) ** 2
    return (first + total / d**2) / scale, (first + 2.0 * total / d**2) / scale


@dataclass
class SweepRow:
    """One (N, d) point of the average-phase bound sweep; ``ratio`` is ccrb / qcrb."""

    photons: int
    nodes: int
    qcrb: float
    ccrb: float

    @property
    def ratio(self) -> float:
        return self.ccrb / self.qcrb


def heisenberg_sweep(photon_counts, node_counts) -> list[SweepRow]:
    """Standard-deviation bounds on the average phase over an (N, d) grid.

    Each bound is the exact one of theta_1, the average phase, in the
    reduced ``mc`` chart (``build_mc(d).chart(True)``), where the
    alternating coordinate that makes every original-chart matrix singular
    is dropped.  Both kinds are read off the ring spectrum with one FFT per
    grid point by :func:`_mc_spectral_bounds`, bit-identical to summing
    each kind on its own, so no chart, matrix or factorization is formed.
    Both the quantum and classical matrices give an exact bound of 1/N at
    one shot, independent of d, so the paired measurement saturates the
    scaling in N.  Every grid point is validated before any bound is
    computed.
    """
    grid = [(photons, nodes) for photons in photon_counts for nodes in node_counts]
    for photons, nodes in grid:
        _check_counts(photons, nodes)
        _check_nodes(nodes, 4, even=True)
    rows = []
    for photons, nodes in grid:
        average = np.eye(1, nodes - 1)[0]
        quantum, classical = _mc_spectral_bounds(photons, nodes, average)
        qcrb, ccrb = math.sqrt(quantum), math.sqrt(classical)
        rows.append(SweepRow(int(photons), int(nodes), qcrb, ccrb))
    return rows


def sweep_to_csv(rows) -> str:
    lines = ["N,d,qcrb,ccrb,ratio"]
    for row in rows:
        lines.append(
            f"{row.photons},{row.nodes},{row.qcrb:.17g},{row.ccrb:.17g},{row.ratio:.17g}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json_dict(rows) -> dict:
    return {
        "rows": [
            {
                "N": row.photons,
                "d": row.nodes,
                "qcrb": float(row.qcrb),
                "ccrb": float(row.ccrb),
                "ratio": float(row.ratio),
            }
            for row in rows
        ]
    }
