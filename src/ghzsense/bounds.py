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
    return _weak_bound(_weak_terms(entries, _weight(alpha, entries.shape[0])), n)


def _weak_bound(terms: tuple, n: int) -> float:
    """:func:`weak_crb` at ``n`` shots of ``terms``, the :func:`_weak_terms` of a weight.

    With u = a 2^-k, F = F' 2^j and n = m 2^e (m in [0.5, 1), ``math.frexp``),
    the bound (a^T a)^2 / (n a^T F a) is (u^T u)^2 / (m u^T F' u) times
    2^(2k - j - e), and each power-of-two scaling is exact.  F is scaled
    (j > 0) only where u^T F u overflows.  So, with F unscaled, the bound
    is the expression as written, bit for bit, wherever each step of that
    is a normal float, and a weight whose bound is a normal float is
    accepted whatever the size of (a^T a)^2 or of n a^T F a.  The square
    is ``norm2 * norm2``, which is correctly rounded; ``x ** 2`` is libm's
    pow, which is not.
    """
    _, k, j, norm2, quad = terms
    m, e = math.frexp(float(n))
    with np.errstate(over="ignore"):
        bound = float(np.ldexp(norm2 * norm2 / (m * quad), 2 * k - j - e))
    return _in_range(bound, "weak bound")


def _weak_terms(entries: np.ndarray, a: np.ndarray) -> tuple:
    """(u, k, j, u^T u, u^T F' u) at u = a 2^-k, the weight scaled by :func:`_scaled`.

    F' = F 2^-j is F itself (j = 0) unless u^T F u or the null-space
    threshold overflows; then j is the binary exponent of max|F|, so that
    max|F'| lies in [0.5, 1) and u^T F' u is finite.  The weight is
    nonzero, so ``entries`` is not empty; its largest absolute entry is
    max(max F, -min F), which forms no array.  A weight with
    u^T F' u <= 1e-12 max|F'| u^T u lies in the null space and raises
    SingularMatrixError, which reports a^T F a at the weight itself.
    """
    u, k = _scaled(a)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(u @ entries @ u)
    norm2 = float(u @ u)
    top = max(float(entries.max()), -float(entries.min()))
    j = 0
    if not (math.isfinite(quad) and math.isfinite(top * norm2)):
        j = math.frexp(top)[1]
        top = math.ldexp(top, -j)
        quad = float(u @ np.ldexp(entries, -j) @ u)
    scale = top * norm2
    if quad <= 1e-12 * max(scale, 1e-300):
        with np.errstate(over="ignore", invalid="ignore"):
            at_alpha = float(a @ entries @ a)
        raise SingularMatrixError(
            "weight vector lies in the null space of the Fisher matrix "
            f"(alpha^T F alpha = {at_alpha:.3e} for alpha = {a.tolist()}); "
            "no finite information is available along this direction"
        )
    return u, k, j, norm2, quad


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
    weak = _weak_bound(_weak_terms(matrix.entries, a), n)
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
    at the weight and the matrix scaled by powers of two, with the Rayleigh
    quotient read off the u^T S' u and u^T u of the weak side
    (:func:`_weak_terms`); neither changes with the weight's scale.  At
    a = e_0 the sides are 1/S[0,0] and (S^{-1})[0,0].
    """
    s = _entries_of(matrix)
    a = _weight(alpha, s.shape[0])
    exact_side = _exact_bound(s, a, 1)
    terms = _weak_terms(s, a)
    weak_side = _weak_bound(terms, 1)
    u, _, j, norm2, quad = terms
    # at S 2^-j, the matrix of u^T S' u, and scaled back
    s = np.ldexp(s, -j)
    rayleigh = quad / norm2
    residual = float(np.linalg.norm(s @ u - rayleigh * u)) / math.sqrt(norm2)
    scale = max(float(s.max()), -float(s.min()))
    return WeakExactReport(
        weak_side, exact_side, math.ldexp(rayleigh, j), math.ldexp(residual, j),
        residual <= 1e-9 * scale,
    )


def _average_phase_bound(photons: int) -> float:
    """Exact one-shot bound on theta_1, the average phase, in the reduced ``mc`` chart: 1/N^2.

    It is the same for the quantum and the classical matrix.  In that chart
    the classical matrix is (N^2/4d) (G J)^T (G J) and the quantum one
    (N^2/2d) (G J)^T (G J) - (N^2/4d^2) s s^T, with G the pair-sum
    gradients, J = ``build_mc(d).inverse[:, 1:]`` and s the column sums of
    G J.  The first column of J, theta_1's, is all ones, so its pair sums
    are all 2, and every other column of J sums to 0, so its pair sums sum
    to 0 too.  The theta_1 row of (G J)^T (G J) is then (4d, 0, ..., 0) and
    s is (2d, 0, ..., 0): theta_1 is decoupled with diagonal entry N^2 for
    both kinds, and its bound is the inverse of that entry, with no matrix
    formed.
    """
    return 1.0 / float(photons) ** 2


@dataclass
class SweepRow:
    """One (N, d) point of the average-phase bound sweep.

    ``qcrb`` and ``ccrb`` are the standard deviations of the quantum and
    classical exact bounds at one shot, and ``ratio`` is ccrb / qcrb.
    """

    photons: int
    nodes: int

    @property
    def qcrb(self) -> float:
        return math.sqrt(_average_phase_bound(self.photons))

    @property
    def ccrb(self) -> float:
        return math.sqrt(_average_phase_bound(self.photons))

    @property
    def ratio(self) -> float:
        return self.ccrb / self.qcrb


def heisenberg_sweep(photon_counts, node_counts) -> list[SweepRow]:
    """Standard-deviation bounds on the average phase over an (N, d) grid.

    Each bound is the exact one of theta_1, the average phase, in the
    reduced ``mc`` chart (``build_mc(d).chart(True)``), where the
    alternating coordinate that makes every original-chart matrix singular
    is dropped.  There theta_1 is decoupled and its diagonal entry is N^2
    for both the quantum and the classical matrix
    (:func:`_average_phase_bound`), so both bounds are 1/N at one shot,
    independent of d, and no chart, matrix or factorization is formed: the
    paired measurement saturates the scaling in N.  Every grid point is
    validated before any row is formed.
    """
    grid = [(photons, nodes) for photons in photon_counts for nodes in node_counts]
    for photons, nodes in grid:
        _check_counts(photons, nodes)
        _check_nodes(nodes, 4, even=True)
    return [SweepRow(int(photons), int(nodes)) for photons, nodes in grid]


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
