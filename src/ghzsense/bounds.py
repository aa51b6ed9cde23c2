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
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .ghz_state import _check_counts, _check_nodes, _check_shots, _float_array
from .qfim import FisherMatrix, _entries_of, _shifted_cholesky

RANK_RTOL = 1e-9


def _weight(alpha, dim: int) -> np.ndarray:
    a = _float_array(alpha, "weight vector", (dim,))
    if np.linalg.norm(a) == 0.0:
        raise ValidationError("weight vector must be nonzero")
    return a


def exact_crb(matrix, alpha, shots: int = 1) -> float:
    """Exact variance bound alpha^T F^{-1} alpha / shots.

    Refuses numerically singular matrices: the smallest eigenvalue must
    exceed ``RANK_RTOL`` times the largest.  For a singular matrix, remove
    the irrelevant direction with a reparametrization first.  A raw array
    is read by :func:`ghzsense.qfim._entries_of`: one that is not square,
    not finite or not symmetric raises ValidationError.

    The largest absolute row sum b bounds the largest eigenvalue, so a
    successful Cholesky factorization of F - RANK_RTOL * b * I
    (:func:`ghzsense.qfim._shifted_cholesky`) proves the test; only when it
    fails does ``eigvalsh`` decide.
    """
    entries = _entries_of(matrix)
    n = _check_shots(shots)
    a = _weight(alpha, entries.shape[0])
    if not _shifted_cholesky(entries, -RANK_RTOL)[0]:
        eigs = np.linalg.eigvalsh(entries)
        if eigs[-1] <= 0.0 or eigs[0] <= RANK_RTOL * eigs[-1]:
            raise SingularMatrixError(
                "Fisher matrix is numerically singular "
                f"(smallest eigenvalue {eigs[0]:.3e}, largest {eigs[-1]:.3e}); "
                "re-express it in an invertible chart via a reparametrization "
                "before taking the exact bound"
            )
    return float(a @ np.linalg.solve(entries, a)) / n


def weak_crb(matrix, alpha, shots: int = 1) -> float:
    """Single-direction bound (alpha^T alpha)^2 / (shots * alpha^T F alpha).

    The matrix is read like that of :func:`exact_crb`.
    """
    entries = _entries_of(matrix)
    n = _check_shots(shots)
    a = _weight(alpha, entries.shape[0])
    quad = float(a @ entries @ a)
    scale = float(np.max(np.abs(entries), initial=0.0)) * float(a @ a)
    if quad <= 1e-12 * max(scale, 1e-300):
        raise SingularMatrixError(
            "weight vector lies in the null space of the Fisher matrix "
            f"(alpha^T F alpha = {quad:.3e} for alpha = {a.tolist()}); "
            "no finite information is available along this direction"
        )
    return float(a @ a) ** 2 / (n * quad)


@dataclass
class BoundReport:
    """Exact and weak bounds for one weight vector, with matrix provenance."""

    alpha: np.ndarray
    shots: int
    weak_bound: float
    exact_bound: float | None
    exact_unavailable_reason: str | None
    equality_gap: float | None
    kind: str
    chart_name: str
    photons: int
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "alpha": [float(x) for x in self.alpha],
            "shots": int(self.shots),
            "weak_bound": float(self.weak_bound),
            "exact_bound": None if self.exact_bound is None else float(self.exact_bound),
            "exact_unavailable_reason": self.exact_unavailable_reason,
            "equality_gap": None if self.equality_gap is None else float(self.equality_gap),
            "kind": self.kind,
            "chart": self.chart_name,
            "N": int(self.photons),
            "d": int(self.nodes),
        }


def bound_report(matrix: FisherMatrix, alpha, shots: int = 1) -> BoundReport:
    """Assemble both bounds; the exact one may be unavailable when singular."""
    if not isinstance(matrix, FisherMatrix):
        raise ValidationError(f"matrix must be a FisherMatrix, got {type(matrix).__name__}")
    a = _weight(alpha, matrix.dim)
    n = _check_shots(shots)
    weak = weak_crb(matrix, a, n)
    try:
        exact = exact_crb(matrix, a, n)
        reason = None
        gap = exact - weak
    except SingularMatrixError as exc:
        exact = None
        reason = str(exc)
        gap = None
    return BoundReport(
        a,
        n,
        weak,
        exact,
        reason,
        gap,
        matrix.kind,
        matrix.chart.name,
        matrix.photons,
        matrix.nodes,
    )


@dataclass
class WeakExactReport:
    """Two sides of the weak-vs-exact comparison for one (S, alpha) pair."""

    weak_side: float
    exact_side: float
    gap: float
    rayleigh_quotient: float
    eigenvector_residual: float
    alpha_is_eigenvector: bool
    first_diag_reciprocal: float
    first_diag_of_inverse: float
    first_diag_holds: bool


def weak_vs_exact_check(matrix, alpha) -> WeakExactReport:
    """Verify (a^T a)^2 / (a^T S a) <= a^T S^{-1} a for a positive definite S.

    S is read like the matrix of :func:`exact_crb`.  Also reports the
    eigenvector equality condition and the scalar corollary
    1/S[0,0] <= (S^{-1})[0,0].
    """
    s = _entries_of(matrix)
    a = _weight(alpha, s.shape[0])
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] <= 0.0:
        raise ValidationError(
            f"matrix must be positive definite; smallest eigenvalue is {eigs[0]:.3e}"
        )
    # columns: S^{-1} a and the first column of S^{-1}
    solved = np.linalg.solve(s, np.column_stack([a, np.eye(s.shape[0])[:, 0]]))
    exact_side = float(a @ solved[:, 0])
    quad = float(a @ s @ a)
    norm2 = float(a @ a)
    weak_side = norm2**2 / quad
    rayleigh = quad / norm2
    residual = float(np.linalg.norm(s @ a - rayleigh * a)) / math.sqrt(norm2)
    inverse_first = float(solved[0, 1])
    reciprocal_first = 1.0 / float(s[0, 0])
    return WeakExactReport(
        weak_side,
        exact_side,
        exact_side - weak_side,
        rayleigh,
        residual,
        residual <= 1e-9,
        reciprocal_first,
        inverse_first,
        reciprocal_first <= inverse_first + 1e-12,
    )


def _mc_spectral_bound(photons: int, nodes: int, alpha: np.ndarray, kind: str) -> float:
    """Exact one-shot bound alpha^T F^{-1} alpha in the reduced ``mc`` chart, from the spectrum.

    ``photons`` and ``nodes`` must already be validated (d even), and
    ``alpha`` is a weight on the d - 1 kept coordinates theta_1..theta_{d-1}.
    With J = ``build_mc(d).inverse[:, 1:]`` and W = ``build_mc(d).forward[1:]``,
    the reduced matrix of a node-chart matrix F is J^T F J.  W J = I and W
    annihilates the alternating null vector of F, so (J^T F J)^{-1} =
    W F^+ W^T, and the bound is w^T F^+ w with w = W^T alpha, the adjoint of
    :func:`ghzsense.reparam._mc_coordinates`.  F is circulant, with the
    eigenvalue (N^2/d) c_k on Fourier mode k: c_k = cos^2(pi k/d) for the
    classical matrix, and 2 cos^2(pi k/d) except c_0 = 1 for the quantum one.
    With U the DFT of u = d w, the bound is the sum of
    |U_k|^2 / (d^2 N^2 c_k) over every mode but the null mode k = d/2, which
    is dropped by its index.  Every kept c_k is at least sin^2(pi/d) > 0, so
    nothing is refused, and no d x d matrix is formed.  The DFT of a real u
    is even in k, so modes 1..d/2 - 1 are summed twice.  On mode 0,
    c_0 = 1 and U_0 = d alpha_1 exactly (the differences in w sum to zero),
    so that mode adds alpha_1^2 / N^2.  For the average phase, alpha = e_1,
    the other modes hold only rounding noise, far below an ulp of 1, and the
    bound is 1/N^2 as rounded.
    """
    d = nodes
    u = np.full(d, float(alpha[0]))
    u[:-2] += alpha[1:]
    u[2:] -= alpha[1:]
    spectrum = np.fft.rfft(u)[1 : d // 2]
    modes = np.cos((np.pi / d) * np.arange(1, d // 2)) ** 2
    if kind == "quantum":
        modes *= 2.0
    rest = 2.0 * float(np.sum((spectrum.real**2 + spectrum.imag**2) / modes))
    return (float(alpha[0]) ** 2 + rest / d**2) / float(photons) ** 2


@dataclass
class SweepRow:
    """One (N, d) point of the average-phase bound sweep."""

    photons: int
    nodes: int
    qcrb: float
    ccrb: float
    ratio: float


def heisenberg_sweep(photon_counts, node_counts) -> list[SweepRow]:
    """Standard-deviation bounds on the average phase over an (N, d) grid.

    Each bound is the exact one of theta_1, the average phase, in the
    reduced ``mc`` chart (``build_mc(d).chart(True)``), where the
    alternating coordinate that makes every original-chart matrix singular
    is dropped.  It is read off the ring spectrum by
    :func:`_mc_spectral_bound`, so no chart, matrix or factorization is
    formed.  Both the quantum and classical matrices give an exact bound of
    1/N at one shot, independent of d, so the paired measurement saturates
    the scaling in N.  Every grid point is validated before any bound is
    computed.
    """
    grid = [(photons, nodes) for photons in photon_counts for nodes in node_counts]
    for photons, nodes in grid:
        _check_counts(photons, nodes)
        _check_nodes(nodes, 4, even=True)
    rows = []
    for photons, nodes in grid:
        average = np.eye(1, nodes - 1)[0]
        qcrb = math.sqrt(_mc_spectral_bound(photons, nodes, average, "quantum"))
        ccrb = math.sqrt(_mc_spectral_bound(photons, nodes, average, "classical"))
        rows.append(SweepRow(int(photons), int(nodes), qcrb, ccrb, ccrb / qcrb))
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
