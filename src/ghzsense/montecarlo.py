"""Simulated measurement runs and maximum-likelihood bound-saturation checks.

Estimation happens in the cyclic-difference chart with the unidentifiable
coordinate pinned to zero.  Because every outcome probability depends on the
phases only through cos((N/2) x_j), the likelihood is exactly even under a
global sign flip of all coordinates, and a guess whose pair sums all vanish
sits on a stationary point of the likelihood.  Estimation is therefore
strictly local: one deterministic Newton fit inside a box around the initial
guess.  When the starting gradient vanishes identically the start is nudged
along the average-phase axis (toward positive values, a documented
convention) so the fit can leave the stationary point.

The likelihood depends on theta only through the pair sums x = G theta, so
its Hessian is G^T diag(w) G with one weight per pair.  On an even ring the
range of G is the hyperplane sum_j (-1)^j x_j = 0, and a Newton step is a
per-pair diagonal solve plus a rank-one correction onto that hyperplane,
mapped back to theta through any phase vector with those pair sums.  Many
count tables are fit at once, one row each, without forming a Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bounds import exact_crb
from .errors import ConvergenceError, ValidationError
from .ghz_state import _check_counts, phase_vector
from .measurement import (
    OutcomeDistribution,
    OutcomeLabel,
    cfim,
    outcome_distribution,
    outcome_labels,
)
from .qfim import _read_only_copy, _ring_memo
from .reparam import build_mc, pushforward_fisher

DEFAULT_BOX_HALF_WIDTH = 0.25
# Largest replicates * 4d count table that crb_saturation_experiment will
# allocate (32 MiB of int64 counts; the fit's float working arrays take a few
# times that).  Larger experiments are refused before anything is allocated.
MAX_COUNT_CELLS = 2**22


@dataclass(eq=False)
class CountTable:
    """Observed outcome counts from one measurement run."""

    counts: dict[OutcomeLabel, int]
    shots: int
    seed: int
    photons: int
    nodes: int
    phases: np.ndarray

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        self.phases = phase_vector(self.phases, self.nodes)
        self.counts = dict(self.counts)
        expected = set(outcome_labels(self.nodes))
        if set(self.counts) != expected:
            raise ValidationError(
                f"count table must cover exactly the {4 * self.nodes} canonical outcomes"
            )
        total = 0
        for label, value in self.counts.items():
            if value < 0:
                raise ValidationError(f"count for {label} is negative")
            total += value
        if total != self.shots:
            raise ValidationError(
                f"counts sum to {total}, expected shots = {self.shots}"
            )

    def to_json_dict(self) -> dict:
        return {
            "N": int(self.photons),
            "d": int(self.nodes),
            "phases": [float(x) for x in self.phases],
            "shots": int(self.shots),
            "seed": int(self.seed),
            "counts": [
                {"pair": label.pair, "pattern": label.pattern, "count": int(self.counts[label])}
                for label in outcome_labels(self.nodes)
            ],
        }


@dataclass(eq=False)
class EstimationResult:
    """Converged maximum-likelihood estimate in the reduced chart."""

    theta: np.ndarray
    labels: tuple[str, ...]
    log_likelihood: float
    converged: bool
    iterations: int


def _draw(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts over the 4*d outcomes in canonical label order."""
    return np.random.default_rng(seed).multinomial(shots, probabilities / probabilities.sum())


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountTable:
    """Multinomial draw over the 4*d outcomes; a pure function of (dist, shots, seed)."""
    if not isinstance(shots, (int, np.integer)) or isinstance(shots, bool) or shots < 1:
        raise ValidationError(f"shot count must be a positive integer, got {shots!r}")
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    draws = _draw(dist.as_array(), int(shots), seed)
    counts = {label: int(c) for label, c in zip(outcome_labels(dist.nodes), draws)}
    return CountTable(
        counts, int(shots), seed, dist.photons, dist.nodes, dist.phases.copy()
    )


def _build_fit_geometry(nodes: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Read-only pair-sum gradients, Newton-step lift and labels of the reduced chart."""
    rep = build_mc(nodes)
    jac = rep.inverse[:, 1:]
    pair_grads = _read_only_copy(jac + np.roll(jac, -1, axis=0))
    alternating = (-1.0) ** np.arange(nodes)
    # Maps pair-sum steps y (with sum_j (-1)^j y_j = 0) to theta steps:
    # phi_k = sum_{i<k} (-1)^(k-1-i) y_i has those pair sums, and the
    # alternating direction it leaves undetermined is theta_0, which
    # forward[1:] drops.
    lift = _read_only_copy(np.triu(-np.outer(alternating, alternating), 1) @ rep.forward[1:].T)
    return pair_grads, lift, tuple(rep.labels[i] for i in rep.kept_indices)


_fit_geometry = _ring_memo(_build_fit_geometry)


class _PairLikelihood:
    """Per-event negative log likelihood of many count tables, one per row.

    ``agree`` and ``disagree`` hold the per-pair (++ plus --) and (+- plus -+)
    totals, shape (R, d).  Rows are evaluated independently; every method
    takes the row indices it works on.  The objective is the average per
    detection event, not the raw sum: dividing by the total weight keeps the
    same maximizer while making the tolerances independent of the number of
    shots.
    """

    def __init__(self, photons: int, nodes: int, agree, disagree):
        self.pair_grads, self.lift, self.labels = _fit_geometry(nodes)
        self.alternating = (-1.0) ** np.arange(nodes)
        self.half = photons / 2.0
        self.scale = 4.0 * nodes
        self.agree = agree
        self.disagree = disagree
        self.total = agree.sum(axis=1) + disagree.sum(axis=1)
        # A pair without events has zero curvature; one such pair is absorbed
        # by the alternating-sum correction, two or more leave the maximum
        # non-unique.
        self.empty = agree + disagree == 0
        self.has_empty = self.empty.any(axis=1)

    def evaluate(self, theta, rows):
        """Objective, theta-gradient, pair-sum gradient and pair curvature of ``rows``."""
        arg = self.half * (theta @ self.pair_grads.T)
        c = np.cos(arg)
        agree = self.agree[rows]
        disagree = self.disagree[rows]
        total = self.total[rows, None]
        log_agree = np.log(np.maximum((1.0 + c) / self.scale, 1e-300))
        log_disagree = np.log(np.maximum((1.0 - c) / self.scale, 1e-300))
        value = -np.sum(agree * log_agree + disagree * log_disagree, axis=1) / total[:, 0]
        ratio_agree = agree / np.maximum(1.0 + c, 1e-15)
        ratio_disagree = disagree / np.maximum(1.0 - c, 1e-15)
        pair_grad = self.half * np.sin(arg) * (ratio_agree - ratio_disagree) / total
        curvature = self.half**2 * (ratio_agree + ratio_disagree) / total
        return value, pair_grad @ self.pair_grads, pair_grad, curvature

    def newton_step(self, pair_grad, curvature, rows):
        """Theta step minimizing the quadratic model on the range of G."""
        alt = self.alternating
        inverse_curvature = np.divide(
            1.0, curvature, out=np.zeros_like(curvature), where=curvature > 0
        )
        step = -inverse_curvature * pair_grad
        toward = np.where(
            self.has_empty[rows, None], self.empty[rows] * alt, inverse_curvature * alt
        )
        step -= ((step @ alt) / (toward @ alt))[:, None] * toward
        return step @ self.lift


def _count_rows(counts, photons, nodes) -> tuple[np.ndarray, int, int, bool]:
    """Counts as an (R, 4d) float array in canonical label order."""
    if isinstance(counts, CountTable):
        photons, nodes, counts = counts.photons, counts.nodes, counts.counts
    elif not isinstance(counts, (Mapping, np.ndarray)):
        raise ValidationError(f"unsupported counts object: {type(counts).__name__}")
    elif photons is None or nodes is None:
        raise ValidationError(
            "photons and nodes must be given when counts is a plain mapping or an array"
        )
    _check_counts(photons, nodes)
    batched = isinstance(counts, np.ndarray)
    if batched:
        rows = np.asarray(counts, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != 4 * nodes:
            raise ValidationError(
                f"count array must have shape (replicates, {4 * nodes}), got {rows.shape}"
            )
    else:
        get = counts.get
        rows = np.array([[get(label, 0) for label in outcome_labels(nodes)]], dtype=float)
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise ValidationError("counts must be finite and nonnegative")
    return rows, photons, nodes, batched


def mle_estimate(
    counts,
    initial_theta,
    box_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    *,
    photons: int | None = None,
    nodes: int | None = None,
    gradient_tol: float = 1e-10,
    max_iterations: int = 500,
) -> EstimationResult:
    """Maximum-likelihood estimate of the reduced chart coordinates.

    Parameters
    ----------
    counts : CountTable, mapping from OutcomeLabel to count, or array
        Observed outcome weights.  An array of shape (R, 4d) holds R count
        tables, one per row in canonical label order, which are fit together.
        Plain mappings (useful for expected-count self-consistency checks)
        and arrays require the ``photons`` and ``nodes`` keyword arguments.
    initial_theta : array-like, shape (d-1,)
        Starting point of every row; also the center of the search box.  Its
        induced pair sums must lie strictly inside the identifiable window
        |x_j| < 2*pi/N.
    box_half_width : float
        Half-width of the per-coordinate search box around the guess.

    Returns
    -------
    EstimationResult
        ``theta`` has shape (d-1,) for a single table and (R, d-1) for an
        array, ``log_likelihood`` is a float or an (R,) array to match, and
        ``iterations`` counts the Newton iterations the slowest row needed.
        Only converged fits are returned; non-convergence of any row raises
        :class:`ghzsense.errors.ConvergenceError`.

    Notes
    -----
    Newton iterations on the per-event average negative log likelihood, all
    rows at once.  Each step is clipped to the box and halved until the
    objective or the gradient max-norm falls.  Convergence is certified by
    the gradient max-norm falling below ``gradient_tol``, never by the step
    or objective decrement.  Two or more pairs without any events leave the
    likelihood flat along some direction, which also raises
    :class:`ghzsense.errors.ConvergenceError`.
    """
    weights, photons, nodes, batched = _count_rows(counts, photons, nodes)
    if not (math.isfinite(box_half_width) and box_half_width > 0):
        raise ValidationError(f"box half-width must be positive, got {box_half_width}")
    if max_iterations < 1:
        raise ValidationError("iteration cap must be at least 1")
    guess = np.asarray(initial_theta, dtype=float)
    if guess.shape != (nodes - 1,):
        raise ValidationError(
            f"initial guess must have shape ({nodes - 1},), got {guess.shape}"
        )
    per_pair = weights.reshape(weights.shape[0], nodes, 4)
    model = _PairLikelihood(
        photons,
        nodes,
        per_pair[:, :, 0] + per_pair[:, :, 1],
        per_pair[:, :, 2] + per_pair[:, :, 3],
    )
    window = 2.0 * math.pi / photons
    worst = float(np.max(np.abs(model.pair_grads @ guess)))
    if worst >= window:
        raise ValidationError(
            f"initial guess outside the identifiable box: max |phi_j + phi_j+1| = "
            f"{worst:.6g} must be < 2*pi/N = {window:.6g}"
        )
    if np.any(model.total <= 0):
        raise ValidationError("counts must have positive total weight")
    empty_pairs = model.empty.sum(axis=1)
    if np.any(empty_pairs > 1):
        row = int(np.argmax(empty_pairs > 1))
        raise ConvergenceError(
            f"count table {row} has no events on {empty_pairs[row]} of {nodes} pairs, so "
            f"the likelihood is flat along {empty_pairs[row] - 1} direction(s) and has "
            "no unique maximum"
        )

    theta = np.repeat(guess[None, :], weights.shape[0], axis=0)
    # objective, theta-gradient, pair-sum gradient and pair curvature per row
    state = model.evaluate(theta, np.arange(weights.shape[0]))
    value, grad, pair_grad, curvature = state
    stationary = np.flatnonzero(np.max(np.abs(grad), axis=1) <= gradient_tol)
    if stationary.size:
        # Stationary start (all pair sums at an extremum of the cosine, or a
        # noiseless optimum).  Nudge along the average-phase axis, toward
        # positive values by convention, so the fit has a direction.
        theta[stationary, 0] += min(box_half_width / 8.0, 0.01)
        for current, fresh in zip(state, model.evaluate(theta[stationary], stationary)):
            current[stationary] = fresh

    lower = guess - box_half_width
    upper = guess + box_half_width
    iterations = 0
    while True:
        grad_norm = np.max(np.abs(grad), axis=1)
        rows = np.flatnonzero(grad_norm > gradient_tol)
        if rows.size == 0:
            break
        if iterations == max_iterations:
            raise ConvergenceError(
                f"likelihood fit did not converge within {max_iterations} iterations: "
                f"{rows.size} of {len(theta)} rows have gradient norm up to "
                f"{float(np.max(grad_norm)):.3e} above the tolerance {gradient_tol:.3e}"
            )
        iterations += 1
        step = model.newton_step(pair_grad[rows], curvature[rows], rows)
        length = 1.0
        # the last of 40 tries is 2**-39 (about 2e-12) of the Newton step
        for _ in range(40):
            candidate = np.clip(theta[rows] + length * step, lower, upper)
            trial = model.evaluate(candidate, rows)
            accepted = (trial[0] < value[rows]) | (
                np.max(np.abs(trial[1]), axis=1) < grad_norm[rows]
            )
            done = rows[accepted]
            theta[done] = candidate[accepted]
            for current, fresh in zip(state, trial):
                current[done] = fresh[accepted]
            rows = rows[~accepted]
            step = step[~accepted]
            if rows.size == 0:
                break
            length *= 0.5
        else:
            raise ConvergenceError(
                "likelihood fit stalled with gradient norm "
                f"{float(np.max(grad_norm[rows])):.3e} above the tolerance "
                f"{gradient_tol:.3e}"
            )

    log_likelihood = -value * model.total
    if not batched:
        return EstimationResult(
            theta[0], model.labels, float(log_likelihood[0]), True, iterations
        )
    return EstimationResult(theta, model.labels, log_likelihood, True, iterations)


@dataclass(eq=False)
class SaturationReport:
    """Replicated sample-and-estimate experiment against the exact bound."""

    photons: int
    nodes: int
    phases: np.ndarray
    shots: int
    replicates: int
    seed: int
    theta_true: np.ndarray
    labels: tuple[str, ...]
    estimates: np.ndarray
    var_theta1: float
    bound: float
    ratio: float
    mean_theta1: float

    def to_json_dict(self) -> dict:
        return {
            "N": int(self.photons),
            "d": int(self.nodes),
            "phases": [float(x) for x in self.phases],
            "shots": int(self.shots),
            "replicates": int(self.replicates),
            "seed": int(self.seed),
            "theta_true": [float(x) for x in self.theta_true],
            "labels": list(self.labels),
            "estimates": [[float(x) for x in row] for row in self.estimates],
            "var_theta1": float(self.var_theta1),
            "bound": float(self.bound),
            "ratio": float(self.ratio),
            "mean_theta1": float(self.mean_theta1),
        }

    def summary_csv(self) -> str:
        header = "N,d,shots,replicates,seed,var_theta1,bound,ratio"
        row = (
            f"{self.photons},{self.nodes},{self.shots},{self.replicates},{self.seed},"
            f"{self.var_theta1:.17g},{self.bound:.17g},{self.ratio:.17g}"
        )
        return header + "\n" + row + "\n"

    def long_csv(self) -> str:
        lines = ["replicate,parameter,estimate"]
        for r in range(self.estimates.shape[0]):
            for m, label in enumerate(self.labels):
                lines.append(f"{r},{label},{self.estimates[r, m]:.17g}")
        return "\n".join(lines) + "\n"


def crb_saturation_experiment(
    photons: int,
    nodes: int,
    phases,
    shots: int,
    replicates: int,
    seed: int,
    *,
    box_half_width: float = DEFAULT_BOX_HALF_WIDTH,
) -> SaturationReport:
    """Replicate sampling + estimation and compare Var(theta_1) to its bound.

    Each replicate draws ``shots`` outcomes from the true distribution with an
    independently derived child seed; all replicates are then fit together by
    local maximum likelihood starting from the true parameters.  The
    theoretical variance bound is taken from the inverted classical Fisher
    matrix in the reduced chart and equals 1/(N^2 * shots).  The whole
    experiment is a pure function of its arguments; replicates use
    precomputed per-replicate seeds, so their estimates do not depend on
    evaluation order.  ``replicates * 4 * nodes`` may not exceed
    ``MAX_COUNT_CELLS``.
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    if replicates < 50:
        raise ValidationError(
            f"at least 50 replicates are needed for a stable variance, got {replicates}"
        )
    cells = int(replicates) * 4 * int(nodes)
    if cells > MAX_COUNT_CELLS:
        raise ValidationError(
            f"replicates * 4d = {cells} count cells exceed the cap of {MAX_COUNT_CELLS}"
        )
    if int(seed) < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {int(seed)}")
    window = 2.0 * math.pi / photons
    pair_sums = phi + np.roll(phi, -1)
    worst = float(np.max(np.abs(pair_sums)))
    if worst >= window:
        raise ValidationError(
            f"true pair sums outside the identifiable box: max |phi_j + phi_j+1| = "
            f"{worst:.6g} must be < 2*pi/N = {window:.6g}"
        )
    rep = build_mc(nodes)
    theta_true = rep.apply(phi)[1:]
    dist = outcome_distribution(photons, nodes, phi)
    reduced = pushforward_fisher(cfim(photons, nodes, phi), rep, True)
    basis = np.zeros(nodes - 1)
    basis[0] = 1.0
    bound = exact_crb(reduced, basis, shots)

    child_seeds = np.random.SeedSequence(int(seed)).generate_state(
        int(replicates), dtype=np.uint64
    )
    probabilities = dist.as_array()
    counts = np.empty((int(replicates), 4 * nodes), dtype=np.int64)
    for r, child in enumerate(child_seeds):
        counts[r] = _draw(probabilities, int(shots), int(child))
    fit = mle_estimate(
        counts, theta_true, box_half_width, photons=photons, nodes=nodes
    )
    estimates = fit.theta
    var_theta1 = float(np.var(estimates[:, 0], ddof=1))
    return SaturationReport(
        int(photons),
        int(nodes),
        phi,
        int(shots),
        int(replicates),
        int(seed),
        theta_true,
        fit.labels,
        estimates,
        var_theta1,
        float(bound),
        var_theta1 / float(bound),
        float(np.mean(estimates[:, 0])),
    )
