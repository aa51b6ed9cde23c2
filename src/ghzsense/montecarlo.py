"""Simulated measurement runs and maximum-likelihood bound-saturation checks.

Estimation happens in the cyclic-difference chart with the unidentifiable
coordinate pinned to zero.  Outcome probabilities depend on the phases only
through the pair sums x_j = phi_j + phi_{j+1}, so the log likelihood is a sum
of one-variable terms l_j(x) = a_j log(1 + cos hx) + b_j log(1 - cos hx), with
h = N/2 and a_j, b_j the agree and disagree counts of pair j.  The chart
reaches exactly the x with sum_j (-1)^j x_j = 0, the only coupling, so the
maximum solves l_j'(x_j) = lambda (-1)^j with one Lagrange multiplier per
count table (Aitchison & Silvey, Ann. Math. Statist. 29, 813, 1958): a closed
form per pair, and a one-dimensional root for lambda.  Many tables are fit at
once, one row each.

The likelihood is even under a global sign flip, so the fit is local: a pair
with b_j > 0 keeps the sign of the guess's pair sum (+ when that is zero, a
documented convention); a pair with b_j = 0 is smooth through zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bounds import _mc_spectral_bounds
from .errors import ConvergenceError, ValidationError
from .ghz_state import (  # noqa: F401
    MAX_SHOTS, _check_counts, _check_nodes, _check_seed, _check_shots, _float_array,
    phase_vector,
)
from .measurement import (
    OutcomeDistribution,
    _by_label,
    _canonical_entries,
    _float_entries,
    _label_at,
    outcome_distribution,
)
from .qfim import _read_only
from .reparam import (
    _mc_coordinates,
    _mc_pair_pullback,
    _mc_phases,
)

DEFAULT_BOX_HALF_WIDTH = 0.25
# Largest gradient max-norm of the per-event negative log likelihood that
# certifies a fit, and the step cap of one table's multiplier solve.
_GRADIENT_TOL = 1e-10
_MULTIPLIER_ITERATIONS = 100
# Largest replicates * 4d count table that crb_saturation_experiment will
# allocate (32 MiB of int64 counts; the fit's float working arrays take a few
# times that).  Larger experiments are refused before anything is allocated.
MAX_COUNT_CELLS = 2**22

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its default
# pool of four 32-bit words.  Every call of its hashmix steps a constant
# sequence that does not depend on the data, so the sequences are taken once,
# as Python ints mod 2**32: the xor constant and the multiplier of each call.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    xors, mults = [], []
    const = init
    for _ in range(calls):
        xors.append(const)
        const = const * mult & _MASK32
        mults.append(const)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


# 4 calls fill the pool and 12 mix it; 8 more give the 4 uint64 output words
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_XOR, _OUTPUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


@dataclass(eq=False, frozen=True)
class CountTable:
    """Observed outcome counts from one measurement run.

    ``array`` holds the counts as int64 in canonical label order (see
    :func:`ghzsense.measurement.outcome_labels`).  It may be given as such an
    array or as a mapping from :class:`OutcomeLabel`; every count must be a
    whole number, and like ``phases`` the counts are stored as a read-only
    copy, so a validated table never changes.  ``counts`` is a read-only
    label-keyed view of them.
    """

    array: np.ndarray
    shots: int
    seed: int
    photons: int
    nodes: int
    phases: np.ndarray

    def __post_init__(self):
        _check_counts(self.photons, self.nodes)
        object.__setattr__(self, "shots", _check_shots(self.shots))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "phases", _read_only(phase_vector(self.phases, self.nodes)))
        entries = _canonical_entries(self.array, self.nodes, "count table")
        if not np.can_cast(entries.dtype, np.int64):
            entries = _float_entries(entries, "count")
            # int64 holds every whole number of magnitude below 2**63 exactly
            whole = np.isfinite(entries) & (entries == np.trunc(entries))
            whole &= np.abs(entries) < 2.0**63
            if not whole.all():
                label = _label_at(int(np.argmax(~whole)))
                raise ValidationError(f"count for {label} must be a finite integer below 2**63")
        counts = entries.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "array", counts)
        negative = counts < 0
        if negative.any():
            raise ValidationError(f"count for {_label_at(int(np.argmax(negative)))} is negative")
        total = sum(counts.tolist())
        if total != self.shots:
            raise ValidationError(
                f"counts sum to {total}, expected shots = {self.shots}"
            )

    @cached_property
    def _counts(self) -> dict:
        return _by_label(self.array, self.nodes)

    @property
    def counts(self) -> MappingProxyType:
        return MappingProxyType(self._counts)


def _kept_labels(count: int) -> tuple[str, ...]:
    """The names theta_1..theta_count of the kept mc coordinates."""
    return tuple(f"theta_{i}" for i in range(1, count + 1))


@dataclass(eq=False)
class EstimationResult:
    """Converged maximum-likelihood estimate in the reduced chart.

    ``labels`` names the coordinates along the last axis of ``theta``.
    """

    theta: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int

    @property
    def labels(self) -> tuple[str, ...]:
        return _kept_labels(self.theta.shape[-1])


def _normalized(dist: OutcomeDistribution) -> np.ndarray:
    """The outcome probabilities of ``dist`` divided by their sum, as the draws use them."""
    return dist.array / dist.array.sum()


def _hashmix(words, xors, mults):
    words = (words ^ xors) * mults
    return words ^ (words >> _XSHIFT)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row r is ``SeedSequence(int(seeds[r])).generate_state(4, np.uint64)``.

    ``seeds`` is a uint64 array; all of it is hashed at once in uint32 array
    arithmetic.  A seed becomes the words [lo32, hi32, 0, 0]: the pool pads
    a shorter entropy with zeros, so a seed below 2**32 hashes the same.
    """
    pool = np.zeros((len(seeds), 4), dtype=np.uint32)
    pool[:, 0] = seeds & _MASK32
    pool[:, 1] = seeds >> 32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for source in range(4):
        # the source word is hashed once per other word, and stays fixed meanwhile
        calls = slice(4 + 3 * source, 7 + 3 * source)
        hashed = _hashmix(pool[:, source, None], _POOL_XOR[calls], _POOL_MULT[calls])
        others = [i for i in range(4) if i != source]
        mixed = pool[:, others] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[:, others] = mixed ^ (mixed >> _XSHIFT)
    state = _hashmix(np.tile(pool, 2), _OUTPUT_XOR, _OUTPUT_MULT).astype(np.uint64)
    # uint64 word k is 32-bit words 2k (low) and 2k + 1 (high), on every byte order
    return state[:, 0::2] | (state[:, 1::2] << 32)


@cache
def _hashed_seed_type():
    """A seed sequence that hands its four uint64 words to a bit generator as they are.

    The class is made on first use, so that importing ghzsense does not
    import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for the 4 uint64 words that _seed_words made
            return self.words

    return HashedSeed


def _draw(probabilities: np.ndarray, shots: int, seed: int | np.ndarray) -> np.ndarray:
    """Multinomial counts over the 4*d outcomes, from probabilities that sum to 1.

    ``seed`` is an int, or the row of :func:`_seed_words` for one: both draw
    what ``np.random.default_rng(int_seed)`` draws.
    """
    if isinstance(seed, np.ndarray):
        seed = _hashed_seed_type()(seed)
    return np.random.default_rng(seed).multinomial(shots, probabilities)


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountTable:
    """Multinomial draw over the 4*d outcomes; a pure function of (dist, shots, seed).

    ``dist`` must be an :class:`~ghzsense.measurement.OutcomeDistribution`,
    and ``shots`` may not exceed ``MAX_SHOTS``.
    """
    if not isinstance(dist, OutcomeDistribution):
        raise ValidationError(
            f"dist must be an OutcomeDistribution, got {type(dist).__name__}"
        )
    shots = _check_shots(shots)
    seed = _check_seed(seed)
    draws = _draw(_normalized(dist), shots, seed)
    return CountTable(draws, shots, seed, dist.photons, dist.nodes, dist.phases)


def _count_rows(counts, photons, nodes) -> tuple[np.ndarray, int, int, bool]:
    """Counts as an (R, 4d) float array in canonical label order."""
    if isinstance(counts, CountTable):
        return counts.array[None, :].astype(float), counts.photons, counts.nodes, False
    elif not isinstance(counts, (Mapping, np.ndarray)):
        raise ValidationError(f"unsupported counts object: {type(counts).__name__}")
    elif photons is None or nodes is None:
        raise ValidationError(
            "photons and nodes must be given when counts is a plain mapping or an array"
        )
    _check_counts(photons, nodes)
    batched = isinstance(counts, np.ndarray)
    if not batched:
        counts = _canonical_entries(counts, nodes, "count table")[None, :]
    rows = _float_array(counts, "count array", (None, 4 * nodes))
    if rows.shape[0] < 1:
        raise ValidationError("count array must have at least one row")
    if np.any(rows < 0):
        raise ValidationError("counts must be nonnegative")
    return rows, photons, nodes, batched


def _pair_maxima(agree, disagree, branch, half):
    """Pair sums maximizing l_j(x) - multiplier (-1)^j x, as a function of the multipliers.

    The returned function maps each row's multiplier to the pair sums and
    -(-1)^j dx_j/dmultiplier; sqrt(a_j b_j), the masks and the signs are
    formed once here.  With u = hx/2, s_j the branch if b_j > 0 and + if
    b_j = 0, and mu = multiplier (-1)^j s_j / h, t = tan(s_j u) is: if
    b_j > 0, the positive root of a_j t^2 + mu t - b_j = 0 in its
    cancellation-free form; if b_j = 0, -mu / a_j.  The pair sum is
    2 s_j arctan(t) / h, and its derivative 1/|l_j''| =
    2 / (h^2 (a_j (1 + t^2) + b_j (1 + 1/t^2))), except for an empty pair
    and a pair held on the window edge (a_j = 0 and mu < 0): 0.
    """
    sign = np.where(disagree > 0, branch, 1.0)
    scale = (-1.0) ** np.arange(agree.shape[1]) * sign / half
    to_pair_sum = 2.0 * sign / half
    geometric = 2.0 * np.sqrt(agree * disagree)
    twice_disagree = 2.0 * disagree
    no_agree = agree == 0
    no_disagree = disagree == 0
    empty = no_agree & no_disagree
    with np.errstate(divide="ignore"):
        half_inverse_agree = 0.5 / agree
    smooth_slope = np.where(no_disagree & ~no_agree, -2.0 * half_inverse_agree, 0.0)
    flex_scale = 2.0 / half**2

    def pair_sums(multiplier):
        mu = multiplier[:, None] * scale
        root = np.hypot(mu, geometric)
        rising = mu >= 0.0
        # a pair without agree events and mu <= 0 has t = inf (u on the window
        # edge); the branches and terms that np.where discards may be 0/0 or 0*inf
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(rising, twice_disagree / (mu + root), (root - mu) * half_inverse_agree)
            t = np.where(no_disagree, mu * smooth_slope, t)
            t2 = t * t
            curvature = np.where(no_agree, 0.0, agree * (1.0 + t2))
            curvature += np.where(no_disagree, 0.0, disagree * (1.0 + 1.0 / t2))
            flex = np.where(empty | (no_agree & ~rising), 0.0, flex_scale / curvature)
        return to_pair_sum * np.arctan(t), flex

    return pair_sums


def _fit_pair_sums(agree, disagree, branch, half) -> tuple[np.ndarray, int]:
    """Constrained maximum of every row's pair sums, and the slowest row's step count.

    g(lambda) = sum_j (-1)^j x_j(lambda) falls strictly (g' = -sum_j 1/|l_j''|).
    Newton steps on g keep a bracket: a step at most doubles the last while a
    side is open, and bisection replaces one that leaves it.  A row with one
    empty pair has lambda = 0, and that pair takes the ring residual.
    """
    alternating = (-1.0) ** np.arange(agree.shape[1])
    empty = agree + disagree == 0
    stuck = empty.any(axis=1)
    multiplier = np.zeros(agree.shape[0])
    lower = np.full_like(multiplier, -np.inf)
    upper = np.full_like(multiplier, np.inf)
    last_step = np.full_like(multiplier, np.inf)
    rounding = 4.0 * np.finfo(float).eps
    maxima = _pair_maxima(agree, disagree, branch, half)
    for iterations in range(_MULTIPLIER_ITERATIONS + 1):
        pair_sums, flex = maxima(multiplier)
        residual = pair_sums @ alternating
        step = residual / flex.sum(axis=1)
        moving = ~(
            stuck
            | (np.abs(residual) <= rounding * np.abs(pair_sums).sum(axis=1))
            | (np.abs(step) <= rounding * np.abs(multiplier))
        )
        if not moving.any():
            return pair_sums - empty * alternating * residual[:, None], iterations
        lower = np.where(residual >= 0, multiplier, lower)
        upper = np.where(residual < 0, multiplier, upper)
        one_sided = np.isinf(lower) | np.isinf(upper)
        bound = 2.0 * last_step
        step = np.where(one_sided, np.minimum(np.maximum(step, -bound), bound), step)
        target = multiplier + step
        target = np.where((target > lower) & (target < upper), target, 0.5 * (lower + upper))
        last_step = np.abs(target - multiplier)
        multiplier = np.where(moving, target, multiplier)
    raise ConvergenceError(
        f"multiplier solve did not converge within {_MULTIPLIER_ITERATIONS} iterations: "
        f"{int(moving.sum())} of {len(moving)} rows have ring residual up to "
        f"{float(np.max(np.abs(residual[moving]))):.3e}"
    )


def _ring_pair_sums(phases: np.ndarray) -> np.ndarray:
    """x_j = phi_j + phi_{j+1} of every row, the last pair closing the ring."""
    return phases + np.concatenate((phases[:, 1:], phases[:, :1]), axis=1)


def _check_window(pair_sums, photons: int, what: str) -> float:
    """Refuse pair sums outside the identifiable window |x_j| < 2*pi/N; returns the window."""
    window = 2.0 * math.pi / photons
    worst = float(np.max(np.abs(pair_sums)))
    if worst >= window:
        raise ValidationError(
            f"{what} outside the identifiable box: max |phi_j + phi_j+1| = "
            f"{worst:.6g} must be < 2*pi/N = {window:.6g}"
        )
    return window


def mle_estimate(
    counts,
    initial_theta,
    box_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    *,
    photons: int | None = None,
    nodes: int | None = None,
) -> EstimationResult:
    """Maximum-likelihood estimate of the reduced chart coordinates.

    Parameters
    ----------
    counts : CountTable, mapping from OutcomeLabel to count, or array
        Observed outcome weights.  An array of shape (R, 4d) holds R count
        tables, one per row in canonical label order, which are fit together.
        Plain mappings (useful for expected-count self-consistency checks)
        and arrays require the ``photons`` and ``nodes`` keyword arguments;
        a mapping must have exactly the 4d canonical labels as keys, as for
        a :class:`CountTable`.
    initial_theta : array-like, shape (d-1,)
        Center of the search box, with finite entries; the signs of its pair
        sums pick each pair's branch.  They must lie strictly inside the
        window |x_j| < 2*pi/N.
    box_half_width : float
        Half-width of the per-coordinate search box around the guess.

    Returns
    -------
    EstimationResult
        ``theta`` has shape (d-1,) for a single table and (R, d-1) for an
        array, ``log_likelihood`` is a float or an (R,) array to match, and
        ``iterations`` counts the multiplier steps of the slowest row.

    Notes
    -----
    :class:`ghzsense.errors.ConvergenceError` is raised for a table without
    events on two or more pairs (no unique maximum), and for a maximum, read
    from the pair sums of the returned theta, outside the box, on or past the
    window, or with a per-event gradient max-norm above 1e-10.
    """
    weights, photons, nodes, batched = _count_rows(counts, photons, nodes)
    if (
        not isinstance(box_half_width, numbers.Real)
        or isinstance(box_half_width, bool)
        or not (math.isfinite(box_half_width) and box_half_width > 0)
    ):
        raise ValidationError(f"box half-width must be a positive number, got {box_half_width!r}")
    guess = _float_array(initial_theta, "initial guess", (nodes - 1,))
    _check_nodes(nodes, 4, even=True)
    guess_sums = _ring_pair_sums(_mc_phases(guess[None, :]))[0]
    window = _check_window(guess_sums, photons, "initial guess")
    per_pair = weights.reshape(weights.shape[0], nodes, 4)
    agree = per_pair[:, :, 0] + per_pair[:, :, 1]
    disagree = per_pair[:, :, 2] + per_pair[:, :, 3]
    total = agree.sum(axis=1) + disagree.sum(axis=1)
    if (total <= 0).any():
        raise ValidationError("counts must have positive total weight")
    empty_pairs = (agree + disagree == 0).sum(axis=1)
    if (empty_pairs > 1).any():
        row = int(np.argmax(empty_pairs > 1))
        raise ConvergenceError(
            f"count table {row} has no events on {empty_pairs[row]} of {nodes} pairs, so "
            f"the likelihood is flat along {empty_pairs[row] - 1} direction(s) and has "
            "no unique maximum"
        )

    half = photons / 2.0
    branch = np.where(guess_sums < 0, -1.0, 1.0)
    pair_sums, iterations = _fit_pair_sums(agree, disagree, branch, half)
    # phi_k = (-1)^(k-1) sum_{i<k} (-1)^i x_i has these pair sums; the
    # alternating direction it leaves free is theta_0, which the kept coordinates drop
    alternating = (-1.0) ** np.arange(nodes)
    phi = np.zeros_like(pair_sums)
    phi[:, 1:] = -alternating[1:] * np.cumsum(alternating * pair_sums, axis=1)[:, :-1]
    theta = _mc_coordinates(phi)

    fitted = _ring_pair_sums(_mc_phases(theta))
    # the solved pair sums sit exactly on the window edge when a maximum does;
    # the recomputed ones may round to either side of it
    edge = np.maximum(np.abs(pair_sums), np.abs(fitted)).max(axis=1)
    if (edge >= window).any():
        row = int(np.argmax(edge >= window))
        raise ConvergenceError(
            f"count table {row} is fit at |phi_j + phi_j+1| = {edge[row]:.6g}, "
            f"not inside the identifiable window 2*pi/N = {window:.6g}"
        )
    shift = np.abs(theta - guess).max(axis=1)
    if (shift > box_half_width).any():
        row = int(np.argmax(shift > box_half_width))
        raise ConvergenceError(
            f"count table {row} is fit {shift[row]:.6g} from the guess, outside "
            f"the search box of half-width {box_half_width:.6g}"
        )
    # with t = tan(hx/2): -l_j'(x) = h (a_j t - b_j / t), 1 + cos hx = 2 / (1 + t^2)
    # and 1 - cos hx = 2 t^2 / (1 + t^2)
    t = np.tan(half * fitted / 2.0)
    inverse_t = np.divide(1.0, t, out=np.zeros_like(t), where=disagree > 0)
    pair_grad = half * (agree * t - disagree * inverse_t)
    grad_norm = np.abs(_mc_pair_pullback(pair_grad / total[:, None])).max(axis=1)
    if not (grad_norm <= _GRADIENT_TOL).all():
        raise ConvergenceError(
            f"likelihood fit left gradient norm {float(np.max(grad_norm)):.3e} above "
            f"the tolerance {_GRADIENT_TOL:.3e}"
        )

    log_agree = np.log(0.5 / (nodes * (1.0 + t * t)))
    log_t2 = np.log(t * t, out=np.zeros_like(t), where=disagree > 0)
    log_likelihood = ((agree + disagree) * log_agree + disagree * log_t2).sum(axis=1)
    if not batched:
        return EstimationResult(theta[0], float(log_likelihood[0]), True, iterations)
    return EstimationResult(theta, log_likelihood, True, iterations)


@dataclass(eq=False)
class SaturationReport:
    """Replicated sample-and-estimate experiment against the exact bound.

    ``labels`` names the columns of ``estimates``.
    """

    photons: int
    nodes: int
    phases: np.ndarray
    shots: int
    replicates: int
    seed: int
    theta_true: np.ndarray
    estimates: np.ndarray
    var_theta1: float
    bound: float
    ratio: float
    mean_theta1: float

    @property
    def labels(self) -> tuple[str, ...]:
        return _kept_labels(self.estimates.shape[1])

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
        labels = self.labels
        for r in range(self.estimates.shape[0]):
            for m, label in enumerate(labels):
                lines.append(f"{r},{label},{self.estimates[r, m]:.17g}")
        return "\n".join(lines) + "\n"


def crb_saturation_experiment(
    photons: int,
    nodes: int,
    phases,
    shots: int,
    replicates: int,
    seed: int,
) -> SaturationReport:
    """Replicate sampling + estimation and compare Var(theta_1) to its bound.

    Each replicate draws ``shots`` outcomes from the true distribution with an
    independently derived child seed; all replicates are then fit together by
    local maximum likelihood starting from the true parameters, in a search
    box of half-width ``DEFAULT_BOX_HALF_WIDTH`` around them.  The
    theoretical variance bound is the exact classical bound on theta_1 in the
    reduced chart, read off the ring spectrum with no matrix formed
    (:func:`ghzsense.bounds._mc_spectral_bounds`), over ``shots``; it equals
    1/(N^2 * shots).  The whole experiment is a pure function of its
    arguments; replicates use precomputed per-replicate seeds, so their
    estimates do not depend on evaluation order.  The child generators are
    seeded in one pass (:func:`_seed_words` hashes every child seed at once),
    and each draws bit for bit what ``np.random.default_rng(child)`` draws,
    as the tests check.  ``replicates * 4 * nodes`` may not exceed
    ``MAX_COUNT_CELLS``, and ``shots`` may not exceed ``MAX_SHOTS``.  True
    phases outside the identifiable window, or at which an outcome has
    probability 0 (a pair sum of 0, say), are refused with ValidationError.
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    if not isinstance(replicates, (int, np.integer)) or isinstance(replicates, bool):
        raise ValidationError(f"replicates must be an integer, got {replicates!r}")
    replicates = int(replicates)
    if replicates < 50:
        raise ValidationError(
            f"at least 50 replicates are needed for a stable variance, got {replicates}"
        )
    cells = replicates * 4 * int(nodes)
    if cells > MAX_COUNT_CELLS:
        raise ValidationError(
            f"replicates * 4d = {cells} count cells exceed the cap of {MAX_COUNT_CELLS}"
        )
    seed = _check_seed(seed)
    shots = _check_shots(shots)
    _check_window(phi + np.roll(phi, -1), photons, "true pair sums")
    _check_nodes(nodes, 4, even=True)
    theta_true = _mc_coordinates(phi[None, :])[0]
    dist = outcome_distribution(photons, nodes, phi)
    impossible = dist.array == 0.0
    if impossible.any():
        label = _label_at(int(np.argmax(impossible)))
        raise ValidationError(
            f"true probability of {label} is 0: no replicate can observe it, so "
            "the fit of its pair does not vary and the variance ratio is meaningless"
        )
    _, classical = _mc_spectral_bounds(photons, nodes, np.eye(1, nodes - 1)[0])
    bound = classical / shots

    child_seeds = np.random.SeedSequence(seed).generate_state(
        replicates, dtype=np.uint64
    )
    probabilities = _normalized(dist)
    counts = np.empty((replicates, 4 * nodes), dtype=np.int64)
    for r, words in enumerate(_seed_words(child_seeds)):
        counts[r] = _draw(probabilities, shots, words)
    fit = mle_estimate(
        counts, theta_true, DEFAULT_BOX_HALF_WIDTH, photons=photons, nodes=nodes
    )
    estimates = fit.theta
    var_theta1 = float(np.var(estimates[:, 0], ddof=1))
    return SaturationReport(
        int(photons),
        int(nodes),
        phi,
        shots,
        replicates,
        seed,
        theta_true,
        estimates,
        var_theta1,
        bound,
        var_theta1 / bound,
        float(np.mean(estimates[:, 0])),
    )
