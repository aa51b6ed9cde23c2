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
once, one row each.  The work that does not change between multiplier steps
(sqrt(a_j b_j), each column's scale, the indices of the pairs without agree
or without disagree events) is done once per fit; each step evaluates one
closed form over the whole array into reused buffers and writes those masked
pairs over it by index, and the step at multiplier 0 is exact without hypot.

The likelihood is even under a global sign flip, so the fit is local: a pair
with b_j > 0 keeps the sign of the guess's pair sum (+ when that is zero, a
documented convention); a pair with b_j = 0 is smooth through zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bounds import _average_phase_bound
from .errors import ConvergenceError, ValidationError
from .ghz_state import (  # noqa: F401
    MAX_SHOTS, _check_counts, _check_int, _check_nodes, _check_seed, _check_shape,
    _check_shots, _float_array, _pair_sums, _pair_sum_phases, phase_vector,
)
from .measurement import (
    CountTable, OutcomeDistribution, _label_at, _pair_totals, _refuse_booleans,
    outcome_distribution,
)
from .reparam import _mc_coordinates, _mc_labels, _mc_pair_pullback, _mc_phases

# Half-width of the per-coordinate search box around the fit's guess.
_BOX_HALF_WIDTH = 0.25
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


@dataclass(eq=False)
class EstimationResult:
    """Converged maximum-likelihood estimate in the reduced chart.

    ``labels`` names the coordinates along the last axis of ``theta``.
    """

    theta: np.ndarray
    iterations: int

    @property
    def labels(self) -> tuple[str, ...]:
        return _mc_labels(self.theta.shape[-1] + 1)[1:]


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
            # PCG64 asks for the 4 uint64 words it was made with
            return self.words

    return HashedSeed


def _draw(probabilities: np.ndarray, shots: int, words: np.ndarray) -> np.ndarray:
    """Multinomial counts over the 4*d outcomes, from probabilities that sum to 1.

    ``words`` are the four uint64 seed words of an int seed,
    ``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` or its row
    of :func:`_seed_words`, which are the words ``np.random.default_rng(seed)``
    derives itself; so the draw is what that generator draws.
    """
    return np.random.default_rng(_hashed_seed_type()(words)).multinomial(shots, probabilities)


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
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    draws = _draw(_normalized(dist), shots, words)
    return CountTable(draws, dist.photons, dist.nodes)


def _count_pairs(counts, photons, nodes) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Each pair's agree and disagree totals, (R, d) floats each, with their N and d.

    The counts are an (R, 4d) array in canonical label order.  An integer or
    real array is read where it lies, with no float copy of the table; any
    other is read by :func:`_float_array`.
    """
    if isinstance(counts, CountTable):
        for name, given, own in (
            ("photons", photons, counts.photons), ("nodes", nodes, counts.nodes)
        ):
            if given is not None and given != own:
                raise ValidationError(
                    f"{name}={given!r} contradicts the count table's {name} = {own}"
                )
        return *_pair_totals(counts.array[None, :]), counts.photons, counts.nodes
    elif not isinstance(counts, np.ndarray):
        raise ValidationError(f"unsupported counts object: {type(counts).__name__}")
    elif photons is None or nodes is None:
        raise ValidationError("photons and nodes must be given when counts is an array")
    _check_counts(photons, nodes)
    _refuse_booleans(counts, "count array")
    shape = (None, 4 * nodes)
    rows = np.asarray(counts)  # a view: a subclass is read as a plain array
    if rows.dtype.kind in "iuf":
        _check_shape(rows, "count array", shape)
    else:
        rows = _float_array(rows, "count array", shape)
    if rows.shape[0] < 1:
        raise ValidationError("count array must have at least one row")
    # two reductions, through which NaN propagates, and no (R, 4d) mask
    low, high = float(rows.min()), float(rows.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValidationError("count array entries must be finite")
    if low < 0:
        raise ValidationError("counts must be nonnegative")
    return *_pair_totals(rows), photons, nodes


def _pair_maxima(agree, disagree, empty, branch, half):
    """Pair sums maximizing l_j(x) - multiplier (-1)^j x, as a function of the multipliers.

    The returned function maps each row's multiplier to the pair sums and
    -(-1)^j dx_j/dmultiplier, the latter in a buffer that its next call
    overwrites.  With u = hx/2, s_j the branch and
    mu = multiplier (-1)^j s_j / h, t = tan(s_j u) is: if b_j > 0, the
    positive root of a_j t^2 + mu t - b_j = 0 in its cancellation-free form;
    if b_j = 0, -mu / a_j.  The pair sum is 2 s_j arctan(t) / h, and its
    derivative 1/|l_j''| = 2 / (h^2 (a_j (1 + t^2) + b_j (1 + 1/t^2))),
    except for an empty pair (``empty`` marks them) and a pair held on the
    window edge (a_j = 0 and mu < 0): 0.  At b_j = 0, t is odd in s_j, and
    so is arctan, bit for bit, so the pair sum does not depend on the
    branch there: such a pair is smooth through zero.

    What does not depend on the multipliers is found once here: sqrt(a_j b_j),
    the scales of the columns, and the flat indices of the masked entries,
    pairs without disagree events ("bare") or with disagree events only
    ("barren").  Each call forms the closed form of a pair with both kinds
    on the whole array, then writes the masked entries over it by index; a
    table without them has empty index sets, and those writes do nothing.
    The closed form of a bare pair's t, and the part of a masked pair's
    curvature that its missing kind's count multiplies, may be 0/0 or 0*inf
    before they are written over.  At multiplier 0, hypot(+-0, g) = g and
    +-0 + g = g, so t = 2 b_j / g_j exactly, with no hypot and no branch.
    """
    nodes = agree.shape[1]
    scale = (-1.0) ** np.arange(nodes) * branch / half
    to_pair_sum = 2.0 * branch / half
    geometric = np.multiply(agree, disagree)
    np.sqrt(geometric, out=geometric)
    geometric *= 2.0
    twice_disagree = 2.0 * disagree
    with np.errstate(divide="ignore"):
        half_inverse_agree = 0.5 / agree
    flex_scale = 2.0 / half**2
    bare_mask = disagree == 0
    bare = bare_mask.ravel().nonzero()[0]
    barren = ((agree == 0) > bare_mask).ravel().nonzero()[0]
    void = empty.ravel().nonzero()[0]
    bare_rows, bare_columns = np.divmod(bare, nodes)
    barren_rows, barren_columns = np.divmod(barren, nodes)
    bare_scale, barren_scale = scale[bare_columns], scale[barren_columns]
    # -1/a_j written -2 (0.5/a_j), as the closed form has it; 0 for an empty pair
    bare_slope = np.where(empty.take(bare), 0.0, -2.0 * half_inverse_agree.take(bare))
    mu, root, flex = (np.empty_like(agree) for _ in range(3))

    def pair_sums(multiplier):
        with np.errstate(divide="ignore", invalid="ignore"):
            if np.count_nonzero(multiplier):
                np.multiply(multiplier[:, None], scale, out=mu)
                np.hypot(mu, geometric, out=root)
                rising = mu >= 0.0
                np.add(mu, root, out=flex)
                np.subtract(root, mu, out=root)
                np.multiply(root, half_inverse_agree, out=root)
                # a barren pair with mu < 0 has t = inf: u on the window edge
                t = np.where(rising, np.divide(twice_disagree, flex, out=flex), root)
            else:
                t = twice_disagree / geometric
            t.put(bare, multiplier[bare_rows] * bare_scale * bare_slope)
            t2 = np.multiply(t, t, out=root)
            curvature = np.add(t2, 1.0, out=mu)
            curvature *= agree
            np.divide(1.0, t2, out=t2)
            t2 += 1.0
            t2 *= disagree
            # a masked pair's curvature is the part of its present kind alone
            bare_flex = flex_scale / curvature.take(bare)
            barren_mu = multiplier[barren_rows] * barren_scale
            barren_flex = np.where(barren_mu >= 0.0, flex_scale / t2.take(barren), 0.0)
            curvature += t2
            np.divide(flex_scale, curvature, out=flex)
            flex.put(bare, bare_flex)
            flex.put(void, 0.0)
            flex.put(barren, barren_flex)
        return np.multiply(to_pair_sum, np.arctan(t, out=root), out=t), flex

    return pair_sums


def _fit_pair_sums(agree, disagree, empty, branch, half) -> tuple[np.ndarray, int]:
    """Constrained maximum of every row's pair sums, and the slowest row's step count.

    g(lambda) = sum_j (-1)^j x_j(lambda) falls strictly (g' = -sum_j 1/|l_j''|).
    Newton steps on g keep a bracket: a step at most doubles the last while a
    side is open, and bisection replaces one that leaves it; the first step,
    with both sides open and no last step, is taken as it is.  A row with
    one empty pair (``empty`` marks them) has lambda = 0, and that pair takes
    the ring residual.
    """
    alternating = (-1.0) ** np.arange(agree.shape[1])
    stuck = empty.any(axis=1)
    multiplier = np.zeros(agree.shape[0])
    lower = np.full_like(multiplier, -np.inf)
    upper = np.full_like(multiplier, np.inf)
    rounding = 4.0 * np.finfo(float).eps
    maxima = _pair_maxima(agree, disagree, empty, branch, half)
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
        if iterations:
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
    *,
    photons: int | None = None,
    nodes: int | None = None,
) -> EstimationResult:
    """Maximum-likelihood estimate of the reduced chart coordinates.

    Parameters
    ----------
    counts : CountTable or array
        Observed outcome weights.  An array of shape (R, 4d) holds R count
        tables, one per row in canonical label order, which are fit together;
        it requires the ``photons`` and ``nodes`` keyword arguments.  A table
        carries its own geometry; ``photons`` or ``nodes`` given with one
        must equal it.  Label-keyed counts are read by
        ``CountTable(mapping, photons, nodes)``.
    initial_theta : array-like, shape (d-1,)
        Center of the search box, of half-width ``_BOX_HALF_WIDTH`` per
        coordinate, with finite entries; the signs of its pair sums pick each
        pair's branch.  They must lie strictly inside the window
        |x_j| < 2*pi/N.

    Returns
    -------
    EstimationResult
        ``theta`` has shape (d-1,) for a single table and (R, d-1) for an
        array, and ``iterations`` counts the multiplier steps of the slowest
        row.

    Notes
    -----
    :class:`ghzsense.errors.ConvergenceError` is raised for a table without
    events on two or more pairs (no unique maximum), and for a maximum, read
    from the pair sums of the returned theta, outside the box, on or past the
    window, or with a per-event gradient max-norm above 1e-10.
    """
    agree, disagree, photons, nodes = _count_pairs(counts, photons, nodes)
    guess = _float_array(initial_theta, "initial guess", (nodes - 1,))
    _check_nodes(nodes, 4, even=True)
    guess_sums = _pair_sums(_mc_phases(guess[None, :]))[0]
    window = _check_window(guess_sums, photons, "initial guess")
    total = agree.sum(axis=1) + disagree.sum(axis=1)
    if (total <= 0).any():
        raise ValidationError("counts must have positive total weight")
    empty = agree + disagree == 0
    empty_pairs = empty.sum(axis=1)
    if (empty_pairs > 1).any():
        row = int(np.argmax(empty_pairs > 1))
        raise ConvergenceError(
            f"count table {row} has no events on {empty_pairs[row]} of {nodes} pairs, so "
            f"the likelihood is flat along {empty_pairs[row] - 1} direction(s) and has "
            "no unique maximum"
        )

    half = photons / 2.0
    branch = np.where(guess_sums < 0, -1.0, 1.0)
    pair_sums, iterations = _fit_pair_sums(agree, disagree, empty, branch, half)
    # the alternating direction the phases leave free is theta_0, which the
    # kept coordinates drop
    theta = _mc_coordinates(_pair_sum_phases(pair_sums))

    fitted = _pair_sums(_mc_phases(theta))
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
    if (shift > _BOX_HALF_WIDTH).any():
        row = int(np.argmax(shift > _BOX_HALF_WIDTH))
        raise ConvergenceError(
            f"count table {row} is fit {shift[row]:.6g} from the guess, outside "
            f"the search box of half-width {_BOX_HALF_WIDTH:.6g}"
        )
    # with t = tan(hx/2): -l_j'(x) = h (a_j t - b_j / t)
    t = np.tan(half * fitted / 2.0)
    inverse_t = np.divide(1.0, t, out=np.zeros_like(t), where=disagree > 0)
    pair_grad = half * (agree * t - disagree * inverse_t)
    grad_norm = np.abs(_mc_pair_pullback(pair_grad / total[:, None])).max(axis=1)
    if not (grad_norm <= _GRADIENT_TOL).all():
        raise ConvergenceError(
            f"likelihood fit left gradient norm {float(np.max(grad_norm)):.3e} above "
            f"the tolerance {_GRADIENT_TOL:.3e}"
        )
    if isinstance(counts, CountTable):
        return EstimationResult(theta[0], iterations)
    return EstimationResult(theta, iterations)


@dataclass(eq=False)
class SaturationReport:
    """Replicated sample-and-estimate experiment against the exact bound.

    It holds the experiment's inputs and the fitted ``estimates`` (one row
    per replicate); every other value is read off them.  ``bound`` is the
    exact classical bound on theta_1 over ``shots``, 1/(N^2 * shots), and
    ``labels`` names the columns of ``estimates``.
    """

    photons: int
    phases: np.ndarray
    shots: int
    seed: int
    estimates: np.ndarray

    @property
    def bound(self) -> float:
        return _average_phase_bound(self.photons) / self.shots

    @property
    def nodes(self) -> int:
        return self.phases.shape[0]

    @property
    def replicates(self) -> int:
        return self.estimates.shape[0]

    @property
    def theta_true(self) -> np.ndarray:
        return _mc_coordinates(self.phases[None, :])[0]

    @property
    def var_theta1(self) -> float:
        return float(np.var(self.estimates[:, 0], ddof=1))

    @property
    def mean_theta1(self) -> float:
        return float(np.mean(self.estimates[:, 0]))

    @property
    def ratio(self) -> float:
        return self.var_theta1 / self.bound

    @property
    def labels(self) -> tuple[str, ...]:
        return _mc_labels(self.nodes)[1:]

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
    local maximum likelihood starting from the true parameters, in the
    search box of half-width ``_BOX_HALF_WIDTH`` around them.  The
    theoretical variance bound, the report's ``bound``, is the exact
    classical bound on theta_1 in the reduced chart, 1/N^2 with no matrix
    formed (:func:`ghzsense.bounds._average_phase_bound`), over ``shots``.
    The whole experiment is a pure function of its arguments; replicates
    use precomputed per-replicate seeds, so their estimates do not depend
    on evaluation order.  The child generators are
    seeded in one pass (:func:`_seed_words` hashes every child seed at once),
    and each draws bit for bit what ``np.random.default_rng(child)`` draws,
    as the tests check; the calling thread draws the replicates one row at a
    time into one count table.
    ``replicates * 4 * nodes`` may not exceed ``MAX_COUNT_CELLS``, and
    ``shots`` may not exceed ``MAX_SHOTS``.  True phases outside the
    identifiable window, or at which an outcome has probability 0 (a pair sum
    of 0, say), are refused with ValidationError, and so is an experiment
    whose replicates all fit the same theta_1.
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    replicates = _check_int(replicates, "replicates", 50)
    cells = replicates * 4 * int(nodes)
    if cells > MAX_COUNT_CELLS:
        raise ValidationError(
            f"replicates * 4d = {cells} count cells exceed the cap of {MAX_COUNT_CELLS}"
        )
    seed = _check_seed(seed)
    shots = _check_shots(shots)
    _check_window(_pair_sums(phi), photons, "true pair sums")
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

    child_seeds = np.random.SeedSequence(seed).generate_state(
        replicates, dtype=np.uint64
    )
    probabilities = _normalized(dist)
    counts = np.empty((replicates, probabilities.size), dtype=np.int64)
    for row, words in zip(counts, _seed_words(child_seeds)):
        row[:] = _draw(probabilities, shots, words)
    fit = mle_estimate(counts, theta_true, photons=photons, nodes=nodes)
    theta1 = fit.theta[:, 0]
    if (theta1 == theta1[0]).all():
        raise ValidationError(
            f"every replicate fits theta_1 = {theta1[0]:.17g}: the draws do not move "
            "the fit, so Var(theta_1) = 0 and the variance ratio is meaningless"
        )
    return SaturationReport(int(photons), phi, shots, seed, fit.theta)
