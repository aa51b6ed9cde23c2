import dataclasses
import hashlib
import inspect
import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzsense import montecarlo, reparam
from ghzsense.errors import ConvergenceError, ValidationError
from ghzsense.measurement import OutcomeLabel, outcome_distribution, outcome_labels
from ghzsense.montecarlo import (
    CountTable,
    crb_saturation_experiment,
    mle_estimate,
    sample_counts,
)
from ghzsense.reparam import build_mc

PHI = np.full(4, 0.1)
LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvalsh", "inv", "lstsq", "matrix_rank",
    "pinv", "qr", "slogdet", "solve", "svd",
)


def expected_counts(photons, nodes, phases, shots):
    """One row of expected, fractional, counts in canonical label order."""
    return outcome_distribution(photons, nodes, phases).as_array()[None, :] * shots


def by_label(row):
    """A count row as a mapping from each outcome label to its count."""
    return dict(zip(outcome_labels(row.size), row.tolist()))


def test_sampling_is_deterministic_and_conserves_shots():
    dist = outcome_distribution(2, 4, PHI)
    first = sample_counts(dist, 1000, 7)
    second = sample_counts(dist, 1000, 7)
    assert first.counts == second.counts
    assert sum(first.counts.values()) == 1000
    different = sample_counts(dist, 1000, 8)
    assert different.counts != first.counts


def test_sampled_frequencies_converge_to_the_distribution():
    # with 1e6 draws every empirical frequency sits within 5 standard errors
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 10**6, 3)
    for label, p in zip(outcome_labels(4), dist.as_array()):
        freq = table.counts[label] / table.shots
        se = np.sqrt(p * (1.0 - p) / table.shots)
        assert abs(freq - p) <= 5.0 * se


def test_count_table_requires_full_coverage():
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 100, 1)
    partial = dict(table.counts)
    del partial[OutcomeLabel(1, "++")]
    with pytest.raises(ValidationError):
        CountTable(partial, 2, 4)


def test_validated_count_table_cannot_be_edited():
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 1000, 7)
    with pytest.raises(TypeError):
        table.counts[OutcomeLabel(1, "++")] += 500
    with pytest.raises(ValueError):
        table.array[0] += 500
    assert sum(table.counts.values()) == table.shots == 1000
    # the table keeps its own copy of the counts it was built from
    draws = table.array.copy()
    copied = CountTable(draws, 2, 4)
    draws[0] += 500
    assert sum(copied.counts.values()) == 1000


def test_count_table_refuses_fractional_counts():
    labels = outcome_labels(4)
    counts = dict.fromkeys(labels, 0)
    counts[labels[0]], counts[labels[1]] = 50.5, 49.5
    rows = np.array([counts[label] for label in labels])
    for bad in (counts, rows):
        with pytest.raises(ValidationError, match="must be a finite integer"):
            CountTable(bad, 2, 4)
    for value in (np.nan, np.inf, 2.0**63):
        rows = np.zeros(16)
        rows[3] = value
        with pytest.raises(ValidationError, match="must be a finite integer"):
            CountTable(rows, 2, 4)
    # whole numbers held as floats are counts
    counts[labels[0]], counts[labels[1]] = 50.0, 50.0
    assert CountTable(counts, 2, 4).counts[labels[0]] == 50


def test_count_table_refuses_boolean_counts():
    # True is no count of one, as it is no shot count of one
    for bad in (np.ones(16, dtype=bool), dict.fromkeys(outcome_labels(4), True)):
        with pytest.raises(
            ValidationError, match="^count table entries must be whole numbers, not booleans$"
        ):
            CountTable(bad, 2, 4)


def booleans_among_counts():
    """Count inputs with booleans that numpy reads as the numbers 0 and 1."""
    mixed = [True] * 15 + [3]
    return {
        # numpy reads the values of each as an int64 array
        "mapping": dict(zip(outcome_labels(4), mixed)),
        "list": mixed,
        # float() reads True as 1.0
        "object-array": np.array([True] * 15 + [2], dtype=object),
    }


@pytest.mark.parametrize("form", list(booleans_among_counts()))
def test_count_table_refuses_booleans_mixed_with_numbers(form):
    with pytest.raises(
        ValidationError, match="^count table entries must be whole numbers, not booleans$"
    ):
        CountTable(booleans_among_counts()[form], 2, 4)


def test_shot_counts_above_the_int64_cap_are_refused_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew at an oversized shot count")

    monkeypatch.setattr(montecarlo, "_draw", no_draw)
    dist = outcome_distribution(2, 4, PHI)
    for run in (
        lambda: sample_counts(dist, 2**63, 1),
        lambda: crb_saturation_experiment(2, 4, PHI, 2**63, 50, 1),
    ):
        with pytest.raises(ValidationError, match="exceeds the cap of 9223372036854775807"):
            run()


@settings(deadline=None, max_examples=30)
@given(
    nodes=st.integers(3, 64),
    shots=st.one_of(st.integers(1, 10**6), st.just(montecarlo.MAX_SHOTS)),
    seed=st.integers(0, 2**64),
)
def test_a_sampled_table_holds_exactly_its_shots(nodes, shots, seed):
    phases = np.random.default_rng(nodes).uniform(-0.3, 0.3, nodes)
    table = sample_counts(outcome_distribution(2, nodes, phases), shots, seed)
    assert type(table.shots) is int and table.shots == shots


def test_a_count_table_holds_the_sum_of_its_counts_by_the_shot_rule():
    counts = np.zeros(16, dtype=np.int64)
    with pytest.raises(ValidationError, match="^shot count must be an integer >= 1, got 0$"):
        CountTable(counts, 2, 4)
    counts[:2] = 2**62
    with pytest.raises(
        ValidationError, match=f"^shot count {2**63} exceeds the cap of {montecarlo.MAX_SHOTS}$"
    ):
        CountTable(counts, 2, 4)
    counts[1] -= 1
    assert CountTable(counts, 2, 4).shots == montecarlo.MAX_SHOTS


def test_noiseless_estimate_recovers_the_truth_exactly():
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    counts = expected_counts(2, 4, PHI, 10**6)
    result = mle_estimate(counts, theta_true, photons=2, nodes=4)
    np.testing.assert_allclose(result.theta[0], theta_true, atol=1e-9)
    assert result.labels == ("theta_1", "theta_2", "theta_3")


@pytest.mark.parametrize(
    "edit",
    [
        lambda counts: counts.update({OutcomeLabel(9, "++"): 0.0}),
        lambda counts: counts.update({"1++": 0.0}),
        lambda counts: counts.pop(OutcomeLabel(2, "+-")),
        lambda counts: counts.update(by_label(expected_counts(2, 6, np.full(6, 0.1), 10**6)[0])),
    ],
    ids=["unknown-label", "string-key", "missing-label", "six-node-labels"],
)
def test_fit_refuses_a_count_mapping_without_exactly_the_canonical_labels(edit):
    # label-keyed counts reach the fit through a CountTable, which reads them
    counts = by_label(expected_counts(2, 4, PHI, 10**6)[0])
    edit(counts)
    with pytest.raises(ValidationError, match="^count table must cover exactly the 16 canonical"):
        mle_estimate(CountTable(counts, 2, 4), build_mc(4).apply(PHI)[1:])


def test_stationary_zero_guess_walks_to_the_positive_truth():
    # the all-zero start has an exactly vanishing gradient; the estimator
    # nudges toward positive average phase and then climbs to the optimum
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    counts = expected_counts(2, 4, PHI, 10**6)
    result = mle_estimate(counts, np.zeros(3), photons=2, nodes=4)
    np.testing.assert_allclose(result.theta[0], theta_true, atol=1e-9)


def test_counts_at_zero_truth_estimate_near_zero():
    counts = expected_counts(2, 4, np.zeros(4), 10**6)
    result = mle_estimate(counts, np.zeros(3), photons=2, nodes=4)
    np.testing.assert_allclose(result.theta[0], np.zeros(3), atol=1e-6)


def test_estimate_stays_inside_the_search_box():
    # a guess 0.2 off the truth in theta_1 keeps each maximum, within 0.02
    # from the truth, inside the box of half-width 0.25 around the guess
    dist = outcome_distribution(2, 4, PHI)
    guess = build_mc(4).apply(PHI)[1:] + [0.2, 0.0, 0.0]
    assert montecarlo._BOX_HALF_WIDTH == 0.25
    for seed in range(5):
        table = sample_counts(dist, 2000, seed)
        result = mle_estimate(table, guess)
        assert np.all(np.abs(result.theta - guess) <= montecarlo._BOX_HALF_WIDTH)


def test_maximum_outside_the_search_box_is_refused():
    # a guess 0.3 off the truth in theta_1, inside the window (pair sums
    # 0.8 < pi), leaves the maximum near the truth, outside the box
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 2000, 3)
    guess = build_mc(4).apply(PHI)[1:] + [0.3, 0.0, 0.0]
    with pytest.raises(
        ConvergenceError, match=r"^count table 0 is fit 0\.\d+ from the guess, outside the search "
        r"box of half-width 0\.25$",
    ):
        mle_estimate(table, guess)


def test_estimates_match_between_table_and_plain_mapping():
    dist = outcome_distribution(4, 4, PHI)
    table = sample_counts(dist, 50000, 11)
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    from_table = mle_estimate(table, theta_true)
    from_map = mle_estimate(CountTable(dict(table.counts), 4, 4), theta_true)
    np.testing.assert_array_equal(from_table.theta, from_map.theta)


def test_guess_outside_identifiable_window_rejected():
    counts = expected_counts(2, 4, PHI, 1000)
    too_far = np.array([np.pi, 0.0, 0.0])  # pair sums reach 2*pi = beyond 2*pi/N
    with pytest.raises(ValidationError) as caught:
        mle_estimate(counts, too_far, photons=2, nodes=4)
    assert str(caught.value) == (
        "initial guess outside the identifiable box: max |phi_j + phi_j+1| = 6.28319 "
        "must be < 2*pi/N = 3.14159"
    )


def test_the_fit_takes_and_returns_only_what_its_callers_use():
    # a count table or an array of them, the guess, and the array's geometry;
    # the search box is a module constant and the result holds no likelihood
    parameters = inspect.signature(mle_estimate).parameters
    assert list(parameters) == ["counts", "initial_theta", "photons", "nodes"]
    table = sample_counts(outcome_distribution(2, 4, PHI), 10000, 5)
    fit = mle_estimate(table, build_mc(4).apply(PHI)[1:])
    assert [f.name for f in dataclasses.fields(fit)] == ["theta", "iterations"]


def test_count_array_requires_geometry():
    rows = expected_counts(2, 4, PHI, 1000)
    with pytest.raises(
        ValidationError, match="^photons and nodes must be given when counts is an array$"
    ):
        mle_estimate(rows, np.zeros(3))
    with pytest.raises(ValidationError):
        mle_estimate(rows[:, :-1], np.zeros(3), photons=2, nodes=4)


def test_fit_refuses_geometry_that_contradicts_a_count_table():
    table = sample_counts(outcome_distribution(2, 4, PHI), 10000, 5)
    guess = build_mc(4).apply(PHI)[1:]
    for geometry, message in [
        ({"photons": 6, "nodes": 8}, "photons=6 contradicts the count table's photons = 2"),
        ({"photons": 2, "nodes": 8}, "nodes=8 contradicts the count table's nodes = 4"),
        ({"nodes": 6}, "nodes=6 contradicts the count table's nodes = 4"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mle_estimate(table, guess, **geometry)
    same = mle_estimate(table, guess, photons=2, nodes=4)
    np.testing.assert_array_equal(same.theta, mle_estimate(table, guess).theta)


def refused_counts():
    rows = expected_counts(2, 4, PHI, 1000)
    negative = rows.copy()
    negative[0, 5] = -1.0
    return {
        "unsupported counts object: list": rows[0].tolist(),
        # a mapping is read by CountTable, not by the fit
        "unsupported counts object: dict": by_label(rows[0]),
        "count array must have at least one row": np.zeros((0, 16)),
        "counts must be nonnegative": negative,
        "count array entries must be whole numbers, not booleans": np.ones((1, 16), dtype=bool),
        "counts must have positive total weight": np.vstack((rows, np.zeros((1, 16)))),
        "count array entries must be finite": np.vstack((rows, np.full((1, 16), np.nan))),
        r"count array must have shape \(any, 16\), got \(1, 12\)": np.ones((1, 12), dtype=int),
        "count array must be real, got dtype complex128": rows + 0j,
    }


@pytest.mark.parametrize("message", list(refused_counts()))
def test_fit_refuses_counts_it_cannot_read(message):
    counts = refused_counts()[message]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        mle_estimate(counts, build_mc(4).apply(PHI)[1:], photons=2, nodes=4)


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.float32, np.float64, object])
def test_count_arrays_of_every_number_type_fit_the_same_bits(dtype):
    phases = np.full(8, 0.1)
    dist = outcome_distribution(2, 8, phases)
    counts = np.stack([sample_counts(dist, 10000, seed).array for seed in range(5)])
    guess = build_mc(8).apply(phases)[1:]
    expected = mle_estimate(counts.astype(float), guess, photons=2, nodes=8)
    fit = mle_estimate(counts.astype(dtype), guess, photons=2, nodes=8)
    np.testing.assert_array_equal(fit.theta, expected.theta)
    assert fit.iterations == expected.iterations


def test_a_negative_count_is_refused_after_a_non_finite_one():
    counts = np.ones((2, 16))
    counts[0, 3] = -1.0
    counts[1, 7] = np.inf
    with pytest.raises(ValidationError, match="^count array entries must be finite$"):
        mle_estimate(counts, np.zeros(3), photons=2, nodes=4)


def test_fit_refuses_an_object_row_with_booleans_among_its_counts():
    row = booleans_among_counts()["object-array"][None, :]
    with pytest.raises(
        ValidationError, match="^count array entries must be whole numbers, not booleans$"
    ):
        mle_estimate(row, np.zeros(3), photons=2, nodes=4)


def test_a_fit_whose_gradient_is_above_the_tolerance_is_refused(monkeypatch):
    # this table's fit leaves a nonzero gradient, so with a tolerance of 0
    # the certificate, the fit's last check, refuses it
    table = sample_counts(outcome_distribution(2, 4, PHI), 100_000, 5)
    monkeypatch.setattr(montecarlo, "_GRADIENT_TOL", 0.0)
    with pytest.raises(
        ConvergenceError,
        match=r"^likelihood fit left gradient norm \d\.\d{3}e[-+]\d+ above the tolerance "
        r"0\.000e\+00$",
    ):
        mle_estimate(table, build_mc(4).apply(PHI)[1:])


def test_multiplier_iteration_cap_raises_convergence_error(monkeypatch):
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 10000, 5)
    theta_true = build_mc(4).apply(PHI)[1:]
    monkeypatch.setattr(montecarlo, "_MULTIPLIER_ITERATIONS", 0)
    with pytest.raises(ConvergenceError):
        mle_estimate(table, theta_true)


def test_saturation_experiment_is_deterministic():
    report = crb_saturation_experiment(2, 4, PHI, 20000, 50, 13)
    again = crb_saturation_experiment(2, 4, PHI, 20000, 50, 13)
    np.testing.assert_array_equal(report.estimates, again.estimates)
    assert report.ratio == again.ratio


def test_saturation_experiment_shapes_and_bound():
    report = crb_saturation_experiment(2, 4, PHI, 20000, 50, 13)
    assert report.estimates.shape == (50, 3)
    # bound = 1 / (N^2 * shots)
    assert report.bound == pytest.approx(1.0 / (4 * 20000), rel=1e-12)
    assert report.var_theta1 > 0
    # loose sanity corridor for a small replicate count
    assert 0.5 <= report.ratio <= 2.0


def test_saturation_mean_is_unbiased_within_three_standard_errors():
    report = crb_saturation_experiment(2, 4, PHI, 20000, 50, 13)
    se_mean = np.sqrt(report.var_theta1 / report.replicates)
    assert abs(report.mean_theta1 - report.theta_true[0]) <= 3.0 * se_mean


def test_saturation_rejects_small_replicate_counts():
    with pytest.raises(ValidationError, match="^replicates must be an integer >= 50, got 10$"):
        crb_saturation_experiment(2, 4, PHI, 1000, 10, 1)


def test_saturation_rejects_unidentifiable_truth():
    with pytest.raises(ValidationError) as caught:
        crb_saturation_experiment(2, 4, np.full(4, np.pi), 1000, 50, 1)
    assert str(caught.value) == (
        "true pair sums outside the identifiable box: max |phi_j + phi_j+1| = 6.28319 "
        "must be < 2*pi/N = 3.14159"
    )


@pytest.mark.parametrize(
    "phases, label",
    [
        (np.zeros(4), "OutcomeLabel(pair=1, pattern='+-')"),
        (np.array([0.1, 0.2, -0.2, 0.3]), "OutcomeLabel(pair=2, pattern='+-')"),
    ],
    ids=["uniform-zero", "one-zero-pair-sum"],
)
def test_saturation_refuses_a_truth_with_an_outcome_of_probability_zero(phases, label):
    with pytest.raises(ValidationError) as caught:
        crb_saturation_experiment(2, 4, phases, 1000, 50, 1)
    assert str(caught.value) == (
        f"true probability of {label} is 0: no replicate can observe it, so the fit of "
        "its pair does not vary and the variance ratio is meaningless"
    )


@pytest.mark.parametrize("phase", [1e-5, 1e-4, 3e-4])
def test_saturation_refuses_replicates_that_all_fit_the_same_theta1(phase):
    # no replicate sees a disagree event, so every one fits the same theta_1
    with pytest.raises(ValidationError) as caught:
        crb_saturation_experiment(2, 4, np.full(4, phase), 100000, 50, 3)
    assert str(caught.value) == (
        "every replicate fits theta_1 = 0: the draws do not move the fit, so "
        "Var(theta_1) = 0 and the variance ratio is meaningless"
    )


def test_a_small_but_positive_variance_is_reported():
    report = crb_saturation_experiment(2, 4, np.full(4, 1e-3), 100000, 50, 3)
    assert 0.0 < report.ratio < 0.1


def test_saturation_csv_headers():
    report = crb_saturation_experiment(2, 4, PHI, 20000, 50, 13)
    summary = report.summary_csv().strip().split("\n")
    assert summary[0] == "N,d,shots,replicates,seed,var_theta1,bound,ratio"
    assert len(summary) == 2
    long_rows = report.long_csv().strip().split("\n")
    assert long_rows[0] == "replicate,parameter,estimate"
    assert len(long_rows) == 1 + 50 * 3


def test_saturation_rejects_negative_seed():
    with pytest.raises(ValidationError):
        crb_saturation_experiment(2, 4, PHI, 1000, 50, -1)


@pytest.mark.parametrize("replicates", [60.5, "60", True])
def test_saturation_refuses_replicate_counts_that_are_not_integers(replicates):
    with pytest.raises(ValidationError) as caught:
        crb_saturation_experiment(2, 4, PHI, 1000, replicates, 1)
    assert str(caught.value) == f"replicates must be an integer, got {replicates!r}"


def recorded_draws(monkeypatch, phases, seed):
    """The counts of a saturation run and the threads that drew them, one per draw."""
    fitted, drawers = [], []
    draw = montecarlo._draw

    def recording_draw(*args):
        drawers.append(threading.current_thread())
        return draw(*args)

    def recording_fit(counts, *args, **kwargs):
        fitted.append(np.array(counts))
        return mle_estimate(counts, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_draw", recording_draw)
    monkeypatch.setattr(montecarlo, "mle_estimate", recording_fit)
    crb_saturation_experiment(2, len(phases), phases, 20000, 50, seed)
    (counts,) = fitted
    assert counts.shape == (50, 4 * len(phases))
    return counts, drawers


def assert_replicates_draw_what_sample_counts_draws(monkeypatch, phases, seed):
    counts, _ = recorded_draws(monkeypatch, phases, seed)
    dist = outcome_distribution(2, len(phases), phases)
    child_seeds = np.random.SeedSequence(seed).generate_state(50, dtype=np.uint64)
    for row, child in zip(counts, child_seeds):
        np.testing.assert_array_equal(row, sample_counts(dist, 20000, int(child)).array)


def test_saturation_replicates_draw_what_sample_counts_draws(monkeypatch):
    assert_replicates_draw_what_sample_counts_draws(monkeypatch, np.full(8, 0.1), 13)


def test_wide_replicates_with_distinct_phases_draw_what_sample_counts_draws(monkeypatch):
    phases = 0.1 + 0.05 * np.sin(np.arange(64))
    assert_replicates_draw_what_sample_counts_draws(monkeypatch, phases, 17)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("nodes", [8, 28, 32, 64])
def test_threaded_replicates_draw_what_default_rng_draws(nodes, cpus, monkeypatch):
    # however many CPUs the process sees, every draw runs on the calling thread
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    phases = np.full(nodes, 0.1)
    counts, drawers = recorded_draws(monkeypatch, phases, 11)
    assert drawers == [threading.current_thread()] * 50
    dist = outcome_distribution(2, nodes, phases)
    probabilities = dist.array / dist.array.sum()
    child_seeds = np.random.SeedSequence(11).generate_state(50, dtype=np.uint64)
    for row, child in zip(counts, child_seeds):
        expected = np.random.default_rng(int(child)).multinomial(20000, probabilities)
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("row", [0, 25, 49], ids=["calling-thread", "middle", "last"])
def test_a_draw_that_raises_on_one_row_raises_from_the_experiment(row, monkeypatch):
    failing = montecarlo._seed_words(
        np.random.SeedSequence(3).generate_state(50, dtype=np.uint64)
    )[row]
    failure = RuntimeError(f"row {row}")
    draw = montecarlo._draw

    def failing_draw(probabilities, shots, words):
        if np.array_equal(words, failing):
            raise failure
        return draw(probabilities, shots, words)

    monkeypatch.setattr(montecarlo, "_draw", failing_draw)
    with pytest.raises(RuntimeError) as caught:
        crb_saturation_experiment(2, 64, np.full(64, 0.1), 20000, 50, 3)
    assert caught.value is failure


def edge_and_random_seeds(count, seed):
    """The uint64 edge seeds 0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1 and ``count`` random ones."""
    edges = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    rng = np.random.default_rng(seed)
    return np.concatenate((edges, rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False)))


def test_seed_words_match_numpy_seed_sequence():
    seeds = edge_and_random_seeds(5000, 20)
    words = montecarlo._seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    expected = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds]
    np.testing.assert_array_equal(words, np.array(expected))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64, 2**70 + 5, 2**200])
def test_sample_counts_draws_what_default_rng_draws(seed):
    # sample_counts seeds through SeedSequence words; the stream is default_rng(seed)'s
    dist = outcome_distribution(2, 8, np.full(8, 0.1))
    expected = np.random.default_rng(seed).multinomial(100000, dist.array / dist.array.sum())
    np.testing.assert_array_equal(sample_counts(dist, 100000, seed).array, expected)


def test_hashed_seed_words_give_the_bit_generator_of_the_int_seed():
    seeds = edge_and_random_seeds(200, 21)
    hashed = montecarlo._hashed_seed_type()
    for seed, words in zip(seeds, montecarlo._seed_words(seeds)):
        assert np.random.PCG64(hashed(words)).state == np.random.PCG64(int(seed)).state


@pytest.mark.parametrize(
    "nodes, var_theta1", [(8, 2.903253201584394e-06), (64, 2.2392218310100147e-06)]
)
def test_saturation_variance_is_pinned(nodes, var_theta1):
    # what seeding each replicate with default_rng(child) gives; a drift in
    # the replicate stream changes them
    report = crb_saturation_experiment(2, nodes, np.full(nodes, 0.1), 100000, 200, 7)
    assert report.var_theta1 == var_theta1


def theta_digest(theta):
    """sha256 of the fitted theta as little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()).hexdigest()


def test_saturation_fit_is_pinned_bit_for_bit():
    # the 200 replicate tables of the d = 64 saturation run, none with an
    # empty, agree-free or disagree-free pair, fit together from the truth
    phases = np.full(64, 0.1)
    dist = outcome_distribution(2, 64, phases)
    child_seeds = np.random.SeedSequence(7).generate_state(200, dtype=np.uint64)
    counts = np.stack([sample_counts(dist, 10**5, int(child)).array for child in child_seeds])
    per_pair = counts.reshape(200, 64, 4)
    assert (per_pair[..., :2].sum(axis=-1) > 0).all() and (per_pair[..., 2:].sum(axis=-1) > 0).all()
    fit = mle_estimate(counts, build_mc(64).apply(phases)[1:], photons=2, nodes=64)
    assert theta_digest(fit.theta) == (
        "82b2990c7b7fd8eefaaf7bd3dc47871184620ee8e2b6fbc28e089f540583c2dd"
    )
    assert fit.iterations == 3


def test_wide_ring_fit_is_pinned_bit_for_bit():
    # 105 of the 256 pairs of this table record no disagree event
    phases = np.full(256, 0.05)
    table = sample_counts(outcome_distribution(2, 256, phases), 10**5, 1)
    per_pair = table.array.reshape(256, 4)
    assert int((per_pair[:, 2:].sum(axis=1) == 0).sum()) == 105
    fit = mle_estimate(table, build_mc(256).apply(phases)[1:])
    assert theta_digest(fit.theta) == (
        "7206340a448647ed3b2ad6e9c0f071ee9859c47f8a0f369490c00ad4e6aeecb7"
    )
    assert fit.iterations == 3


def test_wide_ring_fit_on_the_negative_branch_is_pinned_bit_for_bit():
    # the mirrored phases draw the same table; every guess pair sum is
    # negative, so each pair takes the - branch, and the 105 pairs without
    # disagree events must come out as they do on the + branch
    phases = np.full(256, -0.05)
    table = sample_counts(outcome_distribution(2, 256, phases), 10**5, 1)
    per_pair = table.array.reshape(256, 4)
    assert int((per_pair[:, 2:].sum(axis=1) == 0).sum()) == 105
    fit = mle_estimate(table, build_mc(256).apply(phases)[1:])
    assert theta_digest(fit.theta) == (
        "b692edb448e72b83b93050a6c40cb0e947403b1820c8e084fc0de82d32266989"
    )
    assert fit.iterations == 3


def test_fits_with_empty_and_agree_free_pairs_are_pinned_bit_for_bit():
    theta_true = build_mc(4).apply(PHI)[1:]
    # one empty pair: the row is stuck at multiplier 0
    counts = expected_counts(2, 4, PHI, 10**6)
    counts[0, 4:8] = 0.0
    fit = mle_estimate(counts, theta_true + 0.01, photons=2, nodes=4)
    assert theta_digest(fit.theta) == (
        "a80a1b1b06d9ac93201057c7096d126247d715728663e7afbfdf6d1e7ef63250"
    )
    assert fit.iterations == 0
    # a pair with disagree events only
    fit = mle_estimate(pair_table([0.0, 5.0, 5.0, 5.0], [2.0, 0.0, 0.0, 0.0]), theta_true,
                       photons=4, nodes=4)
    assert theta_digest(fit.theta) == (
        "dbd856322c344c7f5aa8eeb787b2bd4244d0931aa0510ddf444f107d3a7debd2"
    )
    assert fit.iterations == 5
    # low-shot rows fit together: pairs without disagree events in four rows,
    # an empty pair in row 4 and an agree-free pair in row 5
    rng = np.random.default_rng(5)
    phases = np.full(8, 0.3)
    p = outcome_distribution(2, 8, phases).as_array()
    draws = rng.multinomial(200, p / p.sum(), size=6).astype(float)
    draws[4, 12:16] = 0.0
    draws[5, 0:2] = 0.0
    fit = mle_estimate(draws, build_mc(8).apply(phases)[1:], photons=2, nodes=8)
    assert theta_digest(fit.theta) == (
        "c414d116082b43a90fa8078da2f1b3f1a0c1883d8b3dfe1802038753084775cf"
    )
    assert fit.iterations == 6


def test_two_pairs_without_events_have_no_unique_maximum():
    counts = np.zeros((1, 16))
    counts[0, [0, 8]] = 1.0  # ++ on pairs 1 and 3
    with pytest.raises(ConvergenceError):
        mle_estimate(counts, build_mc(4).apply(PHI)[1:], photons=2, nodes=4)


def test_one_pair_without_events_is_absorbed_by_the_ring_constraint():
    # noiseless counts on pairs 1, 3 and 4 fix their sums; the alternating
    # sum of an even ring then fixes pair 2, so the truth is the unique fit
    counts = expected_counts(2, 4, PHI, 10**6)
    counts[0, 4:8] = 0.0  # the four patterns of pair 2
    theta_true = build_mc(4).apply(PHI)[1:]
    result = mle_estimate(counts, theta_true + 0.01, photons=2, nodes=4)
    np.testing.assert_allclose(result.theta[0], theta_true, atol=1e-9)


def reference_fit(agree, disagree, photons, guess, box=0.25, tol=1e-10):
    """One count table by Newton steps on the dense theta Hessian, with step halving."""
    rep = build_mc(agree.size)
    jac = rep.inverse[:, 1:]
    grads = jac + np.roll(jac, -1, axis=0)
    half = photons / 2.0
    total = agree.sum() + disagree.sum()

    def parts(theta):
        arg = half * (grads @ theta)
        c, s = np.cos(arg), np.sin(arg)
        # a pair without disagree events has no 1 - cos term (0 log 0 = 0), so
        # its sum may reach zero, where 1 - cos rounds to 0
        one_minus = np.where(disagree > 0, 1.0 - c, 1.0)
        # a line-search candidate on the window edge has 1 + cos = 0, so its
        # value is +inf (or nan, from 0 log 0), which the search rejects by
        # halving the step
        with np.errstate(divide="ignore", invalid="ignore"):
            value = -(agree @ np.log(1.0 + c) + disagree @ np.log(one_minus)) / total
            grad = grads.T @ (half * s * (agree / (1.0 + c) - disagree / one_minus)) / total
            curvature = half**2 * (agree / (1.0 + c) + disagree / one_minus) / total
        return value, grad, (grads.T * curvature) @ grads

    theta = guess.copy()
    for _ in range(100):
        value, grad, hessian = parts(theta)
        if np.max(np.abs(grad)) <= tol:
            return theta
        step = np.linalg.solve(hessian, -grad)
        length = 1.0
        while True:
            candidate = np.clip(theta + length * step, guess - box, guess + box)
            new_value, new_grad, _ = parts(candidate)
            if new_value < value or np.max(np.abs(new_grad)) < np.max(np.abs(grad)):
                break
            length /= 2.0
            assert length > 1e-12, "reference fit stalled"
        theta = candidate
    raise AssertionError("reference fit did not converge")


def pair_table(agree, disagree):
    """One count row with each pair's agree events on ++ and disagree events on +-."""
    row = np.zeros((len(agree), 4))
    row[:, 0] = agree
    row[:, 2] = disagree
    return row.reshape(1, -1)


@pytest.mark.parametrize("photons", [2, 4])
@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_batched_fit_matches_dense_newton_reference(nodes, photons):
    # regular draws, then low-shot draws near the kink at zero pair sum, where
    # most pairs see no disagree event
    for low, high, shots in ((0.05, 0.15, 20000), (0.015, 0.025, 300)):
        for seed in range(3):
            rng = np.random.default_rng(100 * nodes + 10 * photons + seed)
            phases = rng.uniform(low, high, nodes)
            theta_true = build_mc(nodes).apply(phases)[1:]
            p = outcome_distribution(photons, nodes, phases).as_array()
            draws = rng.multinomial(shots, p / p.sum(), size=4)
            fit = mle_estimate(draws, theta_true, photons=photons, nodes=nodes)
            assert fit.theta.shape == (4, nodes - 1)
            assert isinstance(fit.iterations, int)
            for row, theta in zip(draws.reshape(4, nodes, 4), fit.theta):
                agree = (row[:, 0] + row[:, 1]).astype(float)
                disagree = (row[:, 2] + row[:, 3]).astype(float)
                reference = reference_fit(agree, disagree, photons, theta_true)
                assert np.max(np.abs(theta - reference)) <= 1e-9


@settings(deadline=None)
@given(
    photons=st.sampled_from([2, 4]),
    nodes=st.sampled_from([4, 6, 8]),
    shots=st.integers(20, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_dense_newton_reference_on_random_small_tables(photons, nodes, shots, seed):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 0.15, nodes)
    theta_true = build_mc(nodes).apply(phases)[1:]
    p = outcome_distribution(photons, nodes, phases).as_array()
    row = rng.multinomial(shots, p / p.sum())
    agree = (row[0::4] + row[1::4]).astype(float)
    disagree = (row[2::4] + row[3::4]).astype(float)
    assume(np.sum(agree + disagree == 0) <= 1)
    try:
        reference = reference_fit(agree, disagree, photons, theta_true)
    except (AssertionError, np.linalg.LinAlgError):
        assume(False)
    jac = build_mc(nodes).inverse[:, 1:]
    pair_sums = (jac + np.roll(jac, -1, axis=0)) @ reference
    assume(np.max(np.abs(pair_sums)) < 2.0 * np.pi / photons - 1e-6)
    fit = mle_estimate(row[None, :], theta_true, photons=photons, nodes=nodes)
    assert np.max(np.abs(fit.theta[0] - reference)) <= 1e-9


def test_fit_on_the_identifiable_window_edge_is_refused():
    # pair 3 has disagree events only and pair 6 none at all; with one empty
    # pair the multiplier is 0, so pair 3 sits on the window edge pi/2 and the
    # empty pair takes the ring residual 2*pi/3, past it
    agree = [3, 5, 0, 6, 2, 0, 3, 1, 2, 5, 1, 2, 3, 4, 3, 7]
    disagree = [1, 0, 2] + [0] * 13
    guess = build_mc(16).apply(np.full(16, 0.1))[1:]
    with pytest.raises(ConvergenceError):
        mle_estimate(pair_table(agree, disagree), guess, photons=4, nodes=16)


def test_pair_without_agree_events_can_have_an_interior_maximum():
    # pair 1 has disagree events only; the ring constraint holds its sum at
    # 0.908, inside the window pi/2
    agree = np.array([0.0, 5.0, 5.0, 5.0])
    disagree = np.array([2.0, 0.0, 0.0, 0.0])
    guess = build_mc(4).apply(PHI)[1:]
    fit = mle_estimate(pair_table(agree, disagree), guess, photons=4, nodes=4)
    reference = reference_fit(agree, disagree, 4, guess)
    assert np.max(np.abs(fit.theta[0] - reference)) <= 1e-9


def test_saturation_replicates_match_single_table_fits():
    phases = np.full(8, 0.1)
    report = crb_saturation_experiment(2, 8, phases, 20000, 50, 13)
    dist = outcome_distribution(2, 8, phases)
    child_seeds = np.random.SeedSequence(13).generate_state(50, dtype=np.uint64)
    for r, child in enumerate(child_seeds):
        single = mle_estimate(sample_counts(dist, 20000, int(child)), report.theta_true)
        assert np.max(np.abs(report.estimates[r] - single.theta)) <= 1e-12


def test_slow_multiplier_table_converges_in_at_most_seventeen_steps():
    # counts spanning five orders of magnitude leave g(lambda) a plateau that
    # the bracketed Newton steps cross by doubling; the pinned theta and the
    # 17 steps are those of the dense-product fitter this one replaced
    agree = [1.0, 1000.0, 1e5, 1000.0]
    disagree = [0.0, 1e5, 1e5, 1e5]
    pinned = np.array([1.2200090208447307, 0.17537888596847906, 0.17537888596847928])
    # the guess only picks the branches, all + as from the zero guess; 0.1
    # below the maximum in theta_1, its pair sums (2.94, 2.24, 1.54, 2.24)
    # lie inside the window pi, and the maximum inside the search box
    guess = pinned - [0.1, 0.0, 0.0]
    fit = mle_estimate(pair_table(agree, disagree), guess, photons=2, nodes=4)
    assert np.max(np.abs(fit.theta[0] - pinned)) <= 1e-12 * np.max(np.abs(pinned))
    assert fit.iterations <= 17


def test_wide_ring_fit_matches_dense_newton_reference():
    phases = np.full(128, 0.05)
    theta_true = build_mc(128).apply(phases)[1:]
    table = sample_counts(outcome_distribution(2, 128, phases), 10**5, 3)
    per_pair = table.array.reshape(128, 4).astype(float)
    agree = per_pair[:, 0] + per_pair[:, 1]
    disagree = per_pair[:, 2] + per_pair[:, 3]
    reference = reference_fit(agree, disagree, 2, theta_true)
    fit = mle_estimate(table, theta_true)
    assert np.max(np.abs(fit.theta - reference)) <= 1e-9


@pytest.mark.parametrize("nodes", [256, 1024])
def test_fit_makes_no_factorization_and_builds_no_mc_chart(nodes, monkeypatch, linalg_calls):
    # uniform phases: theta_1 is the phase and every scaled difference is 0
    theta_true = np.zeros(nodes - 1)
    theta_true[0] = 0.05
    table = sample_counts(outcome_distribution(2, nodes, np.full(nodes, 0.05)), 10**5, 1)
    built = []
    monkeypatch.setattr(montecarlo, "build_mc", lambda d: built.append(d), raising=False)
    monkeypatch.setattr(reparam, "build_mc", lambda d: built.append(d))
    calls = linalg_calls(*LINALG_FUNCTIONS)
    fit = mle_estimate(table, theta_true)
    assert fit.theta.shape == (nodes - 1,)
    assert fit.labels == tuple(f"theta_{i}" for i in range(1, nodes))
    assert built == []
    assert sum(calls.values()) == 0


def test_wide_ring_fit_from_the_truth_converges():
    phases = np.full(256, 0.05)
    dist = outcome_distribution(2, 256, phases)
    theta_true = build_mc(256).apply(phases)[1:]
    for seed in (1, 2):
        result = mle_estimate(sample_counts(dist, 10**5, seed), theta_true)
        assert np.all(np.isfinite(result.theta))
