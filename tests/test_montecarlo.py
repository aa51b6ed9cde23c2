import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzsense import montecarlo
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


def expected_counts(photons, nodes, phases, shots):
    dist = outcome_distribution(photons, nodes, phases)
    return {
        label: float(p * shots)
        for label, p in zip(outcome_labels(nodes), dist.as_array())
    }


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
        CountTable(partial, 100, 1, 2, 4, PHI)


def test_validated_count_table_cannot_be_edited():
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 1000, 7)
    with pytest.raises(TypeError):
        table.counts[OutcomeLabel(1, "++")] += 500
    with pytest.raises(ValueError):
        table.array[0] += 500
    assert sum(table.counts.values()) == table.shots == 1000
    assert table.to_json_dict()["shots"] == sum(table.array.tolist())
    # the table keeps its own copy of the counts it was built from
    draws = table.array.copy()
    copied = CountTable(draws, 1000, 7, 2, 4, PHI)
    draws[0] += 500
    assert sum(copied.counts.values()) == 1000


def test_count_table_refuses_fractional_counts():
    labels = outcome_labels(4)
    counts = dict.fromkeys(labels, 0)
    counts[labels[0]], counts[labels[1]] = 50.5, 49.5
    rows = np.array([counts[label] for label in labels])
    for bad in (counts, rows):
        with pytest.raises(ValidationError, match="must be a finite integer"):
            CountTable(bad, 100, 1, 2, 4, PHI)
    for value in (np.nan, np.inf, 2.0**63):
        rows = np.zeros(16)
        rows[3] = value
        with pytest.raises(ValidationError, match="must be a finite integer"):
            CountTable(rows, 100, 1, 2, 4, PHI)
    # whole numbers held as floats are counts
    counts[labels[0]], counts[labels[1]] = 50.0, 50.0
    assert CountTable(counts, 100, 1, 2, 4, PHI).counts[labels[0]] == 50


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


def test_noiseless_estimate_recovers_the_truth_exactly():
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    counts = expected_counts(2, 4, PHI, 10**6)
    result = mle_estimate(counts, theta_true, photons=2, nodes=4)
    np.testing.assert_allclose(result.theta, theta_true, atol=1e-9)
    assert result.converged
    assert result.labels == ("theta_1", "theta_2", "theta_3")


def test_stationary_zero_guess_walks_to_the_positive_truth():
    # the all-zero start has an exactly vanishing gradient; the estimator
    # nudges toward positive average phase and then climbs to the optimum
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    counts = expected_counts(2, 4, PHI, 10**6)
    result = mle_estimate(counts, np.zeros(3), photons=2, nodes=4)
    np.testing.assert_allclose(result.theta, theta_true, atol=1e-9)


def test_counts_at_zero_truth_estimate_near_zero():
    counts = expected_counts(2, 4, np.zeros(4), 10**6)
    result = mle_estimate(counts, np.zeros(3), photons=2, nodes=4)
    np.testing.assert_allclose(result.theta, np.zeros(3), atol=1e-6)


def test_estimate_stays_inside_the_search_box():
    dist = outcome_distribution(2, 4, PHI)
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    for seed in range(5):
        table = sample_counts(dist, 2000, seed)
        result = mle_estimate(table, theta_true, 0.05)
        assert np.all(np.abs(result.theta - theta_true) <= 0.05 + 1e-12)


def test_maximum_outside_the_search_box_is_refused():
    # this table's maximum lies about 0.014 from the truth in theta_3
    dist = outcome_distribution(2, 4, PHI)
    table = sample_counts(dist, 2000, 3)
    theta_true = build_mc(4).apply(PHI)[1:]
    with pytest.raises(ConvergenceError):
        mle_estimate(table, theta_true, 1e-4)


def test_estimates_match_between_table_and_plain_mapping():
    dist = outcome_distribution(4, 4, PHI)
    table = sample_counts(dist, 50000, 11)
    rep = build_mc(4)
    theta_true = rep.apply(PHI)[1:]
    from_table = mle_estimate(table, theta_true)
    from_map = mle_estimate(dict(table.counts), theta_true, photons=4, nodes=4)
    np.testing.assert_array_equal(from_table.theta, from_map.theta)


def test_guess_outside_identifiable_window_rejected():
    counts = expected_counts(2, 4, PHI, 1000)
    too_far = np.array([np.pi, 0.0, 0.0])  # pair sums reach 2*pi = beyond 2*pi/N
    with pytest.raises(ValidationError):
        mle_estimate(counts, too_far, photons=2, nodes=4)


def test_plain_mapping_requires_geometry():
    counts = expected_counts(2, 4, PHI, 1000)
    with pytest.raises(ValidationError):
        mle_estimate(counts, np.zeros(3))
    rows = np.array([[counts[label] for label in outcome_labels(4)]])
    with pytest.raises(ValidationError):
        mle_estimate(rows, np.zeros(3))
    with pytest.raises(ValidationError):
        mle_estimate(rows[:, :-1], np.zeros(3), photons=2, nodes=4)


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
    with pytest.raises(ValidationError):
        crb_saturation_experiment(2, 4, PHI, 1000, 10, 1)


def test_saturation_rejects_unidentifiable_truth():
    with pytest.raises(ValidationError):
        crb_saturation_experiment(2, 4, np.full(4, np.pi), 1000, 50, 1)


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


def test_two_pairs_without_events_have_no_unique_maximum():
    counts = {label: 0 for label in outcome_labels(4)}
    counts[OutcomeLabel(1, "++")] = 1
    counts[OutcomeLabel(3, "++")] = 1
    with pytest.raises(ConvergenceError):
        mle_estimate(counts, build_mc(4).apply(PHI)[1:], photons=2, nodes=4)


def test_one_pair_without_events_is_absorbed_by_the_ring_constraint():
    # noiseless counts on pairs 1, 3 and 4 fix their sums; the alternating
    # sum of an even ring then fixes pair 2, so the truth is the unique fit
    counts = expected_counts(2, 4, PHI, 10**6)
    for pattern in ("++", "--", "+-", "-+"):
        counts[OutcomeLabel(2, pattern)] = 0.0
    theta_true = build_mc(4).apply(PHI)[1:]
    result = mle_estimate(counts, theta_true + 0.01, photons=2, nodes=4)
    np.testing.assert_allclose(result.theta, theta_true, atol=1e-9)


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
            assert fit.log_likelihood.shape == (4,)
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


def test_wide_ring_fit_from_the_truth_converges():
    phases = np.full(256, 0.05)
    dist = outcome_distribution(2, 256, phases)
    theta_true = build_mc(256).apply(phases)[1:]
    for seed in (1, 2):
        result = mle_estimate(sample_counts(dist, 10**5, seed), theta_true)
        assert result.converged
        assert np.all(np.isfinite(result.theta))
