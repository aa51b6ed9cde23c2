"""Outcome tables stored as arrays against a label-keyed dictionary reference.

The reference below keeps outcome probabilities and counts in
``{OutcomeLabel: value}`` dictionaries and walks them label by label, the
way the tables were first written.  The array-backed tables must give the
same probabilities, the same draws, bit-identical fits and the same
refusal messages.
"""

import math

import numpy as np
import pytest

from ghzsense import measurement, montecarlo
from ghzsense.bounds import bound_report, exact_crb, weak_crb
from ghzsense.errors import ValidationError
from ghzsense.measurement import (
    PATTERNS,
    OutcomeDistribution,
    OutcomeLabel,
    cfim,
    outcome_distribution,
)
from ghzsense.montecarlo import CountTable, mle_estimate, sample_counts
from ghzsense.reparam import build_mc


def reference_labels(d):
    return [OutcomeLabel(j, p) for j in range(1, d + 1) for p in PATTERNS]


def reference_probabilities(photons, d, phi):
    probs = {}
    for j in range(1, d + 1):
        c = math.cos(photons / 2.0 * (phi[j - 1] + phi[j % d]))
        for pattern in PATTERNS:
            sign = 1.0 if pattern in ("++", "--") else -1.0
            probs[OutcomeLabel(j, pattern)] = (1.0 + sign * c) / (4.0 * d)
    return probs


def reference_counts(probs, d, shots, seed):
    p = np.array([probs[label] for label in reference_labels(d)])
    draws = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    return {label: int(c) for label, c in zip(reference_labels(d), draws)}


def reference_distribution_refusal(probs, d):
    if set(probs) != set(reference_labels(d)):
        return f"distribution must cover exactly the {4 * d} canonical outcomes"
    for label, p in probs.items():
        if not math.isfinite(p) or p < 0.0:
            return f"probability for {label} must be finite and >= 0"
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-12:
        return f"probabilities sum to {total!r}, expected 1"
    for j in range(1, d + 1):
        if probs[OutcomeLabel(j, "++")] != probs[OutcomeLabel(j, "--")] or probs[
            OutcomeLabel(j, "+-")
        ] != probs[OutcomeLabel(j, "-+")]:
            return f"pattern symmetry violated for pair {j}: ++/-- and +-/-+ must match"
    return None


def reference_count_refusal(counts, shots, d):
    if set(counts) != set(reference_labels(d)):
        return f"count table must cover exactly the {4 * d} canonical outcomes"
    total = 0
    for label, value in counts.items():
        if value < 0:
            return f"count for {label} is negative"
        total += value
    if total != shots:
        return f"counts sum to {total}, expected shots = {shots}"
    return None


GRID = [(photons, d) for photons in (2, 4, 6) for d in (4, 8, 256)]


def phases_for(photons, d):
    return np.random.default_rng(100 * photons + d).uniform(-0.2, 0.2, d)


@pytest.mark.parametrize("photons, d", GRID)
def test_distribution_matches_the_reference(photons, d):
    phi = phases_for(photons, d)
    probs = reference_probabilities(photons, d, phi)
    dist = outcome_distribution(photons, d, phi)
    assert dist.probabilities == probs
    from_mapping = OutcomeDistribution(probs, photons, d, phi)
    np.testing.assert_array_equal(from_mapping.array, dist.array)


@pytest.mark.parametrize("photons, d", GRID)
def test_draws_match_the_reference(photons, d):
    phi = phases_for(photons, d)
    probs = reference_probabilities(photons, d, phi)
    dist = outcome_distribution(photons, d, phi)
    for seed in range(3):
        table = sample_counts(dist, 100_000, seed)
        assert table.counts == reference_counts(probs, d, 100_000, seed)


@pytest.mark.parametrize("d", [4, 8, 256])
def test_fit_is_bit_identical_for_table_mapping_and_array(d):
    phi = np.full(d, 0.05)
    theta_true = build_mc(d).apply(phi)[1:]
    dist = outcome_distribution(2, d, phi)
    for seed in range(3):
        table = sample_counts(dist, 100_000, seed)
        mapping = reference_counts(reference_probabilities(2, d, phi), d, 100_000, seed)
        rows = np.array([[mapping[label] for label in reference_labels(d)]])
        from_table = mle_estimate(table, theta_true)
        from_mapping = mle_estimate(mapping, theta_true, photons=2, nodes=d)
        from_rows = mle_estimate(rows, theta_true, photons=2, nodes=d)
        for fit in (from_mapping, from_rows):
            np.testing.assert_array_equal(np.reshape(fit.theta, -1), from_table.theta)
            assert np.reshape(fit.log_likelihood, -1)[0] == from_table.log_likelihood


def bad_distributions(d):
    labels = reference_labels(d)
    uniform = {label: 1.0 / (4 * d) for label in labels}
    cases = []
    missing = dict(uniform)
    del missing[labels[5]]
    cases.append(missing)
    extra = dict(uniform)
    extra[OutcomeLabel(d + 1, "++")] = 0.0
    cases.append(extra)
    for bad in (-0.25, math.nan, math.inf):
        case = dict(uniform)
        case[labels[6]] = bad
        case[labels[9]] = -1.0
        cases.append(case)
    # agree 1/(2d) and disagree 1/(4d) per pattern: a total of exactly 1.5
    cases.append(
        {label: (2.0 if label.pattern in ("++", "--") else 1.0) / (4 * d) for label in labels}
    )
    skewed = dict(uniform)
    skewed[OutcomeLabel(3, "++")] += 1.0 / 64
    skewed[OutcomeLabel(3, "--")] -= 1.0 / 64
    cases.append(skewed)
    return cases


def bad_count_tables(d):
    labels = reference_labels(d)
    even = {label: 10 for label in labels}
    cases = []
    missing = dict(even)
    del missing[labels[2]]
    cases.append((missing, 10 * 4 * d))
    negative = dict(even)
    negative[labels[7]] = -1
    negative[labels[8]] = 21
    cases.append((negative, 10 * 4 * d))
    cases.append((even, 10 * 4 * d - 1))
    return cases


def both_forms(mapping, d):
    """The mapping, and the same entries as an array when it covers every label."""
    if set(mapping) != set(reference_labels(d)):
        return [mapping]
    return [mapping, np.array([mapping[label] for label in reference_labels(d)])]


def refusal(build):
    with pytest.raises(ValidationError) as caught:
        build()
    return str(caught.value)


def test_refusal_messages_match_the_reference():
    d = 4
    phi = np.zeros(d)
    for probs in bad_distributions(d):
        expected = reference_distribution_refusal(probs, d)
        assert expected is not None
        for form in both_forms(probs, d):
            assert refusal(lambda: OutcomeDistribution(form, 2, d, phi)) == expected
    for counts, shots in bad_count_tables(d):
        expected = reference_count_refusal(counts, shots, d)
        assert expected is not None
        for form in both_forms(counts, d):
            assert refusal(lambda: CountTable(form, shots, 1, 2, d, phi)) == expected
    # an array of the wrong length is refused like a mapping without full coverage
    short = np.full(4 * d - 1, 1.0 / (4 * d - 1))
    assert refusal(lambda: OutcomeDistribution(short, 2, d, phi)) == (
        f"distribution must cover exactly the {4 * d} canonical outcomes"
    )
    dist = outcome_distribution(2, d, phi)
    assert refusal(lambda: sample_counts(dist, 0, 1)) == (
        "shot count must be a positive integer, got 0"
    )
    assert refusal(lambda: sample_counts(dist, 10, -1)) == (
        "seed must be a nonnegative integer, got -1"
    )


@pytest.mark.parametrize(
    "shots, seed",
    [
        (0, 1),
        (100.0, 1),
        (True, 1),
        (montecarlo.MAX_SHOTS + 1, 1),
        (100, -5),
        (100, 2.7),
        (100, True),
        (100, "3"),
    ],
    ids=[
        "zero-shots",
        "float-shots",
        "bool-shots",
        "shots-above-cap",
        "negative-seed",
        "float-seed",
        "bool-seed",
        "string-seed",
    ],
)
def test_count_tables_check_shots_and_seed_like_sample_counts(shots, seed):
    d = 4
    phi = np.zeros(d)
    counts = np.zeros(4 * d, dtype=np.int64)
    counts[0] = 100
    expected = refusal(lambda: sample_counts(outcome_distribution(2, d, phi), shots, seed))
    assert refusal(lambda: CountTable(counts, shots, seed, 2, d, phi)) == expected
    if type(seed) is int and seed == 1:  # a shot case: the bounds take shots but no seed
        matrix = cfim(2, d, phi, build_mc(d).chart(True))
        for bound in (exact_crb, weak_crb, bound_report):
            assert refusal(lambda: bound(matrix, np.ones(d - 1), shots)) == expected


def test_sampling_and_fitting_build_no_label_list(monkeypatch):
    calls = []
    labels_of = measurement.outcome_labels

    def counting(d):
        calls.append(d)
        return labels_of(d)

    monkeypatch.setattr(measurement, "outcome_labels", counting)
    d = 256
    phi = np.full(d, 0.05)
    dist = outcome_distribution(2, d, phi)
    table = sample_counts(dist, 100_000, 1)
    mle_estimate(table, build_mc(d).apply(phi)[1:])
    dist.as_array()
    assert calls == []
    # the label-keyed views build the labels on first use, once per table
    table.counts
    table.counts
    dist.probability(OutcomeLabel(1, "++"))
    assert calls == [d, d]
