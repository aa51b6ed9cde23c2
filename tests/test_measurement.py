import math

import numpy as np
import pytest

from ghzsense.errors import ValidationError
from ghzsense.ghz_state import MAX_NODES
from ghzsense.measurement import (
    OutcomeDistribution,
    OutcomeLabel,
    cfim,
    cfim_brute_force_oracle,
    outcome_distribution,
    outcome_labels,
)
from ghzsense.qfim import original_chart, pair_sum_gradients

RNG = np.random.default_rng(5150)


def test_outcome_labels_cover_four_patterns_per_pair():
    labels = outcome_labels(4)
    assert len(labels) == 16
    assert OutcomeLabel(1, "++") in labels
    assert OutcomeLabel(4, "-+") in labels


def test_distribution_normalizes_and_pairs_up():
    dist = outcome_distribution(2, 4, RNG.uniform(-1.0, 1.0, 4))
    probs = dist.as_array()
    assert probs.shape == (16,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    for j in range(1, 5):
        # same-parity outcomes share the interference term exactly
        assert dist.probability(OutcomeLabel(j, "++")) == dist.probability(
            OutcomeLabel(j, "--")
        )
        assert dist.probability(OutcomeLabel(j, "+-")) == dist.probability(
            OutcomeLabel(j, "-+")
        )


def test_frozen_probabilities_at_uniform_phase():
    dist = outcome_distribution(2, 4, np.full(4, 0.1))
    agree = (1.0 + math.cos(0.2)) / 16.0
    disagree = (1.0 - math.cos(0.2)) / 16.0
    assert agree == pytest.approx(0.1237541611150776, abs=1e-15)  # frozen
    for j in range(1, 5):
        assert dist.probability(OutcomeLabel(j, "++")) == pytest.approx(agree, abs=1e-14)
        assert dist.probability(OutcomeLabel(j, "+-")) == pytest.approx(
            disagree, abs=1e-14
        )


def test_interference_argument_scales_with_photon_number():
    phi = np.array([0.3, -0.1, 0.2, 0.05])
    for photons in (2, 4, 6):
        dist = outcome_distribution(photons, 4, phi)
        expected = (1.0 + math.cos((photons / 2) * (phi[0] + phi[1]))) / 16.0
        assert dist.probability(OutcomeLabel(1, "++")) == pytest.approx(
            expected, abs=1e-14
        )


def test_classical_matrix_closed_form_on_the_original_chart():
    # (N^2 / 4d) * (2 I + C) with C the ring-adjacency matrix
    for photons, nodes in ((2, 4), (4, 6), (6, 8)):
        matrix = cfim(photons, nodes, np.zeros(nodes)).entries
        adjacency = np.zeros((nodes, nodes))
        for j in range(nodes):
            adjacency[j, (j + 1) % nodes] = 1.0
            adjacency[(j + 1) % nodes, j] = 1.0
        expected = photons**2 / (4.0 * nodes) * (2.0 * np.eye(nodes) + adjacency)
        np.testing.assert_allclose(matrix, expected, atol=1e-10)


def test_classical_matrix_is_phase_independent_everywhere():
    # The 1/(1+c) + 1/(1-c) = 2/sin^2 cancellation removes the phase point
    # entirely, including points where some outcomes have zero probability.
    at_zero = cfim(2, 4, np.zeros(4)).entries
    for _ in range(10):
        phi = RNG.uniform(-3.0, 3.0, 4)
        np.testing.assert_allclose(cfim(2, 4, phi).entries, at_zero, atol=1e-12)


def test_classical_never_exceeds_quantum_information():
    from ghzsense.qfim import qfim_pure

    for photons, nodes in ((2, 4), (4, 6)):
        gap = (
            qfim_pure(photons, nodes, np.zeros(nodes)).entries
            - cfim(photons, nodes, np.zeros(nodes)).entries
        )
        eigs = np.linalg.eigvalsh(gap)
        assert eigs.min() >= -1e-10


def test_brute_force_oracle_agrees_where_probabilities_are_positive():
    for _ in range(10):
        nodes = int(RNG.integers(3, 7))
        photons = int(RNG.choice([2, 4]))
        phi = RNG.uniform(0.05, 0.45, nodes)  # keeps every outcome populated
        analytic = cfim(photons, nodes, phi)
        oracle = cfim_brute_force_oracle(photons, nodes, phi)
        np.testing.assert_allclose(analytic.entries, oracle.entries, atol=1e-6)


def test_brute_force_oracle_refuses_degenerate_points():
    # at phi = 0 the disagree outcomes have probability exactly zero
    with pytest.raises(ValidationError):
        cfim_brute_force_oracle(2, 4, np.zeros(4))


def test_pair_sum_gradients_shape_and_content():
    grads = pair_sum_gradients(4, original_chart(4))
    assert grads.shape == (4, 4)
    np.testing.assert_allclose(grads[0], [1.0, 1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(grads[3], [1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_distribution_rejects_negative_or_unnormalized_input():
    labels = outcome_labels(4)
    bad = {label: -0.1 for label in labels}
    with pytest.raises(ValidationError):
        OutcomeDistribution(bad, 2, 4, np.zeros(4))


def test_validated_distribution_cannot_be_edited():
    dist = outcome_distribution(2, 4, np.full(4, 0.1))
    with pytest.raises(TypeError):
        dist.probabilities[OutcomeLabel(1, "++")] = 0.9
    with pytest.raises(ValueError):
        dist.array[0] = 0.9
    assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    # the distribution keeps its own copy of the array it was built from
    probs = dist.as_array()
    copied = OutcomeDistribution(probs, 2, 4, np.full(4, 0.1))
    probs[0] = 0.9
    assert copied.probability(OutcomeLabel(1, "++")) == dist.probability(OutcomeLabel(1, "++"))


def test_ring_size_cap_is_checked_before_the_chart_is_built():
    # the phases are never looked at: the count check comes first
    for build in (cfim, cfim_brute_force_oracle):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            build(2, MAX_NODES + 1, None)
