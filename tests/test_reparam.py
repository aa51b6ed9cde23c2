import dataclasses
import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsense import bounds, qfim, reparam
from ghzsense.bounds import bound_report, exact_crb, heisenberg_sweep, weak_crb
from ghzsense.errors import ValidationError
from ghzsense.ghz_state import MAX_NODES
from ghzsense.measurement import cfim
from ghzsense.montecarlo import crb_saturation_experiment
from ghzsense.qfim import original_chart, pair_sum_gradients, qfim_pure, rank_and_nullspace
from ghzsense.reparam import (
    Reparametrization,
    _mc_phases,
    build_mc,
    build_orthogonal_d4,
    closed_form_inverse_check,
    pushforward_fisher,
)

# Columns of the exact d=4 inverse, frozen by hand: theta_0 is the
# alternating combination, theta_1 the average.
MC4_INVERSE = np.array(
    [
        [-1.0, 1.0, 2.0, 0.0],
        [1.0, 1.0, 0.0, 2.0],
        [-1.0, 1.0, -2.0, 0.0],
        [1.0, 1.0, 0.0, -2.0],
    ]
)


def test_mc_forward_rows_for_four_nodes():
    rep = build_mc(4)
    np.testing.assert_allclose(rep.forward[0], [-0.25, 0.25, -0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(rep.forward[1], [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(rep.forward[2], [0.25, 0.0, -0.25, 0.0], atol=1e-15)
    np.testing.assert_allclose(rep.forward[3], [0.0, 0.25, 0.0, -0.25], atol=1e-15)


def test_mc_inverse_matches_frozen_matrix():
    rep = build_mc(4)
    np.testing.assert_allclose(rep.inverse, MC4_INVERSE, atol=1e-12)


def integer_mc_inverse(nodes: int) -> np.ndarray:
    """The exact mc inverse, written out column by column.

    Column 0 alternates (-1, +1, ...); column 1 is all ones; column c >= 2,
    with m = c // 2, holds d - 2m on its first m rows of c's parity and -2m
    on the rest of them.
    """
    inverse = np.zeros((nodes, nodes))
    rows = np.arange(nodes)
    inverse[:, 0] = np.where(rows % 2 == 0, -1.0, 1.0)
    inverse[:, 1] = 1.0
    for col in range(2, nodes):
        m = col // 2
        matching = rows[rows % 2 == col % 2]
        inverse[matching[:m], col] = nodes - 2 * m
        inverse[matching[m:], col] = -2 * m
    return inverse


@settings(deadline=None, max_examples=40)
@given(nodes=st.integers(2, 256).map(lambda half: 2 * half))
@example(nodes=4)
@example(nodes=512)
def test_mc_inverse_is_the_integer_closed_form(nodes):
    np.testing.assert_array_equal(build_mc(nodes).inverse, integer_mc_inverse(nodes))


def test_mc_inverse_is_exact_above_the_size_where_numerical_inversion_failed():
    # np.linalg.inv's column sums missed (0, d, 0, ...) by more than 1e-9 here
    np.testing.assert_array_equal(build_mc(2050).inverse, integer_mc_inverse(2050))


@pytest.mark.parametrize("nodes", [4, 6, 8, 10])
def test_mc_is_a_true_inverse_pair(nodes):
    rep = build_mc(nodes)
    np.testing.assert_allclose(rep.forward @ rep.inverse, np.eye(nodes), atol=1e-12)
    np.testing.assert_allclose(rep.inverse @ rep.forward, np.eye(nodes), atol=1e-12)


@pytest.mark.parametrize("nodes", [4, 6, 8])
def test_mc_inverse_column_sums_single_out_the_average(nodes):
    # Summing phi over the ring picks out d * theta_1 and nothing else.
    rep = build_mc(nodes)
    sums = rep.inverse.sum(axis=0)
    expected = np.zeros(nodes)
    expected[1] = nodes
    np.testing.assert_allclose(sums, expected, atol=1e-9)


@pytest.mark.parametrize("nodes", range(4, 17, 2))
def test_average_phase_decouples_exactly_in_integers(nodes):
    # G J from the integer inverse and the integer pair-sum gradients: its
    # Gram matrix has theta_1 row (4d, 0, ...) and its column sums s are
    # (2d, 0, ...), so 4d^2 F, the reduced matrix F of either kind scaled
    # to integers, has theta_1 row (4d^2 N^2, 0, ...): F's is (N^2, 0, ...)
    d = nodes
    g = pair_sum_gradients(d).astype(np.int64)
    jac = build_mc(d).inverse[:, 1:].astype(np.int64)
    assert np.array_equal(jac, build_mc(d).inverse[:, 1:])
    gj = g @ jac
    gram, s = gj.T @ gj, gj.sum(axis=0)
    first = np.eye(1, d - 1, dtype=np.int64)[0]
    assert np.array_equal(gram[0], 4 * d * first)
    assert np.array_equal(s, 2 * d * first)
    for photons in (2, 4, 6):
        classical = d * photons**2 * gram
        quantum = 2 * d * photons**2 * gram - photons**2 * np.outer(s, s)
        for scaled in (classical, quantum):
            assert np.array_equal(scaled[0], 4 * d**2 * photons**2 * first)
    # in the node chart 4d^2 QFIM / N^2 = 2d G^T G - s s^T, s all 2s: 4(d - 1)
    # on the diagonal, 2d - 4 on the cyclic neighbours and -4 elsewhere
    node_s = g.sum(axis=0)
    node = 2 * d * g.T @ g - np.outer(node_s, node_s)
    offset = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
    neighbour = (offset == 1) | (offset == d - 1)
    closed = np.where(offset == 0, 4 * (d - 1), np.where(neighbour, 2 * d - 4, -4))
    assert np.array_equal(node, closed)


def fraction_inverse(matrix):
    """The inverse of a square list of Fraction rows, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_fisher(grads, photons):
    """The QFIM and CFIM as Fraction rows, from an integer pair-sum gradient matrix.

    ``grads`` has one row per pair, so d rows.  With gram = grads^T grads and
    s its column sums, the CFIM is N^2 gram / 4d and the QFIM
    N^2 gram / 2d - N^2 s s^T / 4d^2.
    """
    d, n2 = len(grads), photons**2
    gram, s = (grads.T @ grads).tolist(), grads.sum(axis=0).tolist()
    return {
        "quantum": [
            [Fraction(n2 * g, 2 * d) - Fraction(n2 * a * b, 4 * d * d) for g, b in zip(row, s)]
            for row, a in zip(gram, s)
        ],
        "classical": [[Fraction(n2 * g, 4 * d) for g in row] for row in gram],
    }


def exact_node_fisher(nodes, photons):
    """The node-chart QFIM and CFIM as Fraction rows, from the integer G."""
    return exact_fisher(pair_sum_gradients(nodes).astype(np.int64), photons)


def exact_reduced_fisher(nodes, photons):
    """The reduced mc QFIM and CFIM as Fraction rows, from the integer G J."""
    jac = build_mc(nodes).inverse[:, 1:].astype(np.int64)
    return exact_fisher(pair_sum_gradients(nodes).astype(np.int64) @ jac, photons)


def test_the_frozen_two_photon_four_node_matrix_is_exactly_the_rational_one():
    # every entry is a dyadic rational, (1/4) {3, 1, -1} by cyclic offset
    # {0, +-1, 2}, so its float is the rational itself
    offset = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4
    frozen = [[Fraction((3, 1, -1, 1)[k], 4) for k in row] for row in offset.tolist()]
    assert exact_node_fisher(4, 2)["quantum"] == frozen
    computed = qfim_pure(2, 4, np.zeros(4)).entries
    assert [[Fraction(x) for x in row] for row in computed.tolist()] == frozen


@pytest.mark.parametrize("nodes", range(4, 17, 2))
def test_the_alternating_vector_is_exactly_null_in_the_node_chart(nodes):
    # row j of G is e_j + e_(j+1), and on an even ring (-1)^j + (-1)^(j+1) = 0
    # for every pair, the wrap-around one included
    alternating = [(-1) ** j for j in range(nodes)]
    assert not (pair_sum_gradients(nodes).astype(np.int64) @ alternating).any()
    for photons in (2, 4, 6):
        for kind, matrix in exact_node_fisher(nodes, photons).items():
            image = [sum(x * a for x, a in zip(row, alternating)) for row in matrix]
            assert image == [0] * nodes, kind


@pytest.mark.parametrize("nodes", range(4, 17, 2))
def test_reduced_inverses_are_exactly_their_closed_form(nodes):
    # N^2 F^-1 = 1 (+) c ((2/d) L - (8/d^2) s s^T), L = tridiag(-1, 2, -1) and
    # s = (+1, -1, ...) of size d - 2, c = 1 (quantum) or 2 (classical); so
    # theta_1's bound is 1/N^2 and every other theta's is 4c(d - 2)/(d^2 N^2)
    d, k = nodes, nodes - 2
    lap = 2 * np.eye(k, dtype=int) - np.eye(k, k, 1, dtype=int) - np.eye(k, k, -1, dtype=int)
    sign = (-1) ** np.arange(k)
    for photons in (2, 4, 6):
        fisher = exact_reduced_fisher(d, photons)
        for kind, c in (("quantum", 1), ("classical", 2)):
            block = [
                [c * (Fraction(2 * int(entry), d) - Fraction(8 * int(a * b), d * d))
                 for entry, b in zip(row, sign)]
                for row, a in zip(lap, sign)
            ]
            closed = [[Fraction(1), *[Fraction(0)] * k], *([Fraction(0), *row] for row in block)]
            inverse = fraction_inverse(fisher[kind])
            assert [[photons**2 * x for x in row] for row in inverse] == closed
            assert [inverse[i][i] for i in range(1, k + 1)] == (
                [Fraction(4 * c * (d - 2), d * d * photons**2)] * k
            )


@pytest.mark.parametrize(
    "kind, information, weak, exact",
    [
        ("quantum", qfim_pure, Fraction(1, 24), Fraction(3, 32)),
        ("classical", cfim, Fraction(1, 12), Fraction(3, 16)),
    ],
)
def test_theta_3_bounds_at_eight_nodes_are_exact_rationals(kind, information, weak, exact):
    # theta_3 is the third kept coordinate; its weak bound is 4/9 of its exact one
    fisher = exact_reduced_fisher(8, 2)[kind]
    assert 1 / fisher[2][2] == weak
    assert fraction_inverse(fisher)[2][2] == exact
    assert weak / exact == Fraction(4, 9)
    matrix = information(2, 8, np.zeros(8), build_mc(8).chart(True))
    alpha = np.eye(7)[2]
    assert weak_crb(matrix, alpha) == pytest.approx(float(weak), rel=1e-12)
    assert exact_crb(matrix, alpha) == pytest.approx(float(exact), rel=1e-12)


def test_the_four_node_orthogonal_chart_is_exactly_criterion_5():
    # the chart's directions W are halves, so G (2W) is integer, and each
    # Fisher matrix, quadratic in the directions, is a quarter of its value
    # there: at N = 2 the reduced QFIM is I and the CFIM diag(1, 1/2, 1/2);
    # the ring average is half of the first coordinate, and its exact bound
    # is 1/4 for both kinds
    rep = build_orthogonal_d4()
    twice = (2 * rep.inverse[:, 1:]).astype(np.int64)
    assert np.array_equal(twice, 2 * rep.inverse[:, 1:])
    grads = pair_sum_gradients(4).astype(np.int64) @ twice
    fisher = {
        kind: [[x / 4 for x in row] for row in matrix]
        for kind, matrix in exact_fisher(grads, 2).items()
    }
    assert fisher["quantum"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert fisher["classical"] == [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]]
    half = [Fraction(1, 2), 0, 0]
    information = {"quantum": qfim_pure, "classical": cfim}
    for kind, matrix in fisher.items():
        inverse = fraction_inverse(matrix)
        bound = sum(a * x * b for row, a in zip(inverse, half) for x, b in zip(row, half))
        assert bound == Fraction(1, 4), kind
        pushed = pushforward_fisher(information[kind](2, 4, np.zeros(4)), rep, True)
        assert [[Fraction(x) for x in row] for row in pushed.entries.tolist()] == matrix
        assert exact_crb(pushed, [0.5, 0.0, 0.0]) == 0.25


def rational_weights(size):
    """Dyadic weights, each exact as a float: e_1, all ones, halvings and a tilt."""
    first = [Fraction(int(i == 0)) for i in range(size)]
    halvings = [Fraction((-1) ** i, 2**i) for i in range(size)]
    tilt = [Fraction(3, 4), *([Fraction(0)] * (size - 2)), Fraction(-5, 8)]
    return [first, [Fraction(1)] * size, halvings, tilt]


@pytest.mark.parametrize("nodes", [4, 6, 8])
@pytest.mark.parametrize("photons", [2, 4])
def test_weak_never_exceeds_exact_at_rational_weights(nodes, photons):
    # weak = (a^T a)^2 / a^T F a and exact = a^T F^-1 a as rationals; theta_1
    # decouples (its row of F is (N^2, 0, ...)), so e_1 gives equality
    information = {"quantum": qfim_pure, "classical": cfim}
    chart = build_mc(nodes).chart(True)
    for kind, fisher in exact_reduced_fisher(nodes, photons).items():
        inverse = fraction_inverse(fisher)
        matrix = information[kind](photons, nodes, np.zeros(nodes), chart)
        for alpha in rational_weights(nodes - 1):
            norm2 = sum(a * a for a in alpha)
            quad = sum(a * x * b for row, a in zip(fisher, alpha) for x, b in zip(row, alpha))
            weak = norm2 * norm2 / quad
            exact = sum(a * x * b for row, a in zip(inverse, alpha) for x, b in zip(row, alpha))
            assert weak <= exact
            if alpha[0] == 1 and not any(alpha[1:]):
                assert weak == exact == Fraction(1, photons**2)
            floats = np.array([float(a) for a in alpha])
            assert weak_crb(matrix, floats) == pytest.approx(float(weak), rel=1e-12)
            assert exact_crb(matrix, floats) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("nodes", [3, 5, 7])
def test_mc_rejects_odd_rings(nodes):
    with pytest.raises(ValidationError):
        build_mc(nodes)


def test_closed_form_inverse_check_documents_the_discrepancy():
    # The textbook closed-form inverse disagrees with the exact integer
    # inverse beyond the first two columns; the integer one is authoritative.
    report = closed_form_inverse_check(4)
    assert report.max_abs_discrepancy == pytest.approx(4.0, abs=1e-12)
    assert report.matching_columns == (0, 1)
    np.testing.assert_allclose(report.numerical, MC4_INVERSE, atol=1e-12)


def test_closed_form_inverse_check_reports_the_read_only_mc_inverse():
    report = closed_form_inverse_check(8)
    assert not report.numerical.flags.writeable
    np.testing.assert_array_equal(report.numerical, build_mc(8).inverse)


def test_closed_form_check_first_two_columns_match_for_larger_rings():
    for nodes in (4, 6, 8):
        report = closed_form_inverse_check(nodes)
        assert 0 in report.matching_columns
        assert 1 in report.matching_columns


def literal_closed_form(d):
    """The closed-form inverse filled entry by entry, as the published formula reads."""
    closed = np.zeros((d, d))
    for i in range(1, d + 1):
        parity_i = (-1.0) ** i
        for j in range(1, d + 1):
            if j == 1:
                closed[i - 1, j - 1] = parity_i
            elif j == 2:
                closed[i - 1, j - 1] = 1.0
            else:
                if parity_i != (-1.0) ** j:
                    continue
                offset = j - 2 + (1 if parity_i == 1.0 else 0)
                head = (1 if j - i >= 0 else 0) * (1.0 - offset / d)
                tail = (1 if i - j >= 0 else 0) * (offset / d)
                closed[i - 1, j - 1] = d * (head - tail)
    return closed


@pytest.mark.parametrize("nodes", range(4, 65, 2))
def test_closed_form_check_is_bit_identical_to_the_entrywise_formula(nodes):
    report = closed_form_inverse_check(nodes)
    closed = literal_closed_form(nodes)
    assert report.closed_form.tobytes() == closed.tobytes()
    gap = np.abs(closed - build_mc(nodes).inverse)
    assert report.max_abs_discrepancy == float(np.max(gap))
    assert report.matching_columns == tuple(
        col for col in range(nodes) if float(np.max(gap[:, col])) <= 1e-12
    )


def test_orthogonal_d4_is_its_own_transpose_inverse():
    rep = build_orthogonal_d4()
    np.testing.assert_allclose(rep.forward @ rep.forward.T, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(rep.inverse, rep.forward.T, atol=1e-15)
    assert rep.labels == ("phi_0", "phi_a", "phi_b", "phi_c")


def test_apply_maps_uniform_phases_to_pure_average():
    rep = build_mc(6)
    theta = rep.apply(np.full(6, 0.3))
    np.testing.assert_allclose(theta[1], 0.3, atol=1e-12)
    np.testing.assert_allclose(np.delete(theta, 1), np.zeros(5), atol=1e-12)
    # theta_0 = 0, so the kept coordinates map back to the phases
    np.testing.assert_allclose(_mc_phases(theta[None, 1:])[0], np.full(6, 0.3), atol=1e-12)


@pytest.mark.parametrize("photons", [2, 4, 6])
@pytest.mark.parametrize("nodes", [4, 6, 8])
def test_pushforward_removes_the_singularity(photons, nodes):
    base = qfim_pure(photons, nodes, np.zeros(nodes))
    rep = build_mc(nodes)
    reduced = pushforward_fisher(base, rep, drop_irrelevant=True)
    assert reduced.dim == nodes - 1
    assert rank_and_nullspace(reduced).rank == nodes - 1
    # average-phase diagonal entry and its decoupling from the rest
    assert reduced.entries[0, 0] == pytest.approx(photons**2, abs=1e-10)
    np.testing.assert_allclose(reduced.entries[0, 1:], 0.0, atol=1e-10)


def test_pushforward_keeps_the_irrelevant_row_when_asked():
    base = qfim_pure(2, 4, np.zeros(4))
    rep = build_mc(4)
    full = pushforward_fisher(base, rep, drop_irrelevant=False)
    assert full.dim == 4
    # theta_0 is flat: its whole row/column vanishes
    np.testing.assert_allclose(full.entries[0, :], 0.0, atol=1e-10)
    np.testing.assert_allclose(full.entries[:, 0], 0.0, atol=1e-10)


def test_d4_orthogonal_pushforwards_are_the_frozen_diagonals():
    rep = build_orthogonal_d4()
    quantum = pushforward_fisher(qfim_pure(2, 4, np.zeros(4)), rep, drop_irrelevant=True)
    classical = pushforward_fisher(cfim(2, 4, np.zeros(4)), rep, drop_irrelevant=True)
    np.testing.assert_allclose(quantum.entries, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(classical.entries, np.diag([1.0, 0.5, 0.5]), atol=1e-10)


def test_mc_pushforward_frozen_values_for_two_photons_four_nodes():
    base = qfim_pure(2, 4, np.zeros(4))
    reduced = pushforward_fisher(base, build_mc(4), drop_irrelevant=True)
    np.testing.assert_allclose(reduced.entries, np.diag([4.0, 8.0, 8.0]), atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(
    nodes=st.sampled_from([4, 6, 8, 16, 64, 256]),
    orthogonal=st.booleans(),
    drop=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(nodes=256, orthogonal=False, drop=True, seed=0)
@example(nodes=256, orthogonal=False, drop=False, seed=1)
@example(nodes=4, orthogonal=True, drop=True, seed=2)
@example(nodes=4, orthogonal=True, drop=False, seed=3)
def test_kept_column_pushforward_matches_the_full_product_then_slice(
    nodes, orthogonal, drop, seed
):
    rep = build_orthogonal_d4() if orthogonal else build_mc(nodes)
    nodes = rep.dim
    grads = np.random.default_rng(seed).normal(size=(nodes, nodes))
    base = qfim.FisherMatrix(grads @ grads.T / nodes, "quantum", original_chart(nodes), 2)
    pushed = pushforward_fisher(base, rep, drop).entries
    # the full product J^T F J, symmetrized, then the kept block
    full = rep.inverse.T @ base.entries @ rep.inverse
    full = 0.5 * (full + full.T)
    if drop:
        full = full[np.ix_(range(1, rep.dim), range(1, rep.dim))]
    assert np.array_equal(pushed, pushed.T)
    scale = float(np.max(np.abs(full)))
    assert np.max(np.abs(pushed - full)) <= 4 * np.finfo(float).eps * scale


def test_pushforward_refuses_a_matrix_over_another_dimension():
    with pytest.raises(
        ValidationError,
        match="^matrix dimension 6 does not match reparametrization dimension 4$",
    ):
        pushforward_fisher(qfim_pure(2, 6, np.zeros(6)), build_mc(4))


def test_pushforward_refuses_a_matrix_over_any_chart_but_the_node_chart():
    d4_chart = build_orthogonal_d4().chart(False)
    wide_chart = qfim.Chart("wide", ("a", "b", "c", "d"), np.eye(6, 4))
    refused = [
        (qfim_pure(2, 4, np.zeros(4), d4_chart), build_mc(4), "d4-orthogonal"),
        (qfim.FisherMatrix(np.eye(4), "quantum", wide_chart, 2), build_orthogonal_d4(), "wide"),
        # above the ring memo, a matrix over a non-node chart of the right size
        (qfim_pure(2, 514, np.zeros(514), build_mc(514).chart(False)), build_mc(514), "mc"),
    ]
    for matrix, rep, name in refused:
        with pytest.raises(
            ValidationError,
            match="^matrix must be over the node chart, whose directions are the identity; "
            f"got chart '{name}'$",
        ):
            pushforward_fisher(matrix, rep)
    # the node chart is recognized by value, not by identity: a chart with the
    # identity's directions built anew, also above the memo, is accepted
    labels = tuple(f"n{i}" for i in range(4))
    nodes = qfim_pure(2, 4, np.zeros(4), qfim.Chart("nodes", labels, np.eye(4)))
    assert pushforward_fisher(nodes, build_mc(4)).chart is build_mc(4).chart(False)
    assert pushforward_fisher(qfim_pure(2, 514, np.zeros(514)), build_mc(514)).dim == 514


def test_reparametrization_needs_at_least_one_label():
    with pytest.raises(ValidationError, match="^reparametrization needs at least one label$"):
        Reparametrization(np.zeros((0, 0)), np.zeros((0, 0)), (), "x")


def test_reparametrization_validates_inverse_consistency():
    forward = np.eye(4)
    inverse = 2.0 * np.eye(4)
    with pytest.raises(ValidationError):
        Reparametrization(forward, inverse, ("a", "b", "c", "d"), "bad")


def test_reparametrization_json_round_trip():
    rep = build_mc(6)
    doc = json.loads(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    assert doc["labels"] == list(rep.labels)
    assert doc["kept_indices"] == list(range(1, rep.dim))
    for name in ("forward", "inverse"):
        exact = getattr(rep, name)
        assert np.array_equal(np.array(doc[name]).view(np.int64), exact.view(np.int64))


def test_charts_are_built_and_validated_once_per_reparametrization(linalg_calls):
    rep = build_mc(16)
    base = qfim_pure(4, 16, np.zeros(16))
    calls = linalg_calls("matrix_rank")
    first = rep.chart(True)
    assert rep.chart(True) is first
    reduced = pushforward_fisher(base, rep, True)
    assert reduced.chart is first
    assert calls["matrix_rank"] == 1
    assert rep.chart(False) is rep.chart(False) is not first
    assert calls["matrix_rank"] == 2
    with pytest.raises(ValueError):
        first.directions[0, 0] = 1.0
    with pytest.raises(ValueError):
        rep.inverse[0, 0] = 1.0


@pytest.mark.parametrize("information", [qfim_pure, cfim])
def test_calls_with_one_chart_and_photon_number_validate_once(information, linalg_calls):
    chart = build_mc(16).chart(True)
    first_phases, second_phases = np.random.default_rng(4).uniform(-0.2, 0.2, (2, 16))
    first = information(4, 16, first_phases, chart)
    calls = linalg_calls("cholesky")
    second = information(4, 16, second_phases, chart)
    assert calls == {}  # taken from the chart's slot: nothing formed or validated
    assert second.entries is not first.entries
    np.testing.assert_array_equal(second.entries, first.entries)


def test_a_new_photon_number_replaces_the_chart_slot(linalg_calls):
    chart = build_mc(16).chart(True)
    four = qfim_pure(4, 16, np.zeros(16), chart)
    calls = linalg_calls("cholesky")
    qfim_pure(4, 16, np.zeros(16), chart)
    assert calls["cholesky"] == 0
    two = qfim_pure(2, 16, np.zeros(16), chart)
    assert calls["cholesky"] == 1
    np.testing.assert_array_equal(two.entries, four.entries / 4.0)
    again = qfim_pure(4, 16, np.zeros(16), chart)
    assert calls["cholesky"] == 2  # formed and validated anew
    np.testing.assert_array_equal(again.entries, four.entries)


def test_sweep_builds_and_validates_no_chart(monkeypatch, linalg_calls):
    # the sweep's bounds are 1/N^2, read off no matrix
    pushed = []
    built = []

    def counting(*args, **kwargs):
        pushed.append(args)
        return pushforward_fisher(*args, **kwargs)

    chart_check = qfim.Chart.__post_init__

    def counting_charts(chart):
        built.append(chart.name)
        chart_check(chart)

    monkeypatch.setattr(reparam, "pushforward_fisher", counting)
    monkeypatch.setattr(bounds, "pushforward_fisher", counting, raising=False)
    monkeypatch.setattr(qfim.Chart, "__post_init__", counting_charts)
    calls = linalg_calls("matrix_rank")
    (row,) = heisenberg_sweep([4], [16])
    assert (row.qcrb, row.ccrb) == (0.25, 0.25)
    assert calls["matrix_rank"] == 0
    assert pushed == []
    assert built == []


def fisher_pipeline(photons, nodes, phi):
    """The steps of one benchmark Fisher pipeline: charts, matrices, rank, bounds."""
    rep = build_mc(nodes)
    chart = rep.chart(True)
    original = qfim_pure(photons, nodes, phi)
    reduced = qfim_pure(photons, nodes, phi, chart)
    pushforward_fisher(cfim(photons, nodes, phi), rep, True)
    rank_and_nullspace(original)
    average = np.zeros(nodes - 1)
    average[0] = 1.0
    bound_report(reduced, average)
    heisenberg_sweep([photons], [nodes])


def test_a_pipeline_inverts_no_matrix_and_a_repeat_builds_no_ring_geometry(linalg_calls):
    phi = np.random.default_rng(16).uniform(-0.2, 0.2, 16)
    calls = linalg_calls("matrix_rank", "inv", "eigvalsh")
    fisher_pipeline(4, 16, phi)
    assert calls == {"matrix_rank": 2}  # inv is 0: the mc inverse is built exactly
    calls.clear()
    fisher_pipeline(4, 16, phi)
    assert calls == {}


def test_a_repeated_pipeline_forms_no_gram_and_factorizes_twice(monkeypatch, linalg_calls):
    phi = np.random.default_rng(16).uniform(-0.2, 0.2, 16)
    formed = []

    def counting(d, chart=None):
        formed.append(chart.name)
        return pair_sum_gradients(d, chart)

    monkeypatch.setattr(qfim, "pair_sum_gradients", counting)
    calls = linalg_calls("cholesky")
    fisher_pipeline(4, 16, phi)
    # one G per matrix formed into a slot: the reduced QFIM, and the original
    # chart's QFIM and CFIM
    assert sorted(formed) == ["mc", "original", "original"]
    # one PSD test per newly formed matrix and one certificate per exact
    # bound: 3 matrices from the charts' slots, the pushforward and 1 bound;
    # the sweep reads its bounds off the ring spectrum and factorizes nothing
    assert calls["cholesky"] == 5
    formed.clear()
    calls.clear()
    fisher_pipeline(4, 16, phi)
    assert formed == []
    # every slot is filled: only the pushforward's PSD test and the one
    # certificate remain
    assert calls["cholesky"] == 2


def test_saturation_experiment_inverts_no_matrix(linalg_calls):
    calls = linalg_calls("inv")
    crb_saturation_experiment(2, 8, np.full(8, 0.1), 10_000, 50, 3)
    assert calls["inv"] == 0


def test_reparametrization_keeps_its_own_copy_of_the_matrices():
    rep = build_mc(4)
    forward, inverse = np.array(rep.forward), np.array(rep.inverse)
    copied = Reparametrization(forward, inverse, rep.labels, "copy")
    chart = copied.chart(False)
    inverse[:] = 0.0
    forward[:] = 0.0
    np.testing.assert_array_equal(copied.inverse, MC4_INVERSE)
    np.testing.assert_array_equal(chart.directions, MC4_INVERSE)
    assert copied.chart(False) is chart
    np.testing.assert_array_equal(copied.forward @ copied.inverse, np.eye(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        copied.name = "renamed"


@pytest.mark.parametrize("nodes", [[4], np.array(4), 4.0, True])
def test_mc_rejects_non_integer_ring_sizes(nodes):
    with pytest.raises(ValidationError):
        build_mc(nodes)


def test_mc_is_shared_per_ring_size():
    rep = build_mc(8)
    assert build_mc(np.int64(8)) is rep
    assert build_mc(8) is rep
    assert rep.chart(True) is build_mc(8).chart(True)


def test_least_recently_used_ring_size_is_evicted():
    sizes = [4, 6, 8, 10]
    first = {d: build_mc(d) for d in sizes}
    assert build_mc(4) is first[4]  # 4 becomes the most recently used
    build_mc(12)  # evicts 6, the least recently used of five sizes
    assert build_mc(4) is first[4]
    assert build_mc(6) is not first[6]


def test_shared_ring_geometry_survives_concurrent_eviction():
    # Six sizes cycle through a four-size memo from more threads than cores,
    # with frequent thread switches, so lookups race with evictions.
    sizes = (4, 6, 8, 10, 12, 14)
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                d = sizes[(i + offset) % len(sizes)]
                rep = build_mc(d)
                assert rep.dim == d and rep.chart(True).size == d - 1
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_rings_above_the_memo_cutoff_are_built_per_call(monkeypatch):
    monkeypatch.setattr(qfim, "RING_MEMO_MAX_NODES", 8)
    assert build_mc(8) is build_mc(8)
    assert build_mc(10) is not build_mc(10)
    assert original_chart(8) is original_chart(8)
    assert original_chart(10) is not original_chart(10)


def test_ring_size_cap_is_checked_before_building():
    with pytest.raises(ValidationError, match="exceeds the cap"):
        build_mc(MAX_NODES + 2)
