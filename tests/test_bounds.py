import math
import re

import numpy as np
import pytest

from ghzsense import qfim, reparam
from ghzsense.bounds import (
    bound_report,
    exact_crb,
    heisenberg_sweep,
    sweep_to_csv,
    weak_crb,
    weak_vs_exact_check,
)
from ghzsense.errors import SingularMatrixError, ValidationError
from ghzsense.measurement import cfim
from ghzsense.montecarlo import crb_saturation_experiment
from ghzsense.qfim import qfim_pure
from ghzsense.reparam import build_mc, pushforward_fisher


def random_pd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * 1e-3 * np.eye(dim)


def test_exact_bound_on_identity_is_alpha_squared():
    alpha = np.array([0.3, -0.4, 0.5])
    assert exact_crb(np.eye(3), alpha) == pytest.approx(float(alpha @ alpha), abs=1e-14)


def test_exact_bound_scales_inversely_with_shots():
    matrix = np.diag([2.0, 5.0])
    alpha = np.array([1.0, 1.0])
    one = exact_crb(matrix, alpha, shots=1)
    many = exact_crb(matrix, alpha, shots=250)
    assert many == pytest.approx(one / 250.0, rel=1e-12)


def test_weak_bound_on_diagonal_matrix():
    matrix = np.diag([4.0, 1.0])
    alpha = np.array([1.0, 0.0])
    # (a.a)^2 / a^T F a = 1 / 4
    assert weak_crb(matrix, alpha) == pytest.approx(0.25, abs=1e-14)


def test_weak_never_exceeds_exact_on_random_pd_matrices():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        matrix = random_pd(rng, dim)
        alpha = rng.normal(size=dim)
        weak = weak_crb(matrix, alpha)
        exact = exact_crb(matrix, alpha)
        assert exact - weak >= -1e-12


def test_eigenvector_weights_achieve_equality():
    rng = np.random.default_rng(777)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        matrix = random_pd(rng, dim)
        _, vecs = np.linalg.eigh(matrix)
        k = int(rng.integers(0, dim))
        alpha = vecs[:, k] * float(rng.uniform(0.5, 2.0))
        weak = weak_crb(matrix, alpha)
        exact = exact_crb(matrix, alpha)
        assert abs(weak - exact) <= 1e-10


def test_first_diagonal_reciprocal_never_exceeds_inverse_diagonal():
    # 1/S_11 <= (S^-1)_11 for every positive definite S: the weak-vs-exact
    # comparison at alpha = e_0, whose sides are those two values bit for bit
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        matrix = random_pd(rng, dim)
        first = np.eye(1, dim)[0]
        report = weak_vs_exact_check(matrix, first)
        assert report.weak_side == 1.0 / matrix[0, 0]
        assert report.exact_side == np.linalg.solve(matrix, first)[0]
        assert report.weak_side <= np.linalg.inv(matrix)[0, 0] + 1e-12


def test_weak_vs_exact_report_fields():
    matrix = pushforward_fisher(
        qfim_pure(2, 4, np.zeros(4)), build_mc(4), drop_irrelevant=True
    )
    alpha = np.array([1.0, 0.0, 0.0])
    report = weak_vs_exact_check(matrix, alpha)
    assert report.alpha_is_eigenvector
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    assert report.weak_side == pytest.approx(0.25, abs=1e-12)
    assert report.exact_side == pytest.approx(0.25, abs=1e-12)
    first = weak_vs_exact_check(matrix, np.eye(1, 3)[0])
    assert first.weak_side == 1.0 / matrix.entries[0, 0]
    assert first.exact_side == exact_crb(matrix, np.eye(1, 3)[0])


def test_exact_bound_refuses_singular_matrices():
    singular = qfim_pure(2, 4, np.zeros(4))
    alpha = np.full(4, 0.25)
    with pytest.raises(SingularMatrixError):
        exact_crb(singular, alpha)


def test_singular_quantum_matrix_message_reports_the_eigenvalue_rule():
    entries = qfim_pure(2, 8, np.zeros(8)).entries
    eigs = np.linalg.eigvalsh(entries)
    with pytest.raises(SingularMatrixError) as caught:
        exact_crb(entries, np.full(8, 1.0 / 8.0))
    # the smallest eigenvalue is rounding noise, so it is read from eigvalsh
    assert str(caught.value) == (
        "Fisher matrix is numerically singular "
        f"(smallest eigenvalue {eigs[0]:.3e}, largest 8.536e-01); "
        "re-express it in an invertible chart via a reparametrization "
        "before taking the exact bound"
    )


def test_exact_bound_refuses_a_matrix_containing_nan():
    with pytest.raises(ValidationError):
        exact_crb(np.array([[1.0, 0.0], [0.0, np.nan]]), np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((3, 3), np.nan),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.ones((2, 3)),
        np.ones((2, 2, 2)),
    ],
    ids=["nan", "inf", "non-square", "3-D"],
)
def test_exact_bound_refuses_malformed_raw_arrays(matrix):
    with pytest.raises(ValidationError):
        exact_crb(matrix, np.ones(matrix.shape[0]))


def test_weak_bound_refuses_a_matrix_containing_nan():
    with pytest.raises(ValidationError):
        weak_crb(np.array([[1.0, 0.0], [0.0, np.nan]]), np.array([1.0, 1.0]))


def test_weak_vs_exact_check_refuses_a_matrix_containing_inf():
    with pytest.raises(ValidationError):
        weak_vs_exact_check(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bound", [exact_crb, weak_crb])
def test_bounds_refuse_a_zero_weight(bound):
    with pytest.raises(ValidationError, match="^weight vector must be nonzero$"):
        bound(np.eye(3), np.zeros(3))


WEIGHT_BOUNDS = (exact_crb, weak_crb, bound_report, weak_vs_exact_check)


@pytest.mark.parametrize(
    "first, gives",
    [
        # (alpha^T alpha)^2 = 1e600 overflows as written, and at 1e154
        # alpha^T F alpha = 4e308 too, but both bounds are normal floats
        (1e150, 2.5e299),
        (1e154, 2.5e307),
        # (alpha^T alpha)^2 = 1e-600 underflows as written, but both bounds
        # are normal floats
        (1e-150, 2.5e-301),
        (1e200, "alpha^T alpha = inf"),
        # alpha^T alpha is subnormal or zero, though the weight is nonzero
        # and lies along theta_1, off the null space
        (1e-154, "alpha^T alpha = 1.000e-308"),
        (1e-160, "alpha^T alpha = 1.000e-320"),
        (1e-200, "alpha^T alpha = 0.000e+00"),
    ],
    ids=["1e150", "1e154", "1e-150", "1e200", "1e-154", "1e-160", "1e-200"],
)
def test_a_weight_beyond_the_float_range_is_refused(first, gives):
    matrix = cfim(2, 4, np.zeros(4), build_mc(4).chart(True))
    alpha = np.array([first, 0.0, 0.0])
    if isinstance(gives, str):
        for bound in WEIGHT_BOUNDS:
            with pytest.raises(
                ValidationError,
                match=f"^weight vector gives {re.escape(gives)}, not a positive finite normal float$",
            ):
                bound(matrix, alpha)
        return
    exact = float(alpha @ np.linalg.solve(matrix.entries, alpha))
    # the weak bound is the value of its expression where float64 neither
    # overflows nor underflows: at the weight scaled to 1 by 2^-k, and
    # multiplied back by 2^2k, each scaling exact
    k = round(math.log2(first))
    weak = math.ldexp(weak_crb(matrix, np.ldexp(alpha, -k)), 2 * k)
    assert exact == pytest.approx(gives, rel=1e-15)
    assert weak == pytest.approx(gives, rel=1e-15)
    report = bound_report(matrix, alpha)
    check = weak_vs_exact_check(matrix, alpha)
    assert exact_crb(matrix, alpha) == report.exact_bound == check.exact_side == exact
    assert weak_crb(matrix, alpha) == report.weak_bound == check.weak_side == weak
    assert check.alpha_is_eigenvector and check.rayleigh_quotient == 4.0


def test_a_weak_bound_accepted_as_written_keeps_every_bit():
    # the scaled form is taken only where the expression as written is not
    # a normal float: x ** 2 is libm's pow, which is not correctly rounded,
    # so the scaled form would move the last bit of some of these bounds
    rng = np.random.default_rng(5)
    written_count = 0
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        matrix = random_pd(rng, dim)
        alpha = rng.normal(size=dim) * 10.0 ** rng.uniform(-70.0, 150.0)
        try:
            written = float(alpha @ alpha) ** 2 / float(alpha @ matrix @ alpha)
        except OverflowError:
            continue
        written_count += 1
        assert weak_crb(matrix, alpha) == written
    assert written_count > 150


def test_weak_vs_exact_check_refuses_what_exact_crb_refuses():
    # lambda_min / lambda_max = 1e-12 is below RANK_RTOL, although positive
    matrix = np.diag([1.0, 1e-12])
    for check in (exact_crb, weak_vs_exact_check):
        with pytest.raises(SingularMatrixError, match="^Fisher matrix is numerically singular"):
            check(matrix, np.ones(2))


def test_weak_vs_exact_check_certifies_an_accepted_matrix_once(monkeypatch):
    # one singularity test, then one single-column solve, so the exact side
    # is exact_crb's own value bit for bit
    calls = []
    cholesky = np.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(args)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    matrix = random_pd(np.random.default_rng(11), 6)
    alpha = np.arange(1.0, 7.0)
    report = weak_vs_exact_check(matrix, alpha)
    assert len(calls) == 1
    assert report.exact_side == exact_crb(matrix, alpha)
    assert report.weak_side == weak_crb(matrix, alpha)
    first = weak_vs_exact_check(matrix, np.eye(1, 6)[0])
    assert first.weak_side == 1.0 / matrix[0, 0]
    assert first.exact_side == exact_crb(matrix, np.eye(1, 6)[0])


def test_weak_vs_exact_check_recognizes_an_eigenvector_of_a_large_matrix():
    matrix = 1e8 * np.array([[2.0, 1.0], [1.0, 3.0]])
    _, vecs = np.linalg.eigh(matrix)
    report = weak_vs_exact_check(matrix, vecs[:, 0])
    assert report.alpha_is_eigenvector
    assert abs(report.gap) <= 1e-12 * report.exact_side


def test_weak_vs_exact_check_rejects_a_non_eigenvector_of_a_small_matrix():
    matrix = 1e-10 * np.array([[2.0, 1.0], [1.0, 3.0]])
    report = weak_vs_exact_check(matrix, np.array([1.0, 0.0]))
    assert report.weak_side == pytest.approx(5e9, rel=1e-12)
    assert report.exact_side == pytest.approx(6e9, rel=1e-12)
    assert not report.alpha_is_eigenvector


def test_exact_bound_refuses_a_bare_lower_triangle_and_the_matrix_it_defines():
    # A raw array must be symmetric, so the bare triangle is refused.  The
    # symmetric matrix it defines has eigenvalues 1 and 1 +/- sqrt(2) c: the
    # smallest is 1.9e-9, below 1e-9 times the largest, so the certificate
    # fails and eigvalsh confirms the refusal.
    c = (1.0 - 1.9e-9) / np.sqrt(2.0)
    lower = np.array([[1.0, 0.0, 0.0], [c, 1.0, 0.0], [c, 0.0, 1.0]])
    alpha = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="asymmetry"):
        exact_crb(lower, alpha)
    symmetric = np.tril(lower) + np.tril(lower, -1).T
    np.testing.assert_allclose(
        np.linalg.eigvalsh(symmetric), [1.9e-9, 1.0, 2.0 - 1.9e-9], rtol=1e-6, atol=0
    )
    with pytest.raises(SingularMatrixError, match="smallest eigenvalue 1.900e-09"):
        exact_crb(symmetric, alpha)


def test_weak_bound_works_on_singular_matrices_off_the_null_space():
    singular = cfim(2, 4, np.zeros(4))
    alpha = np.full(4, 0.25)
    # frozen value: weak bound on the ring-average phase at one shot
    assert weak_crb(singular, alpha) == pytest.approx(0.25, abs=1e-12)


def test_weak_bound_refuses_null_space_weights():
    singular = qfim_pure(2, 4, np.zeros(4))
    alternating = np.array([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        weak_crb(singular, alternating)


def test_bound_report_degrades_gracefully_on_singular_input():
    singular = cfim(2, 4, np.zeros(4))
    alpha = np.full(4, 0.25)
    report = bound_report(singular, alpha, 1)
    assert report.weak_bound == pytest.approx(0.25, abs=1e-12)
    assert report.exact_bound is None
    assert "reparametrization" in report.exact_unavailable_reason


def test_bound_report_on_regular_matrix_has_no_reason():
    matrix = pushforward_fisher(
        cfim(4, 4, np.zeros(4)), build_mc(4), drop_irrelevant=True
    )
    report = bound_report(matrix, np.array([1.0, 0.0, 0.0]), 10)
    assert report.exact_bound == pytest.approx(1.0 / 160.0, rel=1e-12)
    assert report.exact_unavailable_reason is None


def test_alpha_shape_is_validated():
    with pytest.raises(ValidationError):
        exact_crb(np.eye(3), np.array([1.0, 0.0]))


@pytest.mark.parametrize("photons", [2, 4, 6, 8])
def test_sweep_reaches_the_heisenberg_point(photons):
    rows = heisenberg_sweep([photons], [4, 6, 8])
    for row in rows:
        assert row.qcrb == pytest.approx(1.0 / photons, abs=1e-10)
        assert row.ccrb == pytest.approx(1.0 / photons, abs=1e-10)
        assert row.ratio == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("photons", [2, 4, 6])
def test_sweep_matches_the_pushforward_route(photons):
    for nodes in (4, 8, 64, 256):
        rep = build_mc(nodes)
        zeros = np.zeros(nodes)
        basis = np.zeros(nodes - 1)
        basis[0] = 1.0
        quantum = pushforward_fisher(qfim_pure(photons, nodes, zeros), rep, True)
        classical = pushforward_fisher(cfim(photons, nodes, zeros), rep, True)
        expected = [math.sqrt(exact_crb(m, basis)) for m in (quantum, classical)]
        (row,) = heisenberg_sweep([photons], [nodes])
        np.testing.assert_array_max_ulp(np.array([row.qcrb, row.ccrb]), expected, maxulp=4)


@pytest.mark.parametrize(
    "photons, nodes, message",
    [
        ([2, 3], [4], "photon count must be an even integer >= 2, got 3"),
        ([2], [4, 5], "node count must be an even integer >= 4, got 5"),
        ([2], [4, 2**13], "node count 8192 exceeds the cap"),
    ],
    ids=["odd-N", "odd-d", "d-above-cap"],
)
def test_sweep_validates_the_whole_grid_before_building_any_chart(
    photons, nodes, message, monkeypatch
):
    computed = []
    monkeypatch.setattr(
        "ghzsense.bounds._mc_spectral_bounds",
        lambda *args: computed.append(args) or (1.0, 1.0),
    )
    with pytest.raises(ValidationError, match=message):
        heisenberg_sweep(photons, nodes)
    assert computed == []


def test_sweep_csv_layout():
    text = sweep_to_csv(heisenberg_sweep([2, 4], [4]))
    lines = text.strip().split("\n")
    assert lines[0] == "N,d,qcrb,ccrb,ratio"
    assert len(lines) == 3
    n, d, qcrb, _, _ = lines[1].split(",")
    assert (n, d) == ("2", "4")
    assert float(qcrb) == pytest.approx(0.5, abs=1e-12)


def test_shots_must_be_positive():
    with pytest.raises(ValidationError):
        exact_crb(np.eye(2), np.array([1.0, 0.0]), shots=0)


LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvalsh", "inv", "lstsq", "matrix_rank",
    "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


def test_average_bounds_at_large_rings_form_no_chart_and_factorize_nothing(monkeypatch):
    # d = 3600 and 4096 are past where the dense route's certificate refused
    # these well-posed bounds; the spectral route builds no chart or mc
    # reparametrization and calls no np.linalg function
    def refuse(*args, **kwargs):
        raise AssertionError("called on the spectral route")

    monkeypatch.setattr(qfim.Chart, "__post_init__", refuse)
    monkeypatch.setattr(reparam, "build_mc", refuse)
    for name in LINALG_FUNCTIONS:
        monkeypatch.setattr(np.linalg, name, refuse)
    (row,) = heisenberg_sweep([2], [4096])
    assert (row.qcrb, row.ccrb, row.ratio) == (0.5, 0.5, 1.0)
    report = crb_saturation_experiment(2, 3600, np.full(3600, 0.1), 10**6, 50, 1)
    assert report.bound == 1.0 / (4 * 10**6)
    assert report.theta_true.shape == (3599,)
    assert np.isfinite(report.ratio) and report.ratio > 0.0
