"""The one reader of caller-supplied number arrays, and the one Cholesky certificate.

Every vector and matrix a caller hands the library goes through
``ghz_state._float_array``: strings, ragged lists, None, complex values,
non-finite entries and wrong shapes raise ValidationError, and a raw matrix
must also be symmetric.  The outcome tables keep their own conversion, whose refusals
name the outcome label, under the same rule.  Every matrix certificate is ``qfim._shifted_cholesky``, checked
here against the eigenvalue rule it stands in for.
"""

import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzsense import qfim
from ghzsense.bounds import (
    RANK_RTOL, BoundReport, SweepRow, WeakExactReport, bound_report, exact_crb,
    heisenberg_sweep, weak_crb, weak_vs_exact_check,
)
from ghzsense.errors import ValidationError
from ghzsense.ghz_state import RingState, apply_phases, build_input_state, phase_vector
from ghzsense.measurement import OutcomeDistribution, outcome_distribution
from ghzsense.montecarlo import (
    CountTable, EstimationResult, SaturationReport, crb_saturation_experiment, mle_estimate,
    sample_counts,
)
from ghzsense.qfim import (
    PSD_TOL,
    Chart,
    FisherMatrix,
    RankReport,
    original_chart,
    qfim_pure,
    rank_and_nullspace,
)
from ghzsense.reparam import (
    InverseCheckReport, Reparametrization, _mc_coordinates, build_mc, closed_form_inverse_check,
    pushforward_fisher,
)

PHOTONS, NODES = 2, 4
PHI = np.full(NODES, 0.01)
E1 = np.array([1.0, 0.0, 0.0])


def reduced_qfim() -> FisherMatrix:
    return qfim_pure(PHOTONS, NODES, PHI, build_mc(NODES).chart(True))


def count_table():
    return sample_counts(outcome_distribution(PHOTONS, NODES, PHI), 10_000, 1)


# --- the holes the reader closes -------------------------------------------


def test_exact_and_weak_bounds_refuse_an_asymmetric_array():
    # its symmetric part has the bound 1.254 on e2; the array used to give 1.0
    asymmetric = [[1.0, 0.9], [0.0, 1.0]]
    e2 = np.array([0.0, 1.0])
    assert exact_crb(0.5 * (np.array(asymmetric) + np.array(asymmetric).T), e2) == (
        pytest.approx(1.0 / (1.0 - 0.45**2))
    )
    for bound in (exact_crb, weak_crb):
        with pytest.raises(ValidationError, match="matrix asymmetry 9.000e-01 exceeds 1e-10"):
            bound(asymmetric, e2)


@pytest.mark.parametrize("field", ["forward", "inverse"])
def test_reparametrization_refuses_a_nan_matrix(field):
    rep = build_mc(NODES)
    matrices = {"forward": rep.forward.copy(), "inverse": rep.inverse.copy()}
    matrices[field][2, 1] = np.nan
    with pytest.raises(ValidationError, match=f"{field} matrix entries must be finite"):
        Reparametrization(**matrices, labels=rep.labels, name="mc")


def test_outcome_tables_name_a_value_that_is_not_a_number():
    text = ["a"] * (4 * NODES)
    with pytest.raises(
        ValidationError,
        match=r"^count for OutcomeLabel\(pair=1, pattern='\+\+'\) must be a number, got 'a'$",
    ):
        CountTable(text, PHOTONS, NODES)
    with pytest.raises(
        ValidationError,
        match=r"^probability for OutcomeLabel\(pair=1, pattern='\+\+'\) must be a number",
    ):
        OutcomeDistribution(text, PHOTONS, NODES)


def test_fisher_matrices_refuse_inconsistent_counts_and_charts():
    chart = original_chart(NODES)
    calls = {
        "photon count must be an even integer": lambda: FisherMatrix(
            np.eye(NODES), "quantum", chart, 3
        ),
        "photon count must be an integer, got 2.5": lambda: FisherMatrix(
            np.eye(NODES), "quantum", chart, 2.5
        ),
        "photon count must be an even integer >= 2, got -5": lambda: FisherMatrix(
            reduced_qfim().entries, "quantum", build_mc(NODES).chart(True), -5
        ),
        "chart must be a Chart, got ndarray": lambda: FisherMatrix(
            np.eye(NODES), "quantum", np.eye(NODES), PHOTONS
        ),
    }
    for message, call in calls.items():
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()


def test_value_types_take_no_fact_that_another_argument_fixes():
    # a table's shots are the sum of its counts, a matrix's nodes its chart's,
    # a state's nodes its amplitude rows, and RANK_RTOL the rank tolerance;
    # a result holds its inputs and what was computed, not arithmetic on them:
    # a Fisher matrix no phases (it is the same at every phase), a bound
    # report its matrix, not facts copied off it
    parameters = {
        CountTable: ["array", "photons", "nodes"],
        OutcomeDistribution: ["array", "photons", "nodes"],
        FisherMatrix: ["entries", "kind", "chart", "photons"],
        RingState: ["amplitudes", "photons"],
        RankReport: ["rank", "null_basis"],
        SaturationReport: ["photons", "phases", "shots", "seed", "estimates"],
        EstimationResult: ["theta", "iterations"],
        BoundReport: [
            "matrix", "alpha", "shots", "weak_bound", "exact_bound", "exact_unavailable_reason",
        ],
        WeakExactReport: [
            "weak_side", "exact_side", "rayleigh_quotient", "eigenvector_residual",
            "alpha_is_eigenvector",
        ],
        InverseCheckReport: ["closed_form", "numerical"],
        SweepRow: ["photons", "nodes"],
    }
    for value_type, names in parameters.items():
        assert list(inspect.signature(value_type).parameters) == names, value_type.__name__


def test_result_types_derive_their_report_values_read_only():
    saturation = crb_saturation_experiment(2, 4, np.full(4, 0.1), 20000, 50, 13)
    estimates = saturation.estimates
    var_theta1 = float(np.var(estimates[:, 0], ddof=1))
    bounds = bound_report(reduced_qfim(), E1)
    singular = bound_report(qfim_pure(PHOTONS, NODES, PHI), np.ones(NODES))
    check = weak_vs_exact_check(np.diag([1.0, 2.0, 4.0]), np.ones(3))
    (row,) = heisenberg_sweep([4], [6])
    inverse = closed_form_inverse_check(6)
    column_gap = np.abs(inverse.closed_form - inverse.numerical).max(axis=0)
    derived = [
        (saturation, "nodes", 4),
        (saturation, "replicates", 50),
        (saturation, "var_theta1", var_theta1),
        (saturation, "mean_theta1", float(np.mean(estimates[:, 0]))),
        (saturation, "bound", 1.0 / 4.0 / 20000),
        (saturation, "ratio", var_theta1 / saturation.bound),
        (bounds, "equality_gap", bounds.exact_bound - bounds.weak_bound),
        (singular, "equality_gap", None),
        (check, "gap", check.exact_side - check.weak_side),
        (row, "qcrb", 0.25),
        (row, "ccrb", 0.25),
        (row, "ratio", row.ccrb / row.qcrb),
        (inverse, "nodes", 6),
        (inverse, "max_abs_discrepancy", float(column_gap.max())),
        (inverse, "matching_columns", (0, 1)),
    ]
    for result, name, value in derived:
        assert getattr(result, name) == value, name
        with pytest.raises(AttributeError):
            setattr(result, name, value)
    theta_true = _mc_coordinates(saturation.phases[None, :])[0]
    assert saturation.theta_true.tobytes() == theta_true.tobytes()


def test_matrix_and_chart_arguments_refuse_other_types():
    calls = {
        "matrix must be a FisherMatrix, got ndarray": [
            lambda: bound_report(np.eye(3), E1),
            lambda: pushforward_fisher(np.eye(NODES), build_mc(NODES)),
            lambda: qfim.matrix_to_csv(np.eye(NODES)),
            lambda: qfim.matrix_to_json_dict(np.eye(NODES)),
        ],
        "rep must be a Reparametrization, got ndarray": [
            lambda: pushforward_fisher(qfim_pure(PHOTONS, NODES, np.zeros(NODES)), np.eye(NODES)),
        ],
        "dist must be an OutcomeDistribution, got ndarray": [
            lambda: sample_counts(np.full(4 * NODES, 1 / (4 * NODES)), 100, 1),
        ],
        "chart must be a Chart or None, got ndarray": [
            lambda: qfim_pure(PHOTONS, NODES, PHI, chart=np.eye(NODES)),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                call()


def test_complex_and_overflowing_values_are_refused_not_truncated():
    table, dist = count_table(), outcome_distribution(PHOTONS, NODES, PHI)
    calls = {
        "phase vector must be real": [
            lambda: phase_vector(np.full(NODES, 0.1 + 2j), NODES),
            lambda: phase_vector([np.complex128(0.1)] * NODES, NODES),
        ],
        "count entries must be real": [
            lambda: CountTable(np.full(4 * NODES, 6.0 + 1j), PHOTONS, NODES),
        ],
        "probability entries must be real": [
            lambda: OutcomeDistribution(dist.array + 0j, PHOTONS, NODES),
        ],
        "Fisher matrix must be real": [
            lambda: FisherMatrix(
                reduced_qfim().entries + 0j, "quantum", build_mc(NODES).chart(True), PHOTONS
            ),
        ],
        "phase vector must be an array of numbers": [
            lambda: phase_vector([10**400] * NODES, NODES),
        ],
        "count for .* must be a number": [
            lambda: CountTable([10**400] * (4 * NODES), PHOTONS, NODES),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValidationError, match=f"^{message}"):
                call()


def test_fit_refuses_a_nan_guess():
    with pytest.raises(ValidationError, match="initial guess entries must be finite"):
        mle_estimate(count_table(), np.full(NODES - 1, np.nan))


@pytest.mark.parametrize("bad", ["abc", [[1.0, 2.0], [3.0]]], ids=["string", "ragged"])
def test_strings_and_ragged_lists_are_validation_errors(bad):
    fisher = reduced_qfim()
    rep = build_mc(NODES)
    calls = [
        lambda: phase_vector(bad, NODES),
        lambda: exact_crb(np.eye(2), bad),
        lambda: weak_crb(np.eye(2), bad),
        lambda: rank_and_nullspace(bad),
        lambda: FisherMatrix(bad, "quantum", fisher.chart, PHOTONS),
        lambda: Chart("c", ("a", "b"), bad),
        lambda: Reparametrization(bad, rep.inverse, rep.labels, "mc"),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_fisher_matrix_stores_the_symmetric_part_of_a_tolerated_asymmetry():
    fisher = reduced_qfim()
    entries = fisher.entries.copy()
    entries[0, 1] += 4e-11
    stored = FisherMatrix(entries, "quantum", fisher.chart, PHOTONS).entries
    assert np.array_equal(stored, stored.T)
    assert np.array_equal(stored, 0.5 * (entries + entries.T))
    # an exactly symmetric matrix is stored as it is
    assert np.array_equal(
        FisherMatrix(fisher.entries, "quantum", fisher.chart, PHOTONS).entries,
        fisher.entries,
    )


def test_one_symmetry_rule_holds_for_fisher_matrices_and_raw_arrays():
    # the N = 4096 QFIM turned by an orthonormal Q rounds to an asymmetry of
    # 3.492e-10 at max |F| = 3.0e6; the rule allows 1e-10 * max(1, max |F|)
    nodes = 8
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(nodes, nodes)))
    rotated = q.T @ qfim_pure(4096, nodes, np.zeros(nodes)).entries @ q
    assert 1e-10 < np.abs(rotated - rotated.T).max() < 1e-9
    chart = Chart("rotated", [f"r_{i}" for i in range(nodes)], q)
    matrix = FisherMatrix(rotated, "quantum", chart, 4096)
    np.testing.assert_array_equal(matrix.entries, qfim._entries_of(rotated))
    # past the scaled tolerance both readers refuse it, with the same figures
    tol = 1e-10 * np.abs(rotated).max()
    rotated[0, 1] += 2.0 * tol
    figures = rf"asymmetry \d\.\d{{3}}e-04 exceeds {tol:.3g}$"
    with pytest.raises(ValidationError, match="^Fisher matrix " + figures):
        FisherMatrix(rotated, "quantum", chart, 4096)
    for read in (qfim._entries_of, rank_and_nullspace, lambda m: weak_crb(m, np.ones(nodes))):
        with pytest.raises(ValidationError, match="^matrix " + figures):
            read(rotated)


def test_raw_matrices_are_read_as_their_symmetric_part():
    matrix = np.diag([2.0, 1.0, 0.5])
    matrix[2, 0] += 1e-11
    read = qfim._entries_of(matrix)
    assert np.array_equal(read, read.T)


# --- the library reader contract -------------------------------------------

finite_floats = st.floats(-10.0, 10.0)


def _refused_by(convert):
    """Whether ``convert`` raises ValueError on a text."""

    def refused(text: str) -> bool:
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return refused


non_numeric_text = st.text(max_size=6).filter(_refused_by(float))
ragged = st.lists(st.lists(finite_floats, max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(row) for row in rows}) > 1
)
def wrong_types(*stand_ins):
    """A value of another type for an object argument: text, None, a number or a stand-in."""
    return st.one_of(
        st.text(max_size=6), st.none(), finite_floats, st.sampled_from(stand_ins)
    )


@st.composite
def bad_arrays(draw, valid, accepts=None, symmetric=False):
    """An invalid stand-in for the valid array ``valid`` in one argument position.

    ``accepts(shape)`` tells which shapes the position takes (by default
    only the shape of ``valid``); ``symmetric``: the position needs a
    symmetric matrix, so an asymmetric one is invalid too.
    """
    valid = np.asarray(valid, dtype=float)
    accepts = accepts or (lambda shape: shape == valid.shape)
    kinds = ["text", "ragged", "text entry", "non-finite entry", "complex", "wrong shape", "none"]
    kind = draw(st.sampled_from(kinds + (["asymmetric"] if symmetric else [])))
    if kind == "text":
        return draw(st.text(max_size=6))
    if kind == "none":
        return None
    if kind == "ragged":
        return draw(ragged)
    index = draw(st.integers(0, valid.size - 1))
    if kind == "text entry":
        entries = valid.astype(object)
        entries.flat[index] = draw(non_numeric_text)
        return entries.tolist()
    if kind == "complex":
        return valid + 1j * draw(st.floats(-1.0, 1.0))
    if kind == "non-finite entry":
        entries = valid.copy()
        entries.flat[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return draw(st.sampled_from([entries, entries.tolist()]))
    if kind == "asymmetric":
        entries = valid.copy()
        scale = max(1.0, float(np.max(np.abs(entries))))
        entries[0, -1] += draw(st.floats(1e-8, 1.0)) * scale
        return entries
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    assume(not accepts(shape))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(finite_floats, min_size=size, max_size=size))).reshape(shape)


def _square(shape):
    return len(shape) == 2 and shape[0] == shape[1]


def _reader_targets() -> dict:
    """Name -> (strategy of invalid values, call that reads one)."""
    fisher = reduced_qfim()
    entries, chart = fisher.entries, fisher.chart
    rep = build_mc(NODES)
    table = count_table()
    guess = rep.apply(PHI)[1:]
    state = build_input_state(PHOTONS, NODES)

    def chart_shapes(shape):
        return len(shape) == 2 and shape[1] == chart.size

    def count_shapes(shape):
        return len(shape) == 2 and shape[0] >= 1 and shape[1] == 4 * NODES

    dist = outcome_distribution(PHOTONS, NODES, PHI)
    symmetric = bad_arrays(entries, symmetric=True)
    return {
        "phase_vector": (bad_arrays(PHI), lambda v: phase_vector(v, NODES)),
        "apply_phases": (bad_arrays(PHI), lambda v: apply_phases(state, v)),
        "qfim_pure phases": (bad_arrays(PHI), lambda v: qfim_pure(PHOTONS, NODES, v)),
        "exact_crb matrix": (symmetric, lambda v: exact_crb(v, E1)),
        "exact_crb alpha": (bad_arrays(E1), lambda v: exact_crb(entries, v)),
        "weak_crb matrix": (symmetric, lambda v: weak_crb(v, E1)),
        "weak_crb alpha": (bad_arrays(E1), lambda v: weak_crb(entries, v)),
        "bound_report alpha": (bad_arrays(E1), lambda v: bound_report(fisher, v)),
        "rank_and_nullspace": (
            bad_arrays(entries, accepts=_square, symmetric=True), rank_and_nullspace
        ),
        "weak_vs_exact_check matrix": (symmetric, lambda v: weak_vs_exact_check(v, E1)),
        "weak_vs_exact_check alpha": (bad_arrays(E1), lambda v: weak_vs_exact_check(entries, v)),
        "FisherMatrix entries": (
            symmetric, lambda v: FisherMatrix(v, "quantum", chart, PHOTONS)
        ),
        "Chart directions": (
            bad_arrays(chart.directions, accepts=chart_shapes),
            lambda v: Chart("c", chart.labels, v),
        ),
        "Reparametrization forward": (
            bad_arrays(rep.forward),
            lambda v: Reparametrization(v, rep.inverse, rep.labels, "mc"),
        ),
        "Reparametrization inverse": (
            bad_arrays(rep.inverse),
            lambda v: Reparametrization(rep.forward, v, rep.labels, "mc"),
        ),
        "Reparametrization.apply": (bad_arrays(PHI), rep.apply),
        "pushforward_fisher rep": (
            wrong_types(rep.inverse, rep.inverse.tolist(), rep.to_json_dict(), rep.chart(False)),
            lambda v: pushforward_fisher(qfim_pure(PHOTONS, NODES, PHI), v),
        ),
        "sample_counts dist": (
            wrong_types(dist.array, dist.array.tolist(), dist.probabilities, table),
            lambda v: sample_counts(v, 100, 1),
        ),
        "mle_estimate guess": (bad_arrays(guess), lambda v: mle_estimate(table, v)),
        "CountTable array": (
            bad_arrays(table.array), lambda v: CountTable(v, PHOTONS, NODES)
        ),
        "OutcomeDistribution array": (
            bad_arrays(dist.array), lambda v: OutcomeDistribution(v, PHOTONS, NODES)
        ),
        "mle_estimate counts": (
            bad_arrays(table.array[None, :], accepts=count_shapes),
            lambda v: mle_estimate(
                np.array(v, dtype=object), guess, photons=PHOTONS, nodes=NODES
            ),
        ),
    }


READER_TARGETS = _reader_targets()


@pytest.mark.parametrize("name", sorted(READER_TARGETS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_library_readers_raise_only_validation_errors(name, data):
    strategy, call = READER_TARGETS[name]
    value = data.draw(strategy, label="value")
    with pytest.raises(ValidationError):
        call(value)


# --- the one Cholesky certificate ------------------------------------------


@settings(deadline=None)
@given(
    size=st.integers(1, 30),
    log_margin=st.floats(-1.0, 1.5),
    log_scale=st.floats(-3.0, 3.0),
    negative=st.booleans(),
    psd_test=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_cholesky_agrees_with_the_eigenvalue_rule(
    size, log_margin, log_scale, negative, psd_test, seed
):
    # the PSD test shifts up by PSD_TOL * max(1, b), the exact bound down by
    # RANK_RTOL * b; the smallest eigenvalue is planted near either threshold
    rtol, floor = (PSD_TOL, 1.0) if psd_test else (-RANK_RTOL, 0.0)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
    largest = 10.0**log_scale
    smallest = (-1.0 if negative else 1.0) * 1e-9 * 10.0**log_margin * largest
    spectrum = rng.uniform(abs(smallest), largest, size)
    spectrum[-1] = largest
    spectrum[0] = smallest
    matrix = basis @ np.diag(spectrum) @ basis.T
    matrix = 0.5 * (matrix + matrix.T)
    certified, shift = qfim._shifted_cholesky(matrix, rtol, floor)
    bound = float(np.max(np.abs(matrix).sum(axis=1)))
    assert shift == rtol * max(floor, bound)
    # (lambda_min + shift) / |shift|, at least 1% off the threshold
    margin = (np.linalg.eigvalsh(matrix)[0] + shift) / abs(shift)
    assume(abs(margin) >= 0.01)
    assert certified == (margin > 0)
