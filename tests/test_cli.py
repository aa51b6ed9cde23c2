import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghzsense
from ghzsense import cli
from ghzsense.cli import main
from ghzsense.qfim import original_chart

SIM_ARGS = [
    "simulate",
    "--N",
    "2",
    "--d",
    "4",
    "--shots",
    "20000",
    "--replicates",
    "50",
    "--seed",
    "13",
]


def test_qfim_prints_matrix_and_rank_line(capsys):
    status = main(["qfim", "--N", "2", "--d", "4", "--phases", "uniform:0", "--chart", "original"])
    out = capsys.readouterr().out
    assert status == 0
    assert "quantum Fisher matrix" in out
    assert "0.75" in out and "-0.25" in out
    assert "rank 3 of 4 (singular)" in out


def test_qfim_full_rank_in_reduced_chart(capsys):
    status = main(["qfim", "--N", "2", "--d", "4", "--chart", "mc"])
    out = capsys.readouterr().out
    assert status == 0
    assert "rank 3 of 3 (full rank)" in out


def test_odd_photon_number_is_status_2(capsys):
    assert main(["qfim", "--N", "3", "--d", "4"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_odd_ring_rejected_for_transform_and_sweep(capsys):
    assert main(["transform", "--d", "5"]) == 2
    assert main(["sweep", "--N", "2", "--d", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "photons, nodes, message",
    [
        ("2,3", "4", "photon count must be an even integer >= 2, got 3"),
        ("2", "4,5", "node count must be an even integer >= 4, got 5"),
    ],
    ids=["odd-N", "odd-d"],
)
def test_sweep_refuses_an_odd_grid_point_before_printing(photons, nodes, message, capsys):
    assert main(["sweep", "--N", photons, "--d", nodes]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid configuration: {message}\n"


def test_a_large_photon_number_passes_the_psd_check(capsys):
    # the node-chart CFIM at N = 2**20 is singular with entries near 1e11
    assert main(["cfim", "--N", str(2**20), "--d", "6"]) == 0
    assert "rank 5 of 6 (singular)" in capsys.readouterr().out


@pytest.mark.parametrize("photons, nodes", [("2", ","), (",", "4"), ("", "4,6")])
def test_sweep_over_an_empty_grid_is_status_2_before_computing(photons, nodes, monkeypatch, capsys):
    monkeypatch.setattr("ghzsense.cli.heisenberg_sweep", None)  # any call would fail
    assert main(["sweep", "--N", photons, "--d", nodes]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "needs at least one value" in err


def test_unwritable_output_is_status_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "below" / "qfim.json"
    assert main(["qfim", "--N", "2", "--d", "4", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: cannot write output {target}:")
    assert blocker.read_text() == ""


def test_null_space_weight_is_status_3(capsys):
    status = main(
        ["bounds", "--N", "2", "--d", "4", "--chart", "original", "--alpha=-1,1,-1,1"]
    )
    assert status == 3
    assert "singular matrix" in capsys.readouterr().err


def test_non_convergence_is_status_4(capsys):
    status = main(
        ["simulate", "--N", "2", "--d", "4", "--shots", "2", "--replicates", "50", "--seed", "0"]
    )
    assert status == 4
    assert "no convergence" in capsys.readouterr().err


def test_bounds_on_singular_chart_reports_weak_only(capsys):
    status = main(["bounds", "--N", "2", "--d", "4", "--chart", "original", "--alpha", "avg"])
    out = capsys.readouterr().out
    assert status == 0
    assert "weak bound:  0.25" in out
    assert "exact bound: unavailable without reparametrization" in out


@pytest.mark.parametrize("chart, nodes", [("mc", "4"), ("d4-orthogonal", "4"), ("mc", "6")])
def test_a_refusal_in_a_reduced_chart_is_reported_as_numerical(chart, nodes, monkeypatch, capsys):
    # a rule under which every matrix is numerically singular forces the refusal
    monkeypatch.setattr("ghzsense.bounds.RANK_RTOL", 1.0)
    status = main(["bounds", "--N", "2", "--d", nodes, "--chart", chart, "--kind", "classical"])
    out = capsys.readouterr().out
    assert status == 0
    assert "exact bound: unavailable, the matrix is numerically singular in this chart" in out
    assert "without reparametrization" not in out


def test_transform_builds_the_mc_reparametrization_once(monkeypatch, capsys):
    # above the memo cutoff every lookup builds anew; the closed-form check
    # reads the reparametrization the command already built
    monkeypatch.setattr(ghzsense.qfim, "RING_MEMO_MAX_NODES", 4)
    built = []
    check = ghzsense.reparam.Reparametrization.__post_init__

    def counting(rep):
        built.append(rep.name)
        check(rep)

    monkeypatch.setattr(ghzsense.reparam.Reparametrization, "__post_init__", counting)
    assert main(["transform", "--d", "6", "--chart", "mc"]) == 0
    assert "closed-form inverse check" in capsys.readouterr().out
    assert built == ["mc"]


def test_bounds_in_reduced_chart_reports_both(capsys):
    status = main(["bounds", "--N", "2", "--d", "4", "--chart", "mc", "--kind", "quantum"])
    out = capsys.readouterr().out
    assert status == 0
    assert "weak bound:  0.25" in out
    assert "exact bound: 0.25" in out


def test_sweep_csv_hits_one_over_n(tmp_path):
    target = tmp_path / "sweep.csv"
    status = main(["sweep", "--N", "2,4,6", "--d", "4,6", "--output", str(target), "--format", "csv"])
    assert status == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "N,d,qcrb,ccrb,ratio"
    for line in lines[1:]:
        n, _, qcrb, _, ratio = line.split(",")
        assert float(qcrb) == pytest.approx(1.0 / int(n), abs=1e-10)
        assert float(ratio) == pytest.approx(1.0, abs=1e-10)


def test_state_output_is_valid_json(tmp_path):
    target = tmp_path / "state.json"
    status = main(
        ["state", "--N", "2", "--d", "4", "--phases", "0.1,0.2,0.3,0.4", "--output", str(target)]
    )
    assert status == 0
    doc = json.loads(target.read_text())
    assert doc["N"] == 2 and doc["d"] == 4
    assert len(doc["terms"]) == 8


def test_transform_emits_closed_form_check(tmp_path, capsys):
    target = tmp_path / "rep.json"
    status = main(["transform", "--d", "4", "--output", str(target)])
    out = capsys.readouterr().out
    assert status == 0
    assert "closed-form inverse check" in out
    doc = json.loads(target.read_text())
    assert doc["closed_form_check"]["matching_columns"] == ["theta_0", "theta_1"]
    assert doc["closed_form_check"]["max_abs_discrepancy"] == pytest.approx(4.0)


def test_config_file_supplies_missing_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 2, "d": 4, "chart": "original"}))
    status = main(["qfim", "--config", str(config)])
    assert status == 0
    assert "rank 3 of 4 (singular)" in capsys.readouterr().out


def test_flags_take_precedence_over_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 4, "d": 4}))
    status = main(["qfim", "--config", str(config), "--N", "2"])
    out = capsys.readouterr().out
    assert status == 0
    assert "N=2" in out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_status_2_before_sampling(source, tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling ran for an invalid seed")

    monkeypatch.setattr("ghzsense.cli.crb_saturation_experiment", no_sampling)
    if source == "flag":
        argv = ["simulate", "--N", "2", "--d", "4", "--seed", "-1"]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"N": 2, "d": 4, "seed": -1}))
        argv = ["simulate", "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "seed" in err and "Traceback" not in err


def test_oversized_replicate_count_is_status_2_before_allocating(capsys):
    argv = [
        "simulate", "--N", "2", "--d", "4", "--shots", "100000", "--replicates", "1000000000000"
    ]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "count cells" in err and "Traceback" not in err


def test_shot_count_above_the_int64_cap_is_status_2_before_sampling(monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("drew at an oversized shot count")

    monkeypatch.setattr("ghzsense.montecarlo._draw", no_draw)
    argv = ["simulate", "--N", "2", "--d", "4", "--shots", str(2**63), "--replicates", "50"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "exceeds the cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["qfim", "--N", "2", "--d", "100000"], ["transform", "--d", "1000000", "--chart", "mc"]],
    ids=["qfim", "transform"],
)
def test_oversized_ring_is_status_2_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "exceeds the cap of 4096" in err and "Traceback" not in err


@pytest.mark.parametrize("photons", [str(2 * 10**21), "2" + "0" * 400], ids=["22-digit", "401-digit"])
@pytest.mark.parametrize("command", ["qfim", "cfim", "sweep"])
def test_photon_number_above_the_cap_is_status_2(command, photons, capsys):
    assert main([command, "--N", photons, "--d", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid configuration: ")
    assert "exceeds the cap of 9007199254740992" in err and "Traceback" not in err


def loaded_after_import(package, module):
    """Whether a fresh interpreter has ``module`` in sys.modules after importing ``package``."""
    src = str(Path(ghzsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = f"import sys, {package}; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_unloaded():
    assert not loaded_after_import("ghzsense", "scipy")


def test_cli_import_leaves_numpy_random_unloaded():
    # simulate seeds its replicates through a numpy.random class made on first
    # use; every other command never pays for importing numpy.random
    assert not loaded_after_import("ghzsense.cli", "numpy.random")


def test_readme_simulate_output_is_pinned(tmp_path, monkeypatch, capsys):
    # the README run's file, byte for byte, as seeding each replicate with
    # default_rng(child) writes it
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--N", "2", "--d", "4", "--shots", "100000", "--replicates", "200",
            "--seed", "42", "--output", "run.json"]
    assert main(argv) == 0
    capsys.readouterr()
    written = (tmp_path / "run.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == (
        "d54f5b61ead3c8bfafa43b309379e84539e2d532b064a25fca3dcf7edd3b665f"
    )
    assert json.loads(written)["var_theta1"] == 2.6304935214577834e-06


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        (["sweep", "--N", "2,4,6", "--d", "4,6,8", "--format", "csv"], "sweep.csv",
         "33fa24f9c05cf2c996e591c118929c78425acf06828b6cfbf1d656cbaad18f70"),
        (["bounds", "--N", "4", "--d", "8", "--chart", "mc", "--alpha", "avg"], "bounds.json",
         "97894d54f3b1959855958d1e89fc0084ce07ae73689f147264db3ff7719d0a00"),
    ],
    ids=["readme-sweep", "bounds-mc-avg"],
)
def test_average_phase_bound_files_are_pinned(argv, name, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", name]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_simulate_takes_its_shot_count_from_a_flag_or_the_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 2, "d": 4, "shots": 1000, "replicates": 50}))
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["simulate", "--config", str(config), "--shots", "2000"]) == 0
    out = capsys.readouterr().out
    assert "shots=1000 replicates=50" in out and "shots=2000 replicates=50" in out
    # bounds keeps its default of one repetition
    assert main(["bounds", "--N", "2", "--d", "4", "--chart", "mc"]) == 0
    assert ", shots=1)\n" in capsys.readouterr().out


def test_simulate_at_a_zero_pair_sum_is_status_2(capsys):
    argv = ["simulate", "--N", "2", "--d", "4", "--phases", "uniform:0", "--shots", "100000"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid configuration: true probability of ")
    assert "OutcomeLabel(pair=1, pattern='+-') is 0" in err


def test_simulate_whose_replicates_all_fit_the_same_theta1_is_status_2(capsys):
    argv = [
        "simulate", "--N", "2", "--d", "4", "--shots", "100000", "--replicates", "50",
        "--phases", "uniform:1e-5",
    ]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: invalid configuration: every replicate fits theta_1 = 0: the draws do not "
        "move the fit, so Var(theta_1) = 0 and the variance ratio is meaningless\n"
    )


def test_package_exports_only_names_the_readme_documents():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    undocumented = [
        name
        for name in ghzsense.__all__
        if not re.search(rf"\b{name}\b", readme)
        and not (
            isinstance(getattr(ghzsense, name), type)
            and issubclass(getattr(ghzsense, name), ghzsense.GhzSenseError)
        )
    ]
    assert undocumented == []


def test_unknown_config_keys_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 2, "d": 4, "bogus": True}))
    assert main(["qfim", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_env_var_resolves_relative_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GHZSENSE_OUTPUT_DIR", str(tmp_path))
    status = main(["qfim", "--N", "2", "--d", "4", "--output", "deep/matrix.json"])
    capsys.readouterr()
    assert status == 0
    assert (tmp_path / "deep" / "matrix.json").exists()


def test_absolute_output_ignores_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GHZSENSE_OUTPUT_DIR", str(tmp_path / "unused"))
    target = tmp_path / "direct.json"
    status = main(["qfim", "--N", "2", "--d", "4", "--output", str(target)])
    capsys.readouterr()
    assert status == 0
    assert target.exists()
    assert not (tmp_path / "unused").exists()


def test_rerun_produces_byte_identical_outputs(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(SIM_ARGS + ["--output", str(first)]) == 0
    assert main(SIM_ARGS + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_simulate_csv_writes_long_and_summary_files(tmp_path, capsys):
    target = tmp_path / "sim.csv"
    assert main(SIM_ARGS + ["--output", str(target), "--format", "csv"]) == 0
    capsys.readouterr()
    long_lines = target.read_text().strip().split("\n")
    assert long_lines[0] == "replicate,parameter,estimate"
    assert len(long_lines) == 1 + 50 * 3
    summary = (tmp_path / "sim-summary.csv").read_text().strip().split("\n")
    assert summary[0] == "N,d,shots,replicates,seed,var_theta1,bound,ratio"


def test_simulate_human_summary_reports_ratio(capsys):
    assert main(SIM_ARGS) == 0
    out = capsys.readouterr().out
    assert "Var(theta_1):" in out
    assert "ratio:" in out


def test_matrix_json_payload_round_trips(tmp_path, capsys):
    target = tmp_path / "m.json"
    phases = "0.11,0.07,-0.05,0.13"
    assert main(["cfim", "--N", "4", "--d", "4", "--phases", phases, "--output", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    entries = np.array(doc["entries"])
    assert entries.shape == (4, 4)
    assert doc["kind"] == "classical"


@pytest.mark.parametrize("command", ["qfim", "cfim"])
@pytest.mark.parametrize(
    "chart, spec",
    [("original", "0.11,0.07,-0.05,0.13"), ("mc", "uniform:0.3"), ("d4-orthogonal", "1e-300,2.5,-0.1,3")],
)
def test_matrix_json_phases_are_the_parsed_phases(command, chart, spec, tmp_path, capsys):
    # the matrix holds no phases; the command writes the ones it parsed
    target = tmp_path / "m.json"
    argv = [command, "--N", "4", "--d", "4", "--phases", spec, "--chart", chart]
    assert main([*argv, "--output", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert exact_floats(doc.pop("phases")) == exact_floats(cli._parse_phases(spec, 4).tolist())
    config = cli._build_run_config(command, {"N": "4", "d": "4", "phases": spec, "chart": chart})
    matrix = cli._matrix_in_chart(config, "quantum" if command == "qfim" else "classical")
    assert exact_floats(doc) == exact_floats(ghzsense.qfim.matrix_to_json_dict(matrix))


def exact_floats(doc):
    """``doc`` with every float as its exact hex form, so that == compares float bits."""
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {key: exact_floats(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [exact_floats(value) for value in doc]
    return doc


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--N", "2", "--d", "4", "--phases", "0.1,0.2,0.3,0.4"],
        ["qfim", "--N", "2", "--d", "4", "--phases", "uniform:0", "--chart", "original"],
        ["cfim", "--N", "4", "--d", "6", "--chart", "mc"],
        ["transform", "--d", "4", "--chart", "d4-orthogonal"],
        ["bounds", "--N", "2", "--d", "4", "--chart", "original", "--alpha", "avg"],
        ["sweep", "--N", "2,4,6", "--d", "4,6,8"],
        SIM_ARGS,
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_reads_back_the_documents_floats_bit_for_bit(
    argv, tmp_path, monkeypatch, capsys
):
    # the README commands in their JSON form; every float of the document a
    # command builds from its result objects must survive the written text
    docs = []
    emit = cli._emit

    def keeping(config, doc, *texts):
        docs.append(doc())
        emit(config, doc, *texts)

    monkeypatch.setattr(cli, "_emit", keeping)
    target = tmp_path / "out.json"
    assert main(argv + ["--output", str(target)]) == 0
    capsys.readouterr()
    assert exact_floats(json.loads(target.read_text())) == exact_floats(docs[0])


def test_d4_orthogonal_chart_requires_four_nodes(capsys):
    assert main(["qfim", "--N", "2", "--d", "6", "--chart", "d4-orthogonal"]) == 2
    assert main(["bounds", "--N", "2", "--d", "6", "--chart", "d4-orthogonal"]) == 2
    assert main(["transform", "--d", "6", "--chart", "d4-orthogonal"]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid configuration: chart 'd4-orthogonal' requires d = 4\n" * 3


@pytest.mark.parametrize(
    "chart, nodes, weight",
    [("original", 4, "0.25, 0.25, 0.25, 0.25"), ("mc", 6, "1, 0, 0, 0, 0"), ("d4-orthogonal", 4, "0.5, 0, 0")],
)
def test_average_weight_in_each_chart(chart, nodes, weight, capsys):
    argv = ["bounds", "--N", "2", "--d", str(nodes), "--chart", chart, "--alpha", "avg"]
    assert main(argv) == 0
    assert f"variance bounds for alpha = [{weight}] " in capsys.readouterr().out


@pytest.mark.parametrize("nodes", [4, 5, 8, 64, 1024])
def test_average_weight_is_read_off_the_chart_directions_bit_for_bit(nodes):
    # the chart table holds builders only; avg is J^T 1 / d, byte for byte the
    # weights once written per chart: 1/d per node, theta_1, and phi_a / 2
    assert all(build is None or callable(build) for build in cli.CHARTS.values())
    written = {
        "original": np.full(nodes, 1.0 / nodes),
        "mc": np.eye(1, nodes - 1)[0],
        "d4-orthogonal": 0.5 * np.eye(1, 3)[0],
    }
    for chart, weight in written.items():
        if (chart == "mc" and nodes % 2) or (chart == "d4-orthogonal" and nodes != 4):
            continue
        rep = cli._reparametrization(chart, nodes)
        directions = original_chart(nodes) if rep is None else rep.chart(True)
        assert cli._parse_alpha("avg", directions).tobytes() == weight.tobytes(), chart


@pytest.mark.parametrize(
    "chart, nodes, weight",
    [
        ("original", 6, "0.166667, 0.166667, 0.166667, 0.166667, 0.166667, 0.166667"),
        ("mc", 8, "1, 0, 0, 0, 0, 0, ... (7 entries)"),
        ("mc", 64, "1, 0, 0, 0, 0, 0, ... (63 entries)"),
        ("original", 64, ", ".join(["0.015625"] * 6) + ", ... (64 entries)"),
    ],
    ids=["original-6", "mc-8", "mc-64", "original-64"],
)
def test_bounds_summary_prints_at_most_six_weights(chart, nodes, weight, tmp_path, capsys):
    target = tmp_path / "b.json"
    argv = ["bounds", "--N", "2", "--d", str(nodes), "--chart", chart, "--output", str(target)]
    assert main(argv) == 0
    assert f"variance bounds for alpha = [{weight}] (" in capsys.readouterr().out
    # the JSON keeps every weight
    alpha = json.loads(target.read_text())["alpha"]
    assert len(alpha) == (nodes if chart == "original" else nodes - 1)


def test_chart_choices_are_the_chart_table(capsys):
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("qfim", "cfim", "bounds", "transform"):
        (chart,) = [a for a in commands.choices[command]._actions if a.dest == "chart"]
        assert list(chart.choices) == list(cli.CHARTS)
    # the node chart is a choice, but transform has no reparametrization to emit for it
    assert main(["transform", "--d", "4", "--chart", "original"]) == 2
    assert "chart 'original' has none" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("bounds", {"N": 2, "d": 4, "alpha": ["x", 0, 0, 0]}),
        ("bounds", {"N": 2, "d": 4, "alpha": [1, None, 0, 0]}),
        ("qfim", {"N": math.inf, "d": 4}),
        ("qfim", {"N": 2, "d": math.inf}),
        ("bounds", {"N": 2, "d": 4, "shots": math.inf}),
        ("simulate", {"N": 2, "d": 4, "replicates": math.inf}),
        ("simulate", {"N": 2, "d": 4, "seed": math.inf}),
        ("sweep", {"N": [2, math.inf], "d": [4]}),
    ],
    ids=[
        "alpha-string",
        "alpha-null",
        "N-infinite",
        "d-infinite",
        "shots-infinite",
        "replicates-infinite",
        "seed-infinite",
        "sweep-entry-infinite",
    ],
)
def test_malformed_config_values_are_status_2(command, doc, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))  # json writes and reads math.inf as Infinity
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00bad", b'{"N": ' + b"2" * 5000 + b', "d": 4}', b"[" * 100_000],
    ids=["not-utf8", "integer-past-the-digit-limit", "nested-past-the-recursion-limit"],
)
def test_a_config_file_that_json_cannot_read_is_status_2(content, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(content)
    assert main(["qfim", "--N", "2", "--d", "4", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid configuration: config file is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["qfim", "--N", "2", "--d", "4", "--config", "missing.json"], None,
         "cannot read config file: "),
        (["qfim", "--N", "2", "--d", "4"], "{", "config file is not valid JSON: "),
        (["qfim", "--N", "2"], {"d": 4.5}, "d must be an integer, got 4.5\n"),
        (["transform", "--chart", "mc"], None, "d is required\n"),
        (["qfim", "--N", "2", "--d", "4", "--phases", "uniform:x"], None,
         "bad phases spec 'uniform:x': "),
        (["bounds", "--N", "2", "--d", "4", "--chart", "d4-orthogonal", "--alpha", "1,2"], None,
         "alpha has 2 entries but the matrix dimension is 3\n"),
        (["bounds", "--N", "2", "--d", "4"], {"kind": "both"},
         "kind must be one of quantum, classical, got 'both'\n"),
        (["qfim", "--N", "2", "--d", "4"], {"chart": "polar"},
         "chart must be one of original, d4-orthogonal, mc, got 'polar'\n"),
        # a config value is read by the library's integer rule, as flag text is by int()
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc"], {"shots": True},
         "shots must be an integer, got True\n"),
        (["qfim", "--N", "2"], {"d": 4.0}, "d must be an integer, got 4.0\n"),
        (["transform", "--chart", "d4-orthogonal"], {"d": 4.0},
         "d must be an integer, got 4.0\n"),
        # text keys must be JSON strings
        (["qfim", "--N", "2", "--d", "4"], {"output": True}, "output must be a string, got True\n"),
        (["qfim", "--N", "2", "--d", "4", "--output", "m.csv"], {"format": ["csv"]},
         "format must be a string, got ['csv']\n"),
        (["qfim", "--N", "2", "--d", "4"], {"chart": 1}, "chart must be a string, got 1\n"),
        (["bounds", "--N", "2", "--d", "4"], {"kind": False}, "kind must be a string, got False\n"),
        # an empty path names no file to write
        (["qfim", "--N", "2", "--d", "4", "--output", ""], None,
         "output must be a nonempty path\n"),
        (["qfim", "--N", "2", "--d", "4"], {"output": ""}, "output must be a nonempty path\n"),
        # simulate has no default shot count; its earlier refusals keep their messages
        (["simulate", "--N", "2", "--d", "4"], None, "shots is required\n"),
        (["simulate", "--N", "2", "--d", "4"], {"replicates": 50}, "shots is required\n"),
        (["simulate", "--d", "4"], None, "N and d are required\n"),
        (["simulate", "--N", "3", "--d", "4"], None,
         "photon count must be an even integer >= 2, got 3\n"),
        # a JSON boolean is no number in a number list
        (["bounds", "--N", "2", "--d", "4"], {"phases": [True, False, True, False]},
         "bad phases spec [True, False, True, False]\n"),
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc"], {"alpha": [True, False, False]},
         "bad alpha spec [True, False, False]\n"),
        # a weight and its bound must be positive finite normal floats
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc", "--alpha", "1e155,0,0"], None,
         "weight vector gives alpha^T alpha = inf, not a positive finite normal float\n"),
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc", "--alpha", "1e200,0,0"], None,
         "weight vector gives alpha^T alpha = inf, not a positive finite normal float\n"),
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc", "--alpha", "1e-160,0,0"], None,
         "weight vector gives alpha^T alpha = 1.000e-320, not a positive finite normal float\n"),
        (["bounds", "--N", "2", "--d", "4", "--chart", "mc", "--alpha", "1e-200,0,0"], None,
         "weight vector gives alpha^T alpha = 0.000e+00, not a positive finite normal float\n"),
        # every pair sum of the phases must be a finite float
        (["state", "--N", "2", "--d", "4", "--phases", "uniform:1e308"], None,
         "bad phases spec 'uniform:1e308': phase vector pair sum phi_1 + phi_2 = "
         "1e+308 + 1e+308 overflows the float64 range\n"),
        (["simulate", "--N", "2", "--d", "4", "--shots", "1000", "--phases", "uniform:1e308"],
         None, "bad phases spec 'uniform:1e308': phase vector pair sum phi_1 + phi_2 = "
         "1e+308 + 1e+308 overflows the float64 range\n"),
        # the pair sums are finite, the imprinted phase (N/2)(phi_1 + phi_2) is not
        (["state", "--N", "4", "--d", "4", "--phases", "uniform:5e307"], None,
         "imprinted phase (N/2)(phi_1 + phi_2) of pair 1 at N = 4, phi_1 = 5e+307 and "
         "phi_2 = 5e+307, overflows the float64 range\n"),
    ],
    ids=[
        "missing-config", "config-not-json", "config-d-fraction", "transform-without-d",
        "phases-uniform-not-a-number", "alpha-length", "config-kind", "config-chart",
        "config-shots-bool", "config-d-whole-float", "transform-config-d-whole-float",
        "config-output-bool", "config-format-list", "config-chart-number", "config-kind-bool",
        "output-empty", "config-output-empty",
        "simulate-without-shots", "config-simulate-without-shots", "simulate-without-N",
        "simulate-odd-N-without-shots",
        "config-phases-bools", "config-alpha-bools",
        "alpha-1e155", "alpha-1e200", "alpha-1e-160", "alpha-1e-200",
        "state-phases-overflow", "simulate-phases-overflow", "state-imprinted-phase-overflow",
    ],
)
def test_each_refusal_names_its_input(argv, config, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("run.json").write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*argv, "--config", "run.json"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid configuration: " + message)
    assert "Traceback" not in err
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ([] if config is None else ["run.json"])


@pytest.mark.parametrize(
    "doc",
    [{"kind": "both"}, {"replicates": True}, {"shots": "x"}, {"seed": -1}, {"alpha": [True]}],
    ids=["kind", "replicates", "shots", "seed", "alpha"],
)
def test_config_keys_the_command_does_not_take_are_ignored(doc, tmp_path, capsys):
    argv = ["qfim", "--N", "2", "--d", "4"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(config)]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--d", "4", "--chart", "mc", "--output", "x", "--format", "csv"],
        ["bounds", "--N", "2", "--d", "4", "--output", "x", "--format", "csv"],
        ["bounds", "--N", "2", "--d", "4", "--format", "csv"],
        ["state", "--N", "2", "--d", "4", "--format", "csv"],
    ],
    ids=["transform", "bounds", "bounds-no-output", "state-no-output"],
)
def test_a_format_the_command_cannot_write_is_status_2_before_any_work(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("GHZSENSE_OUTPUT_DIR", str(tmp_path))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid configuration: {argv[0]} output supports json only\n"
    assert list(tmp_path.iterdir()) == []
