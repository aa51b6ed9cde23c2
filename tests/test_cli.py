import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghzsense
from ghzsense.cli import main

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
    argv = ["simulate", "--N", "2", "--d", "4", "--replicates", "1000000000000"]
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


def test_import_leaves_scipy_unloaded():
    src = str(Path(ghzsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, ghzsense; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_d4_orthogonal_chart_requires_four_nodes(capsys):
    assert main(["qfim", "--N", "2", "--d", "6", "--chart", "d4-orthogonal"]) == 2
    capsys.readouterr()
