"""Command-line interface: analysis commands, config handling, report emission."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    bound_report,
    heisenberg_sweep,
    sweep_to_csv,
    sweep_to_json_dict,
)
from .errors import ConvergenceError, SingularMatrixError, ValidationError
from .ghz_state import apply_phases, build_input_state, phase_vector
from .measurement import cfim, distribution_to_csv, outcome_distribution
from .montecarlo import crb_saturation_experiment
from .qfim import (
    FisherMatrix,
    matrix_to_csv,
    matrix_to_json_dict,
    qfim_pure,
    rank_and_nullspace,
)
from .reparam import build_mc, build_orthogonal_d4, closed_form_inverse_check, pushforward_fisher

OUTPUT_DIR_ENV = "GHZSENSE_OUTPUT_DIR"
COMMANDS = ("state", "qfim", "cfim", "transform", "bounds", "sweep", "simulate")
CONFIG_KEYS = (
    "N",
    "d",
    "phases",
    "chart",
    "kind",
    "alpha",
    "shots",
    "replicates",
    "seed",
    "output",
    "format",
)


@dataclass
class RunConfig:
    """Validated, merged settings for one command invocation."""

    command: str
    photons: int | None = None
    nodes: int | None = None
    photon_list: tuple[int, ...] = ()
    node_list: tuple[int, ...] = ()
    phases_spec: object = None
    chart: str = "original"
    kind: str = "classical"
    alpha_spec: object = "avg"
    shots: int = 1
    replicates: int = 200
    seed: int = 0
    output: str | None = None
    fmt: str = "json"


def _require_int(value, name: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return out


def _parse_int_list(value, name: str) -> tuple[int, ...]:
    if value is None:
        raise ValidationError(f"{name} is required")
    if isinstance(value, str):
        tokens = [tok for tok in value.split(",") if tok.strip()]
        return tuple(_require_int(tok.strip(), name) for tok in tokens)
    if isinstance(value, (list, tuple)):
        return tuple(_require_int(v, name) for v in value)
    return (_require_int(value, name),)


def _parse_phases(spec, d: int) -> np.ndarray:
    if spec is None:
        spec = "uniform:0"
    if isinstance(spec, (list, tuple)):
        values = list(spec)
    elif isinstance(spec, str):
        text = spec.strip()
        if text.startswith("uniform:"):
            try:
                return phase_vector(np.full(d, float(text.split(":", 1)[1])), d)
            except ValueError as exc:
                raise ValidationError(f"bad phases spec {spec!r}: {exc}") from None
        values = [tok for tok in text.split(",") if tok.strip()]
    else:
        raise ValidationError(f"bad phases spec {spec!r}")
    try:
        numbers = [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValidationError(f"bad phases spec {spec!r}") from None
    return phase_vector(numbers, d)


def _parse_alpha(spec, chart: str, dim: int, d: int) -> np.ndarray:
    if spec is None:
        spec = "avg"
    if isinstance(spec, str) and spec.strip() == "avg":
        # Weight extracting the average phase in each supported chart.
        alpha = np.zeros(dim)
        if chart == "original":
            alpha[:] = 1.0 / d
        elif chart == "mc":
            alpha[0] = 1.0
        elif chart == "d4-orthogonal":
            alpha[0] = 0.5
        else:
            raise ValidationError(f"no average-phase weight defined for chart {chart!r}")
        return alpha
    if isinstance(spec, str):
        tokens = [tok for tok in spec.split(",") if tok.strip()]
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            raise ValidationError(f"bad alpha spec {spec!r}") from None
    elif isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
    else:
        raise ValidationError(f"bad alpha spec {spec!r}")
    alpha = np.asarray(values, dtype=float)
    if alpha.shape != (dim,):
        raise ValidationError(
            f"alpha has {alpha.shape[0]} entries but the matrix dimension is {dim}"
        )
    return alpha


def _resolve_output(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _print_matrix(entries: np.ndarray) -> None:
    cells = [[f"{x:.6g}" for x in row] for row in entries]
    width = max((len(c) for row in cells for c in row), default=1)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))


def _matrix_in_chart(kind: str, photons: int, nodes: int, phi: np.ndarray, chart: str) -> FisherMatrix:
    if kind == "quantum":
        base = qfim_pure(photons, nodes, phi)
    elif kind == "classical":
        base = cfim(photons, nodes, phi)
    else:
        raise ValidationError(f"kind must be 'quantum' or 'classical', got {kind!r}")
    if chart == "original":
        return base
    if chart == "mc":
        return pushforward_fisher(base, build_mc(nodes), drop_irrelevant=True)
    if chart == "d4-orthogonal":
        if nodes != 4:
            raise ValidationError("chart 'd4-orthogonal' requires d = 4")
        return pushforward_fisher(base, build_orthogonal_d4(), drop_irrelevant=True)
    raise ValidationError(
        f"chart must be one of original, d4-orthogonal, mc; got {chart!r}"
    )


def _emit_matrix(config: RunConfig, matrix: FisherMatrix) -> None:
    report = rank_and_nullspace(matrix)
    status = "singular" if report.rank < matrix.dim else "full rank"
    print(
        f"{matrix.kind} Fisher matrix  N={matrix.photons} d={matrix.nodes} "
        f"chart={matrix.chart.name}"
    )
    _print_matrix(matrix.entries)
    print(f"rank {report.rank} of {matrix.dim} ({status})")
    if config.output:
        path = _resolve_output(config.output)
        if config.fmt == "csv":
            _write_text(path, matrix_to_csv(matrix))
        else:
            _write_text(path, _json_text(matrix_to_json_dict(matrix)))
        print(f"wrote {path}")


def _cmd_state(config: RunConfig) -> None:
    if config.fmt != "json":
        raise ValidationError("state output supports json only")
    phi = _parse_phases(config.phases_spec, config.nodes)
    state = apply_phases(build_input_state(config.photons, config.nodes), phi)
    print(
        f"imprinted state  N={config.photons} d={config.nodes}: "
        f"{len(state.terms)} terms, norm {state.norm():.6g}"
    )
    if config.output:
        path = _resolve_output(config.output)
        _write_text(path, _json_text(state.to_json_dict()))
        print(f"wrote {path}")


def _cmd_matrix(config: RunConfig, kind: str) -> None:
    phi = _parse_phases(config.phases_spec, config.nodes)
    matrix = _matrix_in_chart(kind, config.photons, config.nodes, phi, config.chart)
    _emit_matrix(config, matrix)


def _cmd_transform(config: RunConfig) -> None:
    if config.chart == "mc":
        rep = build_mc(config.nodes)
        check = closed_form_inverse_check(config.nodes)
        doc = rep.to_json_dict()
        doc["closed_form_check"] = {
            "max_abs_discrepancy": float(check.max_abs_discrepancy),
            "matching_columns": [rep.labels[i] for i in check.matching_columns],
        }
        print(f"reparametrization '{rep.name}' for d={config.nodes}")
        print("  coordinates: " + ", ".join(rep.labels))
        print(
            "  closed-form inverse check: max |closed - numerical| = "
            f"{check.max_abs_discrepancy:.6g}; exact columns: "
            + ", ".join(rep.labels[i] for i in check.matching_columns)
        )
    elif config.chart == "d4-orthogonal":
        if config.nodes != 4:
            raise ValidationError("chart 'd4-orthogonal' requires d = 4")
        rep = build_orthogonal_d4()
        doc = rep.to_json_dict()
        residual = float(np.max(np.abs(rep.forward @ rep.forward.T - np.eye(4))))
        print(f"reparametrization '{rep.name}' for d=4")
        print("  coordinates: " + ", ".join(rep.labels))
        print(f"  orthogonality residual: {residual:.6g}")
    else:
        raise ValidationError(
            f"transform construction must be 'mc' or 'd4-orthogonal', got {config.chart!r}"
        )
    if config.output:
        if config.fmt != "json":
            raise ValidationError("transform output supports json only")
        path = _resolve_output(config.output)
        _write_text(path, _json_text(doc))
        print(f"wrote {path}")


def _cmd_bounds(config: RunConfig) -> None:
    phi = _parse_phases(config.phases_spec, config.nodes)
    matrix = _matrix_in_chart(config.kind, config.photons, config.nodes, phi, config.chart)
    alpha = _parse_alpha(config.alpha_spec, config.chart, matrix.dim, config.nodes)
    report = bound_report(matrix, alpha, config.shots)
    print(
        f"variance bounds for alpha = [{', '.join(f'{x:.6g}' for x in alpha)}] "
        f"(kind={matrix.kind}, chart={matrix.chart.name}, N={config.photons}, "
        f"d={config.nodes}, shots={config.shots})"
    )
    print(f"  weak bound:  {report.weak_bound:.6g}")
    if report.exact_bound is None:
        print("  exact bound: unavailable without reparametrization")
        print(f"    ({report.exact_unavailable_reason})")
    else:
        print(f"  exact bound: {report.exact_bound:.6g}")
    if config.output:
        if config.fmt != "json":
            raise ValidationError("bounds output supports json only")
        path = _resolve_output(config.output)
        _write_text(path, _json_text(report.to_json_dict()))
        print(f"wrote {path}")


def _cmd_sweep(config: RunConfig) -> None:
    rows = heisenberg_sweep(config.photon_list, config.node_list)
    print("N  d  qcrb       ccrb       ratio")
    for row in rows:
        print(
            f"{row.photons}  {row.nodes}  {row.qcrb:<9.6g}  {row.ccrb:<9.6g}  "
            f"{row.ratio:.6g}"
        )
    if config.output:
        path = _resolve_output(config.output)
        if config.fmt == "csv":
            _write_text(path, sweep_to_csv(rows))
        else:
            _write_text(path, _json_text(sweep_to_json_dict(rows)))
        print(f"wrote {path}")


def _cmd_simulate(config: RunConfig) -> None:
    phi = _parse_phases(config.phases_spec, config.nodes)
    report = crb_saturation_experiment(
        config.photons,
        config.nodes,
        phi,
        config.shots,
        config.replicates,
        config.seed,
    )
    print(
        f"saturation experiment  N={report.photons} d={report.nodes} "
        f"shots={report.shots} replicates={report.replicates} seed={report.seed}"
    )
    print(f"  Var(theta_1): {report.var_theta1:.6g}")
    print(f"  bound:        {report.bound:.6g}")
    print(f"  ratio:        {report.ratio:.6g}")
    if config.output:
        path = _resolve_output(config.output)
        if config.fmt == "csv":
            _write_text(path, report.long_csv())
            summary = path.with_name(path.stem + "-summary.csv")
            _write_text(summary, report.summary_csv())
            print(f"wrote {path}")
            print(f"wrote {summary}")
        else:
            _write_text(path, _json_text(report.to_json_dict()))
            print(f"wrote {path}")


def _merge_config(args: argparse.Namespace) -> dict:
    values = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(CONFIG_KEYS))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        for key in CONFIG_KEYS:
            if values.get(key) is None and key in doc:
                values[key] = doc[key]
    return values


def _build_run_config(command: str, values: dict) -> RunConfig:
    config = RunConfig(command=command)
    if values.get("output") is not None:
        config.output = str(values["output"])
    if values.get("format") is not None:
        fmt = str(values["format"])
        if fmt not in ("json", "csv"):
            raise ValidationError(f"format must be json or csv, got {fmt!r}")
        config.fmt = fmt
    if values.get("chart") is not None:
        config.chart = str(values["chart"])
    if values.get("kind") is not None:
        config.kind = str(values["kind"])
    if values.get("alpha") is not None:
        config.alpha_spec = values["alpha"]
    if values.get("phases") is not None:
        config.phases_spec = values["phases"]
    if values.get("shots") is not None:
        config.shots = _require_int(values["shots"], "shots")
    if values.get("replicates") is not None:
        config.replicates = _require_int(values["replicates"], "replicates")
    if values.get("seed") is not None:
        config.seed = _require_int(values["seed"], "seed")
        if config.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {config.seed}")

    if command == "sweep":
        config.photon_list = _parse_int_list(values.get("N"), "N")
        config.node_list = _parse_int_list(values.get("d"), "d")
        for n in config.photon_list:
            if n % 2 != 0:
                raise ValidationError(f"N must be even, got {n}")
        for d in config.node_list:
            if d % 2 != 0:
                raise ValidationError(f"sweep requires even d, got {d}")
    elif command == "transform":
        if values.get("d") is None:
            raise ValidationError("d is required")
        config.nodes = _require_int(values["d"], "d")
        if config.nodes % 2 != 0:
            raise ValidationError(f"transform requires even d, got {config.nodes}")
        if values.get("chart") is None:
            config.chart = "mc"
    else:
        if values.get("N") is None or values.get("d") is None:
            raise ValidationError("N and d are required")
        config.photons = _require_int(values["N"], "N")
        config.nodes = _require_int(values["d"], "d")
        if config.photons % 2 != 0:
            raise ValidationError(f"N must be even, got {config.photons}")
    if command == "simulate" and values.get("phases") is None:
        config.phases_spec = "uniform:0.1"
    return config


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    handlers = {
        "state": _cmd_state,
        "qfim": lambda c: _cmd_matrix(c, "quantum"),
        "cfim": lambda c: _cmd_matrix(c, "classical"),
        "transform": _cmd_transform,
        "bounds": _cmd_bounds,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
    }
    try:
        handler = handlers[config.command]
    except KeyError:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        handler(config)
    except ValidationError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(f"error: singular matrix: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return 4
    return 0


def _add_common(parser: argparse.ArgumentParser, *, with_format: bool = True) -> None:
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    parser.add_argument("--output", help="write machine-readable output to this path")
    if with_format:
        parser.add_argument("--format", choices=("json", "csv"), help="machine output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzsense",
        description=(
            "Fisher-information analysis and measurement simulation for "
            "ring-distributed entangled-photon phase sensing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="emit the phase-imprinted state")
    p.add_argument("--N", help="photon number (even)")
    p.add_argument("--d", help="node count")
    p.add_argument("--phases", help="comma list or uniform:<value>")
    _add_common(p)

    for name, help_text in (
        ("qfim", "quantum Fisher information matrix"),
        ("cfim", "classical Fisher information matrix of the paired measurement"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--N", help="photon number (even)")
        p.add_argument("--d", help="node count")
        p.add_argument("--phases", help="comma list or uniform:<value>")
        p.add_argument("--chart", choices=("original", "d4-orthogonal", "mc"))
        _add_common(p)

    p = sub.add_parser("transform", help="emit a reparametrization")
    p.add_argument("--d", help="node count (even)")
    p.add_argument("--chart", choices=("mc", "d4-orthogonal"), help="construction")
    _add_common(p)

    p = sub.add_parser("bounds", help="exact and weak variance bounds")
    p.add_argument("--N", help="photon number (even)")
    p.add_argument("--d", help="node count")
    p.add_argument("--phases", help="comma list or uniform:<value>")
    p.add_argument("--chart", choices=("original", "d4-orthogonal", "mc"))
    p.add_argument("--kind", choices=("quantum", "classical"))
    p.add_argument("--alpha", help="'avg' or comma list of weights")
    p.add_argument("--shots", help="independent repetitions")
    _add_common(p)

    p = sub.add_parser("sweep", help="average-phase bound over an (N, d) grid")
    p.add_argument("--N", help="comma list of even photon numbers")
    p.add_argument("--d", help="comma list of even node counts")
    _add_common(p)

    p = sub.add_parser("simulate", help="bound-saturation experiment")
    p.add_argument("--N", help="photon number (even)")
    p.add_argument("--d", help="node count (even)")
    p.add_argument("--phases", help="comma list or uniform:<value>")
    p.add_argument("--shots", help="shots per replicate")
    p.add_argument("--replicates", help="number of replicates (>= 50)")
    p.add_argument("--seed", help="experiment seed")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = _merge_config(args)
        config = _build_run_config(args.command, values)
    except ValidationError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
