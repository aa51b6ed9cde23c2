"""Command-line interface: analysis commands, config handling, report emission.

Two tables drive it.  ``CHARTS`` states each parameter chart once, by the
reparametrization that reaches it from the node chart; the ``--alpha avg``
weight is read off the reduced chart's directions.  ``COMMANDS`` gives each
command its handler, flags and the output formats it can write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import bound_report, heisenberg_sweep, sweep_to_csv, sweep_to_json_dict
from .errors import ConvergenceError, SingularMatrixError, ValidationError
from .ghz_state import (
    _check_counts, _check_int, _check_seed, apply_phases, build_input_state, phase_vector
)
from .measurement import cfim
from .montecarlo import crb_saturation_experiment
from .qfim import (
    Chart, FisherMatrix, matrix_to_csv, matrix_to_json_dict, qfim_pure, rank_and_nullspace
)
from .reparam import _closed_form_inverse_check, build_mc, build_orthogonal_d4

OUTPUT_DIR_ENV = "GHZSENSE_OUTPUT_DIR"


def _d4_orthogonal(d: int):
    if d != 4:
        raise ValidationError("chart 'd4-orthogonal' requires d = 4")
    return build_orthogonal_d4()


# chart -> builder of the reparametrization that reaches it from the node
# chart, or None for the node chart itself.
CHARTS = {
    "original": None,
    "d4-orthogonal": _d4_orthogonal,
    "mc": build_mc,
}

# flag -> argparse options; each flag is also a config-file key, read only by
# the commands that take the flag.
FLAGS = {
    "N": {"help": "photon number (even); sweep takes a comma list"},
    "d": {"help": "node count; sweep takes a comma list"},
    "phases": {"help": "comma list or uniform:<value>"},
    "chart": {"choices": tuple(CHARTS), "help": "parameter chart"},
    "kind": {"choices": ("quantum", "classical")},
    "alpha": {"help": "'avg' or comma list of weights"},
    "shots": {"help": "independent repetitions (bounds) or shots per replicate (simulate)"},
    "replicates": {"help": "number of replicates (>= 50)"},
    "seed": {"help": "experiment seed"},
}
CONFIG_KEYS = (*FLAGS, "output", "format")


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
    """Flag text read by ``int()``; any other config value by the library's integer rule.

    No floor is applied here: each floor is applied where the value is used.
    """
    if not isinstance(value, str):
        return _check_int(value, name, -math.inf)
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _tokens(value) -> list:
    """A comma list, a JSON list or a single value, as a list of its entries."""
    if isinstance(value, str):
        return [tok.strip() for tok in value.split(",") if tok.strip()]
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _parse_int_list(value, name: str) -> tuple[int, ...]:
    if value is None:
        raise ValidationError(f"{name} is required")
    tokens = _tokens(value)
    if not tokens:
        raise ValidationError(f"{name} needs at least one value")
    return tuple(_require_int(tok, name) for tok in tokens)


def _parse_floats(spec, name: str) -> list[float]:
    """The numbers of a comma list or a JSON list; a JSON true or false is no number."""
    tokens = _tokens(spec)
    try:
        if not any(isinstance(v, bool) for v in tokens):
            return [float(v) for v in tokens]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"bad {name} spec {spec!r}")


def _parse_phases(spec, d: int) -> np.ndarray:
    if isinstance(spec, str) and spec.strip().startswith("uniform:"):
        try:
            return phase_vector(np.full(d, float(spec.strip().split(":", 1)[1])), d)
        except ValueError as exc:
            raise ValidationError(f"bad phases spec {spec!r}: {exc}") from None
    return phase_vector(_parse_floats(spec, "phases"), d)


def _reparametrization(chart: str, d: int):
    """The reparametrization that reaches ``chart`` from the node chart; None for that chart."""
    build = CHARTS[chart]
    return build(d) if build else None


def _parse_alpha(spec, chart: Chart) -> np.ndarray:
    """The weight ``spec`` over the chart's coordinates.

    ``avg`` is J^T 1 / d, J the chart's (d, k) directions.  The direction a
    reduced chart drops alternates, so it sums to zero over the nodes, and
    the dot product of ``avg`` with the coordinates is the mean phase.
    """
    if isinstance(spec, str) and spec.strip() == "avg":
        return chart.directions.sum(axis=0) / chart.nodes
    alpha = np.array(_parse_floats(spec, "alpha"))
    if alpha.shape != (chart.size,):
        raise ValidationError(
            f"alpha has {alpha.shape[0]} entries but the matrix dimension is {chart.size}"
        )
    return alpha


def _emit(config: RunConfig, doc, csv=None, summary=None) -> None:
    """Write ``--output``: JSON of ``doc()``, or under ``--format csv`` the text ``csv()``.

    ``summary()``, when given, is the text of a second CSV file beside the
    first, named ``<name>-summary.csv``.  Nothing is formed without ``--output``.
    A relative path is resolved against ``GHZSENSE_OUTPUT_DIR`` when it is set.
    """
    if config.output is None:
        return
    path = Path(config.output)
    if not path.is_absolute() and os.environ.get(OUTPUT_DIR_ENV):
        path = Path(os.environ[OUTPUT_DIR_ENV]) / path
    if config.fmt == "csv":
        files = [(path, csv())]
        if summary is not None:
            files.append((path.with_name(path.stem + "-summary.csv"), summary()))
    else:
        files = [(path, json.dumps(doc(), indent=2, sort_keys=True) + "\n")]
    for target, text in files:
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output {target}: {exc}") from None
    for target, _ in files:
        print(f"wrote {target}")


def _matrix_in_chart(config: RunConfig, kind: str) -> tuple[np.ndarray, FisherMatrix]:
    """The parsed phases and the matrix of ``kind`` in the selected chart."""
    phi = _parse_phases(config.phases_spec, config.nodes)
    rep = _reparametrization(config.chart, config.nodes)
    chart = None if rep is None else rep.chart(True)
    information = qfim_pure if kind == "quantum" else cfim
    return phi, information(config.photons, config.nodes, phi, chart)


def _cmd_state(config: RunConfig) -> None:
    """Emit the phase-imprinted state."""
    phi = _parse_phases(config.phases_spec, config.nodes)
    state = apply_phases(build_input_state(config.photons, config.nodes), phi)
    print(
        f"imprinted state  N={config.photons} d={config.nodes}: "
        f"{np.count_nonzero(state.amplitudes)} terms, norm {state.norm():.6g}"
    )
    _emit(config, state.to_json_dict)


def _cmd_qfim(config: RunConfig) -> None:
    """Quantum Fisher information matrix."""
    _cmd_matrix(config, "quantum")


def _cmd_cfim(config: RunConfig) -> None:
    """Classical Fisher information matrix of the paired measurement."""
    _cmd_matrix(config, "classical")


def _cmd_matrix(config: RunConfig, kind: str) -> None:
    phi, matrix = _matrix_in_chart(config, kind)
    report = rank_and_nullspace(matrix)
    status = "singular" if report.rank < matrix.dim else "full rank"
    print(
        f"{matrix.kind} Fisher matrix  N={matrix.photons} d={matrix.nodes} "
        f"chart={matrix.chart.name}"
    )
    cells = [[f"{x:.6g}" for x in row] for row in matrix.entries]
    width = max((len(c) for row in cells for c in row), default=1)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))
    print(f"rank {report.rank} of {matrix.dim} ({status})")
    _emit(
        config,
        lambda: {**matrix_to_json_dict(matrix), "phases": [float(x) for x in phi]},
        lambda: matrix_to_csv(matrix),
    )


def _cmd_transform(config: RunConfig) -> None:
    """Emit a reparametrization."""
    rep = _reparametrization(config.chart, config.nodes)
    if rep is None:
        raise ValidationError(
            f"transform emits a reparametrization; chart {config.chart!r} has none"
        )
    extra = {}
    print(f"reparametrization '{rep.name}' for d={config.nodes}")
    print("  coordinates: " + ", ".join(rep.labels))
    if config.chart == "mc":
        check = _closed_form_inverse_check(rep)
        exact = [rep.labels[i] for i in check.matching_columns]
        extra["closed_form_check"] = {
            "max_abs_discrepancy": float(check.max_abs_discrepancy),
            "matching_columns": exact,
        }
        print(
            "  closed-form inverse check: max |closed - numerical| = "
            f"{check.max_abs_discrepancy:.6g}; exact columns: " + ", ".join(exact)
        )
    else:
        residual = float(np.max(np.abs(rep.forward @ rep.forward.T - np.eye(rep.dim))))
        print(f"  orthogonality residual: {residual:.6g}")
    _emit(config, lambda: {**rep.to_json_dict(), **extra})


def _cmd_bounds(config: RunConfig) -> None:
    """Exact and weak variance bounds."""
    _, matrix = _matrix_in_chart(config, config.kind)
    alpha = _parse_alpha(config.alpha_spec, matrix.chart)
    report = bound_report(matrix, alpha, config.shots)
    shown = ", ".join(f"{x:.6g}" for x in alpha[:6])
    if alpha.size > 6:
        shown += f", ... ({alpha.size} entries)"
    print(
        f"variance bounds for alpha = [{shown}] "
        f"(kind={matrix.kind}, chart={matrix.chart.name}, N={config.photons}, "
        f"d={config.nodes}, shots={config.shots})"
    )
    print(f"  weak bound:  {report.weak_bound:.6g}")
    if report.exact_bound is None:
        if CHARTS[config.chart] is None:
            print("  exact bound: unavailable without reparametrization")
        else:  # the chart already drops the alternating phase
            print("  exact bound: unavailable, the matrix is numerically singular in this chart")
        print(f"    ({report.exact_unavailable_reason})")
    else:
        print(f"  exact bound: {report.exact_bound:.6g}")
    _emit(config, report.to_json_dict)


def _cmd_sweep(config: RunConfig) -> None:
    """Average-phase bound over an (N, d) grid."""
    rows = heisenberg_sweep(config.photon_list, config.node_list)
    print("N  d  qcrb       ccrb       ratio")
    for row in rows:
        print(
            f"{row.photons}  {row.nodes}  {row.qcrb:<9.6g}  {row.ccrb:<9.6g}  "
            f"{row.ratio:.6g}"
        )
    _emit(config, lambda: sweep_to_json_dict(rows), lambda: sweep_to_csv(rows))


def _cmd_simulate(config: RunConfig) -> None:
    """Bound-saturation experiment."""
    phi = _parse_phases(config.phases_spec, config.nodes)
    report = crb_saturation_experiment(
        config.photons, config.nodes, phi, config.shots, config.replicates, config.seed
    )
    print(
        f"saturation experiment  N={report.photons} d={report.nodes} "
        f"shots={report.shots} replicates={report.replicates} seed={report.seed}"
    )
    print(f"  Var(theta_1): {report.var_theta1:.6g}")
    print(f"  bound:        {report.bound:.6g}")
    print(f"  ratio:        {report.ratio:.6g}")
    _emit(config, report.to_json_dict, report.long_csv, report.summary_csv)


# command -> (handler, whose docstring is the command's help; flags; output
# formats it can write)
COMMANDS = {
    "state": (_cmd_state, ("N", "d", "phases"), ("json",)),
    "qfim": (_cmd_qfim, ("N", "d", "phases", "chart"), ("json", "csv")),
    "cfim": (_cmd_cfim, ("N", "d", "phases", "chart"), ("json", "csv")),
    "transform": (_cmd_transform, ("d", "chart"), ("json",)),
    "bounds": (_cmd_bounds, ("N", "d", "phases", "chart", "kind", "alpha", "shots"), ("json",)),
    "sweep": (_cmd_sweep, ("N", "d"), ("json", "csv")),
    "simulate": (
        _cmd_simulate, ("N", "d", "phases", "shots", "replicates", "seed"), ("json", "csv")
    ),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's flags, ``output`` and ``format``: each from the command line, else the config.

    A config file may hold any key of ``CONFIG_KEYS``; the keys the command
    does not take are ignored.
    """
    keys = (*COMMANDS[args.command][1], "output", "format")
    values = {key: getattr(args, key) for key in keys}
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
        for key in keys:
            if values[key] is None and key in doc:
                values[key] = doc[key]
    return values


def _build_run_config(command: str, values: dict) -> RunConfig:
    config = RunConfig(command=command)
    given = {key: value for key, value in values.items() if value is not None}
    for key in ("output", "format", "chart", "kind"):
        if key in given:
            if not isinstance(given[key], str):
                raise ValidationError(f"{key} must be a string, got {given[key]!r}")
            setattr(config, "fmt" if key == "format" else key, given[key])
    if config.output == "":
        raise ValidationError("output must be a nonempty path")
    for flag in COMMANDS[command][1]:
        choices = FLAGS[flag].get("choices")
        if choices and flag in given and given[flag] not in choices:
            raise ValidationError(
                f"{flag} must be one of {', '.join(choices)}, got {given[flag]!r}"
            )
    formats = COMMANDS[command][2]
    if config.fmt not in formats:
        raise ValidationError(f"{command} output supports {' or '.join(formats)} only")
    config.alpha_spec = given.get("alpha", config.alpha_spec)
    default_phases = "uniform:0.1" if command == "simulate" else "uniform:0"
    config.phases_spec = given.get("phases", default_phases)
    for key in ("shots", "replicates", "seed"):
        if key in given:
            setattr(config, key, _require_int(given[key], key))
    _check_seed(config.seed)

    if command == "sweep":
        config.photon_list = _parse_int_list(given.get("N"), "N")
        config.node_list = _parse_int_list(given.get("d"), "d")
    elif command == "transform":
        if "d" not in given:
            raise ValidationError("d is required")
        config.nodes = _require_int(given["d"], "d")
        config.chart = given.get("chart", "mc")
    else:
        if "N" not in given or "d" not in given:
            raise ValidationError("N and d are required")
        config.photons = _require_int(given["N"], "N")
        config.nodes = _require_int(given["d"], "d")
        # before any phase vector or matrix of size d is allocated
        _check_counts(config.photons, config.nodes)
        if command == "simulate" and "shots" not in given:
            raise ValidationError("shots is required")
    return config


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        COMMANDS[config.command][0](config)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzsense",
        description=(
            "Fisher-information analysis and measurement simulation for "
            "ring-distributed entangled-photon phase sensing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--output", help="write machine-readable output to this path")
        p.add_argument("--format", choices=("json", "csv"), help="machine output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _build_run_config(args.command, _merge_config(args))
    except ValidationError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
