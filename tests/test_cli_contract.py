"""The README exit contract under generated command lines and config files.

Every invocation must end with status 0, 2, 3 or 4 and no traceback; a
format the command cannot write is refused before anything is printed; and
a rerun in the same directory prints and writes the same bytes.  Every ring
that is built has at most 64 nodes, every run at most 1000 shots and 60
replicates, so every example runs in milliseconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsense import cli

# argv tokens per flag: values the flag takes, then boundary and malformed ones
VALID = {
    "N": ("2", "4", "8", "2,4"),
    "d": ("4", "6", "8", "16", "64", "4,6"),
    "phases": ("uniform:0", "uniform:0.1", "uniform:-0.2", "0.1,0.2,0.3,0.4",
               "0.1,0.2,0.3,0.4,0.5,0.6"),
    "chart": ("original", "mc", "d4-orthogonal"),
    "kind": ("quantum", "classical"),
    "alpha": ("avg", "1,0,0", "1,0,0,0", "1,0,0,0,0", "-1,1,-1,1", "0,1,0"),
    "shots": ("1", "2", "100", "1000"),
    "replicates": ("50", "60"),
    "seed": ("0", "42"),
    "output": ("out.json", "sub/out.csv"),
    "format": ("json", "csv"),
}
INVALID = {
    "N": ("0", "3", "-2", "2,3", ",", "", "2.5", "1e3", "x", str(2**52), str(2**60)),
    "d": ("3", "5", "2", "0", "-4", "4,5", "4.0", "x", "", "9" * 30),
    "phases": ("uniform:3", "uniform:", "uniform:x", "uniform:nan", "uniform:inf", "0.1",
               "nan,0,0,0", "x", ""),
    "chart": ("polar",),
    "kind": ("both",),
    "alpha": ("0,0,0", "nan,0,0", "inf,0,0", "1e308,1e308,1e308", "x", ""),
    "shots": ("0", "-1", "1.5", "x"),
    "replicates": ("49", "0", "-3", "50.0", "x"),
    "seed": ("-1", "1.5", "x", str(2**64)),
    "output": (".",),
    "format": ("xml",),
}
ODD_JSON = st.sampled_from([None, True, math.nan, math.inf, -math.inf, 0.5, 1e300, "", []])
JSON_VALUES = {
    "N": st.sampled_from([2, 4, 8, 3]) | st.lists(st.sampled_from([2, 4, 3]), max_size=3),
    "d": st.sampled_from([4, 6, 8, 64, 5]) | st.lists(st.sampled_from([4, 6, 5]), max_size=3),
    "phases": st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=8),
    "alpha": st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=6),
    "shots": st.integers(-2, 1000),
    "replicates": st.integers(-2, 60),
    "seed": st.integers(-2, 2**64),
}


def one_time_in(n: int):
    """A strategy that is True about one time in ``n``."""
    return st.sampled_from((False,) * (n - 1) + (True,))


@st.composite
def tokens(draw, flag):
    """A value the flag takes five times in six, else a boundary or malformed one."""
    return draw(st.sampled_from(INVALID[flag] if draw(one_time_in(6)) else VALID[flag]))


@st.composite
def configs(draw):
    """None, a JSON object over the config keys, or now and then another document."""
    pick = draw(st.sampled_from(("none",) * 4 + ("object",) * 3 + ("odd",)))
    if pick == "none":
        return None
    if pick == "odd":  # an unknown key, a JSON value that is not an object, or not JSON
        return draw(st.sampled_from(({"bogus": 1}, "[1, 2]", "{", "null")))
    doc = {}
    for key in cli.CONFIG_KEYS:
        if draw(st.booleans()):
            value = JSON_VALUES.get(key, st.nothing()) | tokens(key)
            doc[key] = draw(ODD_JSON if draw(one_time_in(8)) else value)
    return doc


@st.composite
def invocations(draw):
    """(argv without --config, config document or text or None)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = []
    for flag in cli.COMMANDS[command][1]:
        # simulate always gets --replicates, so no run fits more than 60 tables;
        # N and d are left out one time in ten, the other flags half the time
        if flag == "replicates" or not draw(one_time_in(10 if flag in ("N", "d") else 2)):
            flags.append(flag)
    if draw(one_time_in(10)):  # a flag the command may not take
        flags.append(draw(st.sampled_from(sorted(cli.FLAGS))))
    flags += [flag for flag in ("output", "format") if draw(st.booleans())]
    argv = [command] + [f"--{flag}={draw(tokens(flag))}" for flag in flags]
    return argv, draw(configs())


def run_in(directory: Path, argv):
    """Run ``cli.main(argv)`` in-process: (status, stdout, stderr, files written).

    An exception other than argparse's ``SystemExit`` propagates, so an
    invocation that would end in a traceback fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    written = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "config.json":
            written[str(path.relative_to(directory))] = path.read_bytes()
            path.unlink()
    return status, out.getvalue(), err.getvalue(), written


@settings(deadline=None, max_examples=200)
@given(invocations())
def test_generated_invocations_keep_the_exit_contract(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        if config is not None:
            path = directory / "config.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, f"--config={path}"]
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: name}):
            first = run_in(directory, argv)
            again = run_in(directory, argv)
    status, out, err, _ = first
    assert status in (0, 2, 3, 4), (status, err)
    assert "Traceback" not in err
    if status == 2 and "output supports" in err:
        assert out == ""
    assert again == first
