"""Traced stand-in for ``python -m ghzsense.cli``: same command, spans written to a file.

Usage: python3 perfbench/cli_child.py <spans.csv.gz> <ghzsense command and flags...>
"""

import sys

from tracer import Tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    from ghzsense import cli

    try:
        status = cli.main(argv)
    finally:
        tracer.write(spans_path)
    sys.exit(status)
