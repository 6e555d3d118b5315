"""Run one bellkit CLI command in this process with the benchmark's hooks installed.

Usage: python3 traced_cli.py SPANS_PATH ARGV...

The traced counterpart of ``python -m bellkit.cli ARGV...``: it calls
``bellkit.cli.run_command`` with the same argv, so standard output is the
command's report byte for byte and the exit code is the command's own.  The
spans and counts are written to SPANS_PATH when the command returns.
"""

from __future__ import annotations

import sys

import bellkit.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = bellkit.cli.run_command(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
