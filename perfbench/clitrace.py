"""Traced stand-in for ``python -m gwextropy`` in the traced cli_cold run.

Usage: python3 perfbench/clitrace.py SUMMARY.json <subcommand> [args...]

Runs the subcommand the way the package's ``__main__`` does, with the layer
boundaries wrapped, and writes the tracer's summary to SUMMARY.json. The
package import is its own span, so the cli layer includes import.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer(keep=0)
    mods = tr.call("cli.import", _import)
    lib = SimpleNamespace(run_command=mods.cli.run_command)
    tr.install(mods, lib)
    try:
        code = lib.run_command(argv)
    finally:
        tr.restore()
        tr.end_pass()
        Path(summary_path).write_text(json.dumps(tr.summary()))
    return code


def _import():
    from gwextropy import cli, estimators, measures, orders, sampling

    return SimpleNamespace(cli=cli, estimators=estimators, measures=measures, orders=orders, sampling=sampling)


if __name__ == "__main__":
    sys.exit(main())
