"""Run one ``tailbayes`` CLI command with the benchmark's tracing installed.

    python3 perfbench/tracecli.py fit train.csv --t 0.3 --out model/

Equivalent to ``python3 -m tailbayes.cli ...`` (with ``src`` on PYTHONPATH),
except that the command is recorded as a ``cli.<command>`` span and the
package's public functions as spans beneath it.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[1])

import tailbayes.cli  # noqa: E402

from perfbench import tracing  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    tracing.install()
    tracing.TRACER.enabled = True
    with tracing.TRACER.span(f"cli.{argv[0]}"):
        return tailbayes.cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
