"""Run ``python -m repro.harness ARGS`` in-process with every layer traced.

Usage: ``python perfbench/traced_cli.py SPANS_JSON [CLI ARGS...]``

Imports the CLI (recorded as the ``import`` span), wraps the entry points
in :data:`perfbench.spans.TARGETS`, runs the CLI's ``main`` and writes the
spans, counters and missing targets to ``SPANS_JSON``.  The parent process
measures the wall time from spawn to exit, so interpreter start-up and
teardown land in the run's unaccounted time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import TARGETS, Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.begin("import", "import")
    import repro.harness.__main__  # noqa: F401  - what `python -m repro.harness` imports
    from repro.harness import runner

    tracer.end(index)
    missing = install(tracer, TARGETS)
    try:
        code = runner.main(cli_args)
    finally:
        payload = {
            "spans": tracer.spans,
            "counters": dict(tracer.counters),
            "missing": missing,
        }
        Path(spans_path).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
