"""Do only a CLI run's set-up: import its modules and open its cache directory.

Usage: ``python perfbench/setup_probe.py {report,sweep,nas} [CACHE_DIR]``

This is the part of ``python -m repro.harness [sweep|nas] ...`` that runs
before the first workload is planned.  The benchmark times this process
from spawn to exit and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    kind = argv[0]
    import repro.harness.__main__  # noqa: F401  - what `python -m repro.harness` imports

    if kind == "sweep":
        import repro.dse  # noqa: F401  - imported when the sweep subcommand starts
    elif kind == "nas":
        import repro.nas  # noqa: F401  - imported when the nas subcommand starts
    if len(argv) > 1:
        from repro.session import ResultCache

        ResultCache(argv[1]).close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
