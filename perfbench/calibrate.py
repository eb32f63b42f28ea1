"""A fixed reference job that measures how fast the host runs right now.

Usage: ``python perfbench/calibrate.py``

It does what a CLI run does, in a fixed amount that no commit of the
program changes: start an interpreter, import numpy and the standard
modules the CLI imports, run interpreter-heavy Python (objects, dicts,
JSON, hashing) and a few numpy vector operations.  The benchmark runs it
beside every timed CLI run.  A shared host's speed drifts by up to a factor
of two over minutes; the ratio of a CLI run's time to this job's time
drifts much less, because both slow down alike.
"""

from __future__ import annotations

import argparse  # noqa: F401  - the standard modules `python -m repro.harness` imports
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import hashlib
import inspect  # noqa: F401
import json
import logging  # noqa: F401
import multiprocessing  # noqa: F401
import pickle  # noqa: F401
import socket  # noqa: F401
import subprocess  # noqa: F401
import uuid  # noqa: F401

import numpy as np

#: Sized so start-up and imports take about half of the job.  Start-up
#: heavy (a warm sweep) and compute heavy (a NAS search) runs both track
#: this mix better than a job that is mostly start-up.
INTERPRETED_ROUNDS = 170
VECTORISED_ROUNDS = 170


def interpreted(rounds: int) -> int:
    """Small objects, dict traffic, calls and hashing, as the program's keying does."""
    digest = 0
    table: dict[tuple[int, int], float] = {}
    for round_ in range(rounds):
        rows = [
            {"layer": index, "shape": (index % 7, index % 5, 3), "bits": 2 << (index % 3)}
            for index in range(400)
        ]
        for row in rows:
            key = (row["layer"], row["bits"])
            table[key] = table.get(key, 0.0) + row["shape"][0] * 0.5
        text = json.dumps(rows, sort_keys=True)
        digest ^= int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) + round_
    return digest + len(table)


def vectorised(rounds: int) -> float:
    """Elementwise numpy work over arrays a few hundred KiB large."""
    values = np.arange(50_000, dtype=np.float64)
    total = 0.0
    for _ in range(rounds):
        values = np.sqrt(values * values + 1.0)
        total += float(np.minimum(values, 7.0).sum())
    return total


def main() -> int:
    interpreted(INTERPRETED_ROUNDS)
    vectorised(VECTORISED_ROUNDS)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
