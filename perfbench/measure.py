"""Time child processes from spawn to exit and read their peak memory."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Run", "directory_bytes", "run_child"]

#: A single CLI run takes a few seconds; this only stops a hung child.
TIMEOUT_S = 120.0


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # the group is already gone


def run_child(argv: list[str], env: dict[str, str], workdir: Path) -> Run:
    """Run ``argv`` to completion; wall time and max RSS come from ``wait4``.

    The child leads its own process group, so a hung run is killed together
    with any worker processes it started.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, start_new_session=True
        )
        watchdog = threading.Timer(TIMEOUT_S, _kill_group, (process.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            _kill_group(process.pid)
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # Workers a run left behind (it should leave none) die with it.
    _kill_group(process.pid)
    # wait4 reaped the child; tell Popen so it does not wait again.
    process.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
