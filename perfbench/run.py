"""End-to-end benchmark of the Bit Fusion reproduction's command line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload in :data:`perfbench.workloads.WORKLOADS` is one
``python -m repro.harness ...`` command, run again and again as a fresh
subprocess for ``--seconds`` seconds.  With ``--trace 0`` the runs are
untraced and the end-to-end metrics are reported as medians over them,
beside the set-up time of a process that only imports the CLI and opens its
cache directory.  Times are in reference seconds: every run is paired with
runs of ``perfbench/calibrate.py``, a fixed job, just before it, and its
host seconds are scaled by ``REFERENCE_S`` over theirs, so a shared host's
drifting speed cancels out.  Seeded workloads take turns with several specs
drawn from the seed.  With ``--trace 1`` untraced runs of the first spec
alternate with runs of ``perfbench/traced_cli.py``, which wraps every
layer's entry points, and the per-layer self times and counts of the median
traced run are reported.

Every run's output is checked against a reference computed in this
process, and seeded samples are re-run through the scalar oracles; items
that error, are quarantined or fail a check count in ``failed``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, fidelity  # noqa: E402
from perfbench.measure import Run, directory_bytes, run_child  # noqa: E402
from perfbench.spans import LAYERS, Span, layer_totals  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: Every run measures at least this many repetitions, however short --seconds is.
MIN_RUNS = 3
MAX_RUNS = 60
MIB = 1024.0 * 1024.0
#: Runs of ``calibrate.py`` paired with each timed run; two start-ups and two
#: samples track the host better than one.
CALIBRATION_RUNS = 2
#: A host that runs those in this many seconds together reports host seconds.
REFERENCE_S = 0.75

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    **fidelity.FIGURES,
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: dict[str, str] = {
    **{
        name: unit
        for layer in LAYERS
        for name, unit in ((f"{layer}_s", "s"), (f"{layer}_calls", "count"))
        if name != "import_calls"
    },
    "session.keying_calls_per_item": "count",
    "session.cache.hit_ratio": "ratio",
    "session.store.bytes_written": "B",
    "session.backends.units": "count",
    "sim.blocks_per_call": "count",
    "store_mb": "MiB",
    "unaccounted_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "trace.missing_targets": "count",
}


def layer_metrics(
    spans: list[Span], counters: dict[str, float], wall_s: float, items: int
) -> dict[str, float]:
    """Per-layer self seconds and calls of one traced run, plus derived ratios.

    The self times plus ``unaccounted_s`` add up to ``wall_s``.
    """
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        seconds, calls = totals.get(layer, (0.0, 0))
        out[f"{layer}_s"] = seconds
        if layer != "import":
            out[f"{layer}_calls"] = calls
    simulate_calls = out["sim.simulate_calls"]
    lookups = counters.get("cache.lookups", 0.0)
    out.update(
        {
            "session.keying_calls_per_item": out["session.keying_calls"] / items,
            "session.cache.hit_ratio": counters.get("cache.hits", 0.0) / lookups if lookups else 0.0,
            "session.store.bytes_written": counters.get("store.bytes_written", 0.0),
            "session.backends.units": counters.get("backends.units", 0.0),
            "sim.blocks_per_call": (
                counters.get("sim.blocks", 0.0) / simulate_calls if simulate_calls else 0.0
            ),
            "unaccounted_s": wall_s - sum(seconds for seconds, _ in totals.values()),
            "traced_wall_s": wall_s,
        }
    )
    return out


@dataclass
class Variant:
    """One seeded spec of a workload, its CLI arguments and the runs made of it."""

    seed: int
    spec: dict | None
    args: list[str]
    cache_dir: Path | None
    runs: list[Run] = field(default_factory=list)
    reference: checks.Reference | None = None


class Bench:
    """One workload's runs inside a private scratch directory of the checkout."""

    def __init__(self, workload: Workload, seeds: list[int], root: Path) -> None:
        self.workload = workload
        self.work = root / ".perfbench" / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.variants = []
        for seed in seeds:
            directory = self.work / f"seed-{seed}"
            directory.mkdir()
            cache_dir = directory / "cache" if workload.cache else None
            args = workload.cli_args(workload.write_spec(seed, directory), cache_dir)
            self.variants.append(Variant(seed, workload.spec(seed), args, cache_dir))
        self.env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        # Fixed hashing keeps set and dict layouts, and so timings, alike across runs.
        self.env["PYTHONHASHSEED"] = "0"
        # One BLAS thread: idle pool threads spinning on a 2-core host are noise.
        self.env["OPENBLAS_NUM_THREADS"] = self.env["OMP_NUM_THREADS"] = "1"
        # Users import from cached bytecode: let the runs write and read it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.root = root
        self.here = Path(__file__).resolve().parent

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def run(self, argv: list[str], variant: Variant) -> Run:
        if self.workload.cache == "cold":
            shutil.rmtree(variant.cache_dir, ignore_errors=True)
        return run_child(argv, self.env, self.work)

    def cli(self, variant: Variant) -> Run:
        run = self.run([sys.executable, "-m", "repro.harness", *variant.args], variant)
        variant.runs.append(run)
        return run

    def traced(self, variant: Variant, spans_path: Path) -> Run:
        script = self.here / "traced_cli.py"
        run = self.run([sys.executable, str(script), str(spans_path), *variant.args], variant)
        variant.runs.append(run)
        return run

    def calibrate(self) -> float:
        """Host seconds the calibration job takes right now."""
        total = 0.0
        for _ in range(CALIBRATION_RUNS):
            run = run_child([sys.executable, str(self.here / "calibrate.py")], self.env, self.work)
            if run.returncode != 0:
                raise RuntimeError(f"calibration job failed:\n{run.stderr[-2000:]}")
            total += run.wall_s
        return total

    def probe(self, variant: Variant) -> Run:
        argv = [sys.executable, str(self.here / "setup_probe.py"), self.workload.kind]
        if variant.cache_dir is not None:
            argv.append(str(variant.cache_dir))
        run = self.run(argv, variant)
        if run.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{run.stderr[-2000:]}")
        return run

    def prepare(self) -> None:
        """Untimed set-up: byte-compile the sources, fill the warm cache directories.

        The runs that fill them are checked like the timed ones.
        """
        compiled = run_child(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src"), str(self.here)],
            self.env,
            self.work,
        )
        if compiled.returncode != 0:
            raise RuntimeError(f"byte-compiling the sources failed:\n{compiled.stdout[-2000:]}")
        if self.workload.cache == "warm":
            for variant in self.variants:
                self.cli(variant)

    def store_mb(self) -> float:
        """Size of the first variant's cache directory as its last run left it."""
        cache_dir = self.variants[0].cache_dir
        return directory_bytes(cache_dir) / MIB if cache_dir is not None else 0.0

    def check(self, tally: checks.Tally) -> None:
        """Hold every run's output to its in-process reference, then the oracles."""
        for variant in self.variants:
            if not variant.runs:
                continue  # a short run did not get round to this spec
            reference = variant.reference = checks.reference(self.workload.kind, variant.spec)
            for run in variant.runs:
                if run.returncode != 0:
                    tally.add(reference.items, reference.items, f"runs exiting {run.returncode}")
                    tally.notes.append(run.stderr.strip()[-500:])
                    continue
                failed, quarantined = reference.check(run.stdout)
                tally.add(
                    reference.items,
                    min(reference.items, failed + quarantined),
                    "items differing from the reference or quarantined",
                )
            good = next((run for run in variant.runs if run.returncode == 0), None)
            if self.workload.kind == "sweep":
                block = checks.fenced_block(good.stdout) if good else ""
                checks.sweep_oracle(reference.result, block, variant.seed, tally)
            elif self.workload.kind == "nas":
                checks.nas_oracle(reference.result, variant.seed, tally)


def keep_going(done: int, started: float, seconds: float) -> bool:
    """Whether another repetition fits: the measured time stays near ``seconds``."""
    if done < MIN_RUNS:
        return True
    elapsed = time.perf_counter() - started
    return done < MAX_RUNS and elapsed + elapsed / done <= seconds


def measure(bench: Bench, seconds: float, tally: checks.Tally) -> tuple[dict, dict]:
    """Untraced runs, each after a calibration and a set-up probe; medians.

    The runs take turns with the bench's variants.  Each run's and probe's
    host seconds are scaled to reference seconds by the calibration just
    before them.
    """
    bench.prepare()
    timed: list[tuple[float, Run, Run, Variant]] = []
    started = time.perf_counter()
    while keep_going(len(timed), started, seconds):
        variant = bench.variants[len(timed) % len(bench.variants)]
        calibration = bench.calibrate()
        probe = bench.probe(variant)
        timed.append((calibration, probe, bench.cli(variant), variant))
    store_mb = bench.store_mb()
    bench.check(tally)
    metrics = {
        "wall_s": statistics.median(run.wall_s * REFERENCE_S / cal for cal, _, run, _ in timed),
        "setup_s": statistics.median(
            probe.wall_s * REFERENCE_S / cal for cal, probe, _, _ in timed
        ),
        # Items per second after set-up, each run against the probe just before
        # it: what slows one slows the other, and the difference cancels it.
        "items_per_s": statistics.median(
            variant.reference.items * cal / (REFERENCE_S * (run.wall_s - probe.wall_s))
            for cal, probe, run, variant in timed
        ),
        "peak_rss_mb": statistics.median(run.rss_mb for _, _, run, _ in timed),
        **fidelity.compute(),
    }
    host = {
        "calibration_s": statistics.median(cal for cal, _, _, _ in timed),
        "wall_s": statistics.median(run.wall_s for _, _, run, _ in timed),
        "setup_s": statistics.median(probe.wall_s for _, probe, _, _ in timed),
    }
    extra = {"runs": len(timed), "store_mb": store_mb, "host": host}
    return metrics, extra


def measure_traced(bench: Bench, seconds: float, tally: checks.Tally) -> tuple[dict, dict]:
    """Untraced and traced runs of the first variant alternated; layers of the median traced run."""
    bench.prepare()
    variant = bench.variants[0]
    untraced: list[Run] = []
    traced: list[tuple[Run, Path]] = []
    started = time.perf_counter()
    while keep_going(len(traced), started, seconds):
        untraced.append(bench.cli(variant))
        spans_path = bench.work / f"spans-{len(traced)}.json"
        traced.append((bench.traced(variant, spans_path), spans_path))
    store_mb = bench.store_mb()
    bench.check(tally)
    median_run, spans_path = sorted(traced, key=lambda pair: pair[0].wall_s)[len(traced) // 2]
    if median_run.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{median_run.stderr[-2000:]}")
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span(*fields) for fields in payload["spans"]]
    metrics = layer_metrics(spans, payload["counters"], median_run.wall_s, variant.reference.items)
    metrics["store_mb"] = store_mb
    metrics["trace_overhead_s"] = statistics.median(
        run.wall_s for run, _ in traced
    ) - statistics.median(run.wall_s for run in untraced)
    metrics["trace.missing_targets"] = len(payload["missing"])
    extra = {"runs": len(traced), "missing": payload["missing"]}
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2
    # The references, oracles and fidelity figures run the checkout's code in-process.
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    seeds = workload.variant_seeds(args.seed)
    # The traced run keeps to one spec, so its call counts compare across commits.
    bench = Bench(workload, seeds[:1] if args.trace else seeds, root)
    tally = checks.Tally()
    try:
        if args.trace:
            metrics, extra = measure_traced(bench, args.seconds, tally)
        else:
            metrics, extra = measure(bench, args.seconds, tally)
    finally:
        bench.close()

    units = PER_LAYER if args.trace else END_TO_END
    items = "/".join(str(variant.reference.items) for variant in bench.variants if variant.runs)
    print(f"workload {args.workload}, seed {args.seed}, {extra['runs']} runs, "
          f"{items} items per run of each spec, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  {'store_mb':36s} {extra['store_mb']:14.6g} MiB")
        for name, value in extra["host"].items():
            print(f"  {'host ' + name:36s} {value:14.6g} s")
    print(f"  {'failed_share':36s} {tally.failed_share:14.6g} ({tally.failed} of {tally.attempted})")
    for label in extra.get("missing", ()):
        print(f"  missing layer entry point: {label}")
    for note in tally.notes:
        print(f"  check failed: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
