"""The benchmark's workloads and the seeded inputs each one runs.

Every workload is one ``python -m repro.harness`` command.  The seed only
shapes inputs the program reads (the sweep's array and bandwidth values,
the NAS search seed); the work per run stays about the same across seeds:
648 design points for the sweeps, population 32 x 8 generations for NAS.
A benchmark run takes turns with several specs drawn from its seed, which
evens out what cost difference remains.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "ARRAY_CHOICES",
    "BANDWIDTH_CHOICES",
    "WORKLOADS",
    "Workload",
    "nas_spec",
    "sweep_spec",
]

#: The six networks of the 648-point sweep (AlexNet and ResNet-18 are the
#: report's; a sweep over them would be dominated by two networks).
SWEEP_NETWORKS = ("LeNet-5", "Cifar-10", "SVHN", "VGG-7", "LSTM", "RNN")
#: Array geometries and off-chip bandwidths the seed draws three of each from.
ARRAY_CHOICES = tuple((rows, columns) for rows in (16, 32, 64) for columns in (8, 16, 32))
BANDWIDTH_CHOICES = (32, 64, 128, 256, 512)


def sweep_spec(seed: int) -> dict[str, Any]:
    """6 networks x 2 batches x 3 arrays x 3 bandwidths x 2 nodes x 3 bit widths."""
    rng = random.Random(f"sweep-{seed}")
    arrays = sorted(rng.sample(ARRAY_CHOICES, 3))
    bandwidths = sorted(rng.sample(BANDWIDTH_CHOICES, 3))
    return {
        "name": f"perfbench sweep (seed {seed})",
        "networks": list(SWEEP_NETWORKS),
        "batch_sizes": [1, 16],
        "axes": {
            "array": [list(array) for array in arrays],
            "bandwidth": bandwidths,
            "technology": ["45nm", "16nm"],
            "fixed_bits": [2, 4, 8],
        },
    }


def nas_spec(seed: int) -> dict[str, Any]:
    """A ResNet-18 search over every mutation axis, population 32 x 8 generations."""
    return {
        "name": f"perfbench nas (seed {seed})",
        "base_network": "ResNet-18",
        "axes": ["width", "depth", "bits", "kernel"],
        "population": 32,
        "generations": 8,
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    """One CLI command the benchmark times.

    ``kind`` is the subcommand (``report``, ``sweep`` or ``nas``);
    ``cache`` is ``"cold"`` (an empty ``--cache-dir`` for every run),
    ``"warm"`` (a directory a cold run filled during set-up) or ``None``
    (in memory); ``variants`` is how many seeded specs a run takes turns with.
    """

    name: str
    kind: str
    why: str
    cache: str | None = None
    variants: int = 1

    def spec(self, seed: int) -> dict[str, Any] | None:
        if self.kind == "sweep":
            return sweep_spec(seed)
        if self.kind == "nas":
            return nas_spec(seed)
        return None

    def variant_seeds(self, seed: int) -> list[int]:
        """The seeds of the ``variants`` specs one benchmark run takes turns with.

        Inputs drawn from one seed cost more or less than the average (a NAS
        search that grows wide networks takes longer); taking turns with
        several keeps the time of a run close to the average whatever the seed.
        """
        return [seed * self.variants + index for index in range(self.variants)]

    def write_spec(self, seed: int, directory: Path) -> Path | None:
        spec = self.spec(seed)
        if spec is None:
            return None
        path = directory / f"{self.kind}-spec.json"
        path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
        return path

    def cli_args(self, spec_path: Path | None, cache_dir: Path | None) -> list[str]:
        """Arguments after ``python -m repro.harness``."""
        args = [] if self.kind == "report" else [self.kind, str(spec_path)]
        if cache_dir is not None:
            args += ["--cache-dir", str(cache_dir)]
        return args


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sweep-cold",
            "sweep",
            "648-point sweep into an empty --cache-dir: the cache and store write path",
            cache="cold",
            variants=3,
        ),
        Workload(
            "sweep-warm",
            "sweep",
            "the same sweep against the directory a cold run left, 648/648 hits: "
            "the read path, with nothing compiled or simulated",
            cache="warm",
            variants=3,
        ),
        Workload(
            "nas-search",
            "nas",
            "seeded ResNet-18 search in memory: compile, estimator and mutation "
            "heavy, the store does nothing",
            # Search cost varies most with the seed: about 15% between seeds.
            variants=6,
        ),
        Workload(
            "report",
            "report",
            "the full paper report in memory: the only workload that runs the "
            "baselines and the harness experiments; its inputs are the paper's, "
            "so the seed changes nothing",
        ),
    )
}
