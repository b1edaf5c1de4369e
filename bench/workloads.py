"""The three benchmark workloads: inputs written from a seed, and how each runs.

Each workload is one closed-loop experiment driven the way `palpmap run` or
`palpmap compare` drives it: from `load_config` to written artifacts, a
single client in one process, every probe waiting for the previous update.
The benchmark seed gives each run's configs their `master_seed`s; the
phantoms do not depend on it. Why each workload is in the set is recorded in BENCHMARK.json
and bench/README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from palpmap import cli
from palpmap.make_demo import write_demo
from palpmap.simulator import artery_phantom, save_phantom

NOISE_FREE_RMS_MM = 1.2  # acceptance criterion 1
NOISY_RMS_MM = 1.6  # acceptance criterion 2
SEED_STRIDE = 10_000  # master seeds of one run: seed, seed + 10000, ...


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[Path, int], Path]  # (directory, seed) -> config path
    compare: bool  # run both strategies, as `palpmap compare` does
    probes_per_run: int
    rms_bound_mm: float
    # master seeds per run; several where the work per experiment depends
    # strongly on the seed, so that a run's median is not one seed's luck
    seeds_per_run: int
    # cycles through the seeds that every run makes, whatever --seconds says;
    # three where experiments are short, so that each update's median over
    # the repeats drops a stretch of slow updates in one of them
    repeats: int = 1

    def master_seeds(self, seed: int) -> List[int]:
        return [seed + j * SEED_STRIDE for j in range(self.seeds_per_run)]

    def execute(self, config_path: Path) -> Tuple[object, List[object]]:
        """Load the config and run it to written artifacts.

        Returns the parsed config and the strategy reports, EI first.
        """
        config = cli.load_config(config_path)
        if self.compare:
            return config, list(cli.compare_strategies(config))
        return config, [cli.run_experiment(config)]

    def output_dirs(self, config) -> List[Path]:
        if self.compare:
            return [config.output_dir / "ei", config.output_dir / "uniform"]
        return [config.output_dir]


def _noisy_inputs(directory: Path, seed: int) -> Path:
    write_demo(directory)
    return _set_seed(directory / "config.json", seed)


def _scaled_inputs(directory: Path, seed: int) -> Path:
    write_demo(directory)
    path = directory / "config.json"
    doc = json.loads(path.read_text())
    # noise-free and the default kernel jitter (1e-8), with 3x the budget on
    # a grid 4x as dense as the demo's
    del doc["noise"], doc["kernel"]
    doc["roi"]["spacing"] = 0.5
    doc["budget"] = 300
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return _set_seed(path, seed)


def _artery_inputs(directory: Path, seed: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    save_phantom(artery_phantom(), directory / "phantom.json")
    doc = {
        "phantom": "phantom.json",
        "roi": {"xmin": 0.0, "xmax": 60.0, "ymin": 0.0, "ymax": 60.0,
                "spacing": 1.5},
        "budget": 100,
        "strategy": "ei",
        "output_dir": "out",
    }
    path = directory / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return _set_seed(path, seed)


def _set_seed(path: Path, seed: int) -> Path:
    doc = json.loads(path.read_text())
    doc["master_seed"] = seed
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="multimodal-noisy",
        write_inputs=_noisy_inputs, compare=False, probes_per_run=119,
        rms_bound_mm=NOISY_RMS_MM, seeds_per_run=3),
    Workload(
        name="multimodal-scaled",
        write_inputs=_scaled_inputs, compare=False, probes_per_run=319,
        rms_bound_mm=NOISE_FREE_RMS_MM, seeds_per_run=1),
    Workload(
        name="artery-compare",
        write_inputs=_artery_inputs, compare=True, probes_per_run=119,
        rms_bound_mm=NOISE_FREE_RMS_MM, seeds_per_run=1, repeats=3),
)}
