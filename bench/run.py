#!/usr/bin/env python3
"""palpmap benchmark: closed-loop experiments timed end to end, or traced by layer.

    python3 bench/run.py --workload multimodal-noisy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; palpmap is imported from its `src/`.
`--workload all` runs the three workloads in turn. Each run first makes a
small untimed warm-up experiment. With `--trace 0` the run then times whole
experiments with only `palpmap.cli.probe` timestamped; with `--trace 1` it
runs one such experiment and then the same one with every layer wrapped, and
reports per-layer self times, counters and the tracing overhead.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A record with
the environment is written to bench/_work/<workload>.json.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from tracing import (MIN_BEYOND, ProbeClock, Tracer, clock_probe, install_layers,
                     percentile, pooled_updates, samples_beyond, update_gaps)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# the machine's speed flips between states about 1.5x apart, at times within
# a fraction of a second and at times not for tens of seconds, so setup_s is
# the fastest of a fixed number of set-up passes spread over the run
SETUP_PASSES = 240  # per run, spread over the experiments every run makes
TAIL = 90.0  # the update_p90_ms percentile
WARM_BUDGET = 4  # probes after startup in the warm-up experiment
WARM_SPACING_MM = 4.0  # grid spacing of the warm-up experiment


def metric_names(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every `end_to_end` or `per_layer` metric in BENCHMARK.json.

    The benchmark reports exactly these, so the file is their one source.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def import_palpmap():
    """Import palpmap from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import palpmap
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import palpmap from {SRC}: {exc}")
    if not Path(palpmap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: palpmap imported from {palpmap.__file__}, "
                         f"not from {SRC}")
    return palpmap


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _openblas() -> List[dict]:
    """Version and thread count of the OpenBLAS that numpy and scipy each bundle."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    found.append({"package": package.__name__,
                                  "config": config().decode().strip(),
                                  "threads": int(threads())})
                    break
    return found


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    seed: int
    wall_s: float
    cpu_s: float
    gaps: List[float] = field(default_factory=list)
    rms_mm: float = float("nan")
    map_rmse: float = float("nan")
    outputs: Dict[str, bytes] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class _FirstProbe(Exception):
    """Raised in place of the first probe to end a set-up-only pass."""


def measure_setup(workload, config_path: Path) -> float:
    """Time from the load_config call to the first probe call, then stop."""
    from palpmap import cli

    original = cli.probe

    def stop(*args, **kwargs):
        raise _FirstProbe(time.perf_counter())

    cli.probe = stop
    start = time.perf_counter()
    try:
        workload.execute(config_path)
    except _FirstProbe as hit:
        return hit.args[0] - start
    finally:
        cli.probe = original
    raise RuntimeError("experiment ended without probing")


def warm_up(workload, config_path: Path):
    """Run a small experiment of the same config, untimed and unchecked.

    The first experiment in a process runs lazy code paths (BLAS thread
    start-up, first calls into scipy) that later ones skip; this one takes
    them before anything is timed, traced or not.
    """
    doc = json.loads(config_path.read_text())
    doc["budget"] = WARM_BUDGET
    doc["roi"]["spacing"] = max(doc["roi"].get("spacing", 1.0), WARM_SPACING_MM)
    doc["output_dir"] = "warm-out"
    path = config_path.with_name("warm.json")
    path.write_text(json.dumps(doc))
    workload.execute(path)


def run_once(workload, seed: int, config_path: Path, tracer: Tracer,
             probe_clock: ProbeClock, root_span: bool = False) -> Experiment:
    """One whole experiment, from load_config to written artifacts, then checked."""
    from checks import check_comparison, check_reports, check_run_dir
    from palpmap.simulator import initial_samples

    out_root = config_path.parent / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    probe_clock.clear()
    cpu0 = time.process_time()
    start = time.perf_counter()
    span = tracer.open("bench.experiment") if root_span else None
    error = None
    try:
        config, reports = workload.execute(config_path)
    except Exception as exc:  # a failed experiment is counted, not fatal
        error = exc
        traceback.print_exc(file=sys.stderr)
    finally:
        if span is not None:
            tracer.close(span)
    wall = time.perf_counter() - start
    run = Experiment(seed=seed, wall_s=wall, cpu_s=time.process_time() - cpu0)
    if error is not None:
        run.problems.append(f"raised {type(error).__name__}: {error}")
        return run

    startup = len(initial_samples(config.roi))
    run.gaps = update_gaps(probe_clock.calls, probe_clock.returns,
                           startup - 1, reports[0].probe_count - 1)
    run.rms_mm = reports[0].rms_mm
    run.map_rmse = reports[0].map_rmse
    run.problems += check_reports(reports, workload.probes_per_run,
                                  workload.rms_bound_mm)
    for out in workload.output_dirs(config):
        run.problems += check_run_dir(out)
        if (out / "report.json").is_file():
            run.outputs[f"{out.name}/report.json"] = (out / "report.json").read_bytes()
    if workload.compare:
        comparison = config.output_dir / "comparison.json"
        run.problems += check_comparison(comparison)
        if comparison.is_file():
            run.outputs["comparison.json"] = comparison.read_bytes()
    return run


def check_identical(runs: List[Experiment]):
    """report.json (and comparison.json) must repeat byte for byte.

    An experiment whose outputs differ from the first checked experiment of
    the same seed fails.
    """
    first: Dict[int, Experiment] = {}
    for r in runs:
        if r.problems:
            continue
        ref = first.setdefault(r.seed, r)
        r.problems += [f"{name} differs from the first experiment of seed {r.seed}"
                       for name in sorted(ref.outputs)
                       if r.outputs.get(name) != ref.outputs[name]]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tally(runs: List[Experiment], log) -> dict:
    """Check repeats, log every failed check, and count attempts and failures."""
    check_identical(runs)
    failed = sum(1 for r in runs if r.problems)
    for r in runs:
        for p in r.problems:
            log(f"  FAILED CHECK: {p}")
    log(f"  experiments      {len(runs)}, failed {failed}, "
        f"error_rate {failed / len(runs):.4f}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed}


def untraced(workload, configs: Dict[int, Path], seconds: float, log) -> dict:
    """Whole experiments, cycling over the run's master seeds.

    Every seed runs `workload.repeats` times; further experiments follow in
    the same cycle while the next one is expected to end within `seconds`. A
    faster program thus repeats seeds more, but never runs other ones.
    """
    tracer = Tracer()
    probe_clock = ProbeClock()
    clock_probe(tracer, probe_clock)
    seeds = list(configs)
    setup_config = configs[seeds[0]]
    warm_up(workload, setup_config)
    planned = len(seeds) * workload.repeats
    per_slot = SETUP_PASSES // (planned + 1)
    setups: List[float] = []
    runs: List[Experiment] = []
    try:
        # set-up passes go before each planned experiment and after the last,
        # so that they span the run and not one moment of the machine; their
        # number does not grow with the extra experiments a faster program fits
        start = time.perf_counter()
        while True:
            if len(runs) <= planned:
                setups += [measure_setup(workload, setup_config) for _ in range(per_slot)]
            elapsed = time.perf_counter() - start
            if (len(runs) >= planned
                    and elapsed * (len(runs) + 1) / len(runs) > seconds):
                break
            seed = seeds[len(runs) % len(seeds)]
            runs.append(run_once(workload, seed, configs[seed], tracer, probe_clock))
    finally:
        tracer.uninstall()

    result = tally(runs, log)
    ok = [r for r in runs if not r.problems]
    if not ok:
        return {**result, "metrics": {}}
    # each seed contributes the median over its repeats, of its wall time and
    # of each update time; a minimum would fall with the number of repeats,
    # which a faster program gets more of. The seeds are different inputs, so
    # wall times are averaged over them and update times pooled.
    by_seed: Dict[int, List[Experiment]] = {}
    for r in ok:
        by_seed.setdefault(r.seed, []).append(r)
    gaps = pooled_updates([[r.gaps for r in repeats] for repeats in by_seed.values()])
    beyond = samples_beyond(len(gaps), TAIL)
    if beyond < MIN_BEYOND:
        log(f"  FAILED CHECK: only {beyond} update samples beyond p{TAIL:g}")
        result["correct"] = False
    values = {"wall_s": statistics.mean(statistics.median(r.wall_s for r in repeats)
                                        for repeats in by_seed.values()),
              "update_p90_ms": 1e3 * percentile(gaps, TAIL),
              "setup_s": min(setups)}
    p50 = 1e3 * percentile(gaps, 50.0)
    cpu = statistics.median(r.cpu_s for r in ok)
    log(f"  setup_s          {values['setup_s']:.4f} s   (fastest of {len(setups)} "
        f"set-ups; median {statistics.median(setups):.4f} s)")
    log(f"  wall_s           {values['wall_s']:.3f} s   (mean over {len(by_seed)} seeds "
        f"of the median per seed: {', '.join(f'{r.seed}: {r.wall_s:.3f}' for r in ok)})")
    repeats = ", ".join(str(len(v)) for v in by_seed.values())
    log(f"  update_p50_ms    {p50:.2f} ms  (n={len(gaps)} EI updates, each the median "
        f"over the repeats of its seed ({repeats}); reported, not bounded)")
    log(f"  update_p90_ms    {values['update_p90_ms']:.2f} ms  (n={len(gaps)}, "
        f"{beyond} beyond)")
    quality = {r.seed: (r.rms_mm, r.map_rmse) for r in ok}
    for seed, (rms, rmse) in quality.items():
        log(f"  master_seed {seed:<6d} rms_mm {rms:.6f} mm, map_rmse {rmse:.6f} N/mm "
            f"(EI run)")
    log(f"  process.cpu_s    {cpu:.3f} s  (diagnostic, median per experiment)")
    result["metrics"] = {name: metric(values[name], unit)
                         for name, unit in metric_names("end_to_end")}
    result["reported"] = {
        "update_p50_ms": p50, "update_samples": len(gaps), "setup_samples": len(setups),
        "setup_median_s": statistics.median(setups),
        "process.cpu_s": cpu,
        "quality": {str(seed): {"rms_mm": rms, "map_rmse": rmse}
                    for seed, (rms, rmse) in quality.items()}}
    return result


class _Noop:
    def call(self):
        return None


def wrapper_cost(calls: int = 10_000) -> float:
    """Seconds that a Tracer.wrap wrapper adds to one call of a no-op method.

    Wrappers that add counters cost a little more, so calls times this is a
    lower bound on what the tracing adds to a traced experiment.
    """
    noop = _Noop()

    def loop() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            noop.call()
        return time.perf_counter() - start

    plain = min(loop() for _ in range(3))
    tracer = Tracer()
    tracer.wrap(_Noop, "call", "noop")
    try:
        wrapped = min(loop() for _ in range(3))
    finally:
        tracer.uninstall()
    return max(0.0, wrapped - plain) / calls


def traced(workload, seed: int, config_path: Path, log) -> dict:
    """A warm-up, one untraced experiment, then the same one with every layer wrapped."""
    warm_up(workload, config_path)
    probe_clock = ProbeClock()
    plain = Tracer()
    clock_probe(plain, probe_clock)
    try:
        base = run_once(workload, seed, config_path, plain, probe_clock)
    finally:
        plain.uninstall()

    tracer = Tracer()
    install_layers(tracer, probe_clock)
    try:
        run = run_once(workload, seed, config_path, tracer, probe_clock, root_span=True)
    finally:
        tracer.uninstall()

    result = tally([base, run], log)
    per_layer = metric_names("per_layer")
    values: Dict[str, float] = {}
    if not (base.problems or run.problems):
        values.update(tracer.counters)
        for name, own in tracer.self_time_by_name().items():
            values[f"{name}.self_s"] = own
        seed_runs = values.get("care.cmu_register.seed_runs", 0.0)
        values["care.cmu_register.converged_ratio"] = (
            (seed_runs - values.get("care.cmu_register.seed_cap_hits", 0.0)) / seed_runs
            if seed_runs else float("nan"))
        values["process.cpu_s"] = run.cpu_s
        values["trace.wall_s"] = run.wall_s
        values["trace.overhead_s"] = run.wall_s - base.wall_s
        wrapped_calls = sum(v for k, v in tracer.counters.items() if k.endswith(".calls"))
        per_call = wrapper_cost()
        values["trace.overhead_computed_s"] = wrapped_calls * per_call
        values["quality.rms_mm"] = run.rms_mm
        values["quality.map_rmse"] = run.map_rmse

        log(f"  untraced wall_s {base.wall_s:.3f} s, traced wall_s {run.wall_s:.3f} s, "
            f"tracing overhead {run.wall_s - base.wall_s:+.3f} s (both after a warm-up; "
            f"one pair, so it resolves no finer than the run-to-run spread of wall_s)")
        log(f"  computed overhead {values['trace.overhead_computed_s']:.4f} s "
            f"({wrapped_calls:.0f} wrapped calls x {per_call * 1e6:.2f} us per call "
            f"measured on a no-op; a lower bound)")
        for tag, seconds in sorted(tracer.time_by_tag("cli.execute_experiment").items()):
            log(f"  cli.execute_experiment[{tag}] {seconds:.3f} s")
        self_total = sum(tracer.self_time_by_name().values())
        log(f"  sum of self times {self_total:.3f} s of traced wall {run.wall_s:.3f} s")
        for name, unit in per_layer:
            value = values.get(name, 0.0)
            share = (f"  {100.0 * value / run.wall_s:5.1f}% of wall"
                     if unit == "s" and name.endswith("self_s") else "")
            log(f"  {name:40s} {value:14.6g} {unit}{share}")
    result["metrics"] = {name: metric(float(values.get(name, 0.0)), unit)
                         for name, unit in per_layer} if values else {}
    return result


def run_workload(workload, seed: int, seconds: float, trace: bool, env: dict,
                 log) -> dict:
    directory = WORK / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    # a traced run traces the first master seed only
    seeds = workload.master_seeds(seed)[:1 if trace else None]
    configs = {s: workload.write_inputs(directory / f"seed{s}", s) for s in seeds}
    log(f"workload {workload.name}  seed {seed}  master seeds "
        f"{', '.join(map(str, seeds))}  seconds {seconds:g}  trace {int(trace)}")
    if trace:
        result = traced(workload, seed, configs[seed], log)
    else:
        result = untraced(workload, configs, seconds, log)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, **result}
    (WORK / f"{workload.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the config's master_seed)")

    import_palpmap()
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")

    def log(line: str):
        print(line, flush=True)

    env = environment()
    blas = ", ".join(f"{b['config'].split()[1]} ({b['threads']} threads)"
                     for b in env["openblas"])
    log(f"environment: nproc {env['nproc']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, openblas {blas}, "
        f"commit {env['commit']}")

    WORK.mkdir(parents=True, exist_ok=True)
    results = {w.name: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                    env, log)
               for w in chosen}
    if len(results) == 1:
        final = {key: next(iter(results.values()))[key]
                 for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
