"""Experiment orchestration and the `palpmap` command-line interface.

The closed loop: probe the 19 startup targets, then for each budgeted step
update the compatible sets with the new measurements, estimate stiffness for
the sets that are new or changed (the others keep their samples),
re-register the probed points to the mesh, refit the GP in the tool frame,
predict over the ROI grid (evaluating the grid kernel only against inputs
that are new), and let the sampling policy pick the next target. The reuse
is bit-identical to recomputing everything. Outputs land in the configured
directory as CSV/JSON/PGM files.

Registration has one seeding policy. The first update searches from every
configured seed; each later update in the loop starts from the previous
winner alone; the final update searches from every configured seed plus the
previous winner. The GP, EI and the map work in tool-frame locations, so
registration feeds only the next warm start and the final report.

Config documents are read through one table, `CONFIG_SCHEMA`, which maps each
section's keys to the parameters of the dataclass they build; `schema` reads
every field, as it does the phantom's. The engine calls its layers (`probe`,
`estimate_stiffness`, `cmu_register`, `gp_fit`, ...) through this module's
globals, because the benchmark in `bench/` times them by swapping those
names here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .acquisition import Incumbent, SamplingPolicy, expected_improvement, select_next
from .care import (CMUConfig, CompatibleSet, ProbeMeasurement, RegistrationResult,
                   SetCollector, StiffnessSample, default_seed_transforms,
                   estimate_stiffness, cmu_register)
from .errors import (ConfigError, ExplorationExhaustedError, InvalidInputError,
                     OutOfWorkspaceError, PalpmapError)
from .geometry import RigidTransform, load_mesh, rms_error
from .gp import (CrossCovariance, GPModel, KernelParams, Prediction, TrainingSet, gp_fit,
                 gp_predict)
from .schema import REQUIRED, build, read, read_document, reject_unknown
from .simulator import (NoiseSpec, PhantomSpec, ProbeConfig, ROI, grid_shape,
                        initial_samples, load_phantom, prediction_grid, probe,
                        stiffness_field, tool_rays, transform_to_json, uniform_lattice)

_STRATEGIES = ("ei", "uniform")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    phantom_path: Path
    roi: ROI
    probe: ProbeConfig
    noise: NoiseSpec
    kernel: KernelParams
    policy: SamplingPolicy
    cmu: CMUConfig
    budget: int
    strategy: str
    output_dir: Path
    master_seed: int


# One row per target built from a config section: (section, target, {config
# key: target parameter}), read by `schema.build`. The target's annotations
# give each key's type and its defaults are the config defaults; no default
# makes a key required.
CONFIG_SCHEMA = (
    ("roi", ROI, {"xmin": "xmin", "xmax": "xmax", "ymin": "ymin",
                  "ymax": "ymax", "spacing": "spacing"}),
    ("probe", ProbeConfig, {"depth_increment_mm": "depth_increment",
                            "max_depth_mm": "max_depth"}),
    ("noise", NoiseSpec, {"position_sigma_mm": "position_sigma",
                          "force_sigma_n": "force_sigma", "rng_seed": "rng_seed"}),
    ("kernel", KernelParams, {"sigma_f": "sigma_f", "length_scale_mm": "length_scale",
                              "jitter": "jitter"}),
    ("policy", SamplingPolicy, {"exploration_period": "exploration_period",
                                "uncertainty_fraction": "uncertainty_fraction",
                                "rng_seed": "rng_seed"}),
    ("cmu", default_seed_transforms, {"random_seeds": "count",
                                      "max_translation_mm": "max_translation",
                                      "max_rotation_deg": "max_rotation_deg",
                                      "seed_rng_seed": "rng_seed"}),
    ("cmu", CMUConfig, {"tangent_distance_mm": "tangent_distance",
                        "normal_angle_deg": "normal_angle_deg",
                        "min_force_difference_n": "min_force_difference",
                        "max_iterations": "max_iterations",
                        "convergence_tolerance_mm": "convergence_tolerance"}),
)
# The config's other top-level keys: {key: (type, default)}
_TOP_LEVEL = {"phantom": (str, REQUIRED), "strategy": (str, "ei"), "budget": (int, 100),
              "output_dir": (str, "out"), "master_seed": (int, 0)}


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config document (unknown keys rejected)."""
    path = Path(path)
    data = read_document(path, "config")
    reject_unknown(data, set(_TOP_LEVEL) | {row[0] for row in CONFIG_SCHEMA}, "the config")
    top = {key: read(data, "", key, hint, default) for key, (hint, default) in _TOP_LEVEL.items()}
    if top["strategy"] not in _STRATEGIES:
        raise ConfigError(f"strategy must be one of {_STRATEGIES}, got {top['strategy']!r}")
    for key in ("budget", "master_seed"):
        if top[key] < 0:
            raise ConfigError(f"'{key}' must be >= 0")

    built = {}
    for section, target, keys in CONFIG_SCHEMA:
        # CMUConfig takes its seed transforms from the cmu row above it
        given = {"seed_transforms": built[default_seed_transforms]} if target is CMUConfig else {}
        raw = read(data, "", section, dict, {})
        allowed = set().union(*(row[2] for row in CONFIG_SCHEMA if row[0] == section))
        built[target] = build(target, keys, raw, section, allowed, **given)

    return ExperimentConfig(
        phantom_path=path.parent / top["phantom"], roi=built[ROI], probe=built[ProbeConfig],
        noise=built[NoiseSpec], kernel=built[KernelParams], policy=built[SamplingPolicy],
        cmu=built[CMUConfig], budget=top["budget"], strategy=top["strategy"],
        output_dir=path.parent / top["output_dir"], master_seed=top["master_seed"],
    )


# ---------------------------------------------------------------------------
# Experiment engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    """Registration and map quality summary of one run."""

    strategy: str
    probe_count: int
    true_transform: RigidTransform
    estimated_transform: RigidTransform
    translation_error_mm: Tuple[float, float, float]
    rotation_error_deg: Tuple[float, float, float]
    rms_mm: float
    registration_objective: float
    map_rmse: float
    map_pearson: float
    wall_clock_seconds: float
    registration_converged: bool

    def to_json_dict(self) -> dict:
        # wall clock is deliberately left out so identical runs serialize
        # byte-identically; it is printed and written to timing.txt instead.
        # registration_converged is left out too; the commands warn on it.
        return {
            "strategy": self.strategy,
            "probe_count": int(self.probe_count),
            "true_transform": transform_to_json(self.true_transform),
            "estimated_transform": transform_to_json(self.estimated_transform),
            "translation_error_mm": [float(v) for v in self.translation_error_mm],
            "rotation_error_deg": [float(v) for v in self.rotation_error_deg],
            "rms_mm": float(self.rms_mm),
            "registration_objective": float(self.registration_objective),
            "map_rmse": float(self.map_rmse),
            "map_pearson": float(self.map_pearson),
        }


@dataclass
class ProbeRecord:
    index: int
    target: np.ndarray
    start: int
    count: int


@dataclass
class RunArtifacts:
    """Everything a run produced, for writers and tests."""

    config: ExperimentConfig
    strategy: str
    report: ExperimentReport
    phantom: PhantomSpec
    grid: np.ndarray
    prediction: Prediction
    ei_map: np.ndarray
    model: GPModel
    training: TrainingSet
    registration: RegistrationResult
    sets: List[CompatibleSet]
    samples: List[StiffnessSample]
    measurements: List[ProbeMeasurement]
    probe_records: List[ProbeRecord]
    reference_points: np.ndarray
    ground_truth: np.ndarray
    trace: List[Tuple[int, RegistrationResult]]


def _mark_visited(grid: np.ndarray, target, visited: set):
    hits = np.flatnonzero(np.all(np.abs(grid - np.asarray(target)) <= 1e-9, axis=1))
    visited.update(int(i) for i in hits)


def _angle_error_deg(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _incumbent(training: TrainingSet) -> Incumbent:
    best = int(np.argmax(training.outputs))
    return Incumbent(value=float(training.outputs[best]), location=training.inputs[best])


def _ground_truth_map(spec: PhantomSpec, grid: np.ndarray) -> np.ndarray:
    """True stiffness seen through a noise-free probe at each grid node (NaN = miss)."""
    origins, direction = tool_rays(spec, grid)
    contacts, _ = spec.mesh.raycasts(origins, direction)
    values = np.full(grid.shape[0], np.nan)
    good = np.isfinite(contacts[:, 0])
    if np.any(good):
        values[good] = stiffness_field(spec, contacts[good][:, :2])
    return values


def execute_experiment(config: ExperimentConfig,
                       strategy: Optional[str] = None) -> RunArtifacts:
    """Run the full closed loop and return all artifacts (nothing written)."""
    t_start = time.perf_counter()
    strategy = strategy or config.strategy
    if strategy not in _STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    phantom = load_phantom(config.phantom_path)
    rng_noise = np.random.default_rng([config.master_seed, config.noise.rng_seed])
    rng_explore = np.random.default_rng([config.master_seed, config.policy.rng_seed])

    grid = prediction_grid(config.roi)
    visited: set = set()
    measurements: List[ProbeMeasurement] = []
    records: List[ProbeRecord] = []
    collector = SetCollector(config.cmu)
    trace: List[Tuple[int, RegistrationResult]] = []

    def do_probe(target):
        sensed = probe(phantom, target, config.probe, config.noise, rng_noise)
        start = len(measurements)
        measurements.extend(sensed)
        for m in sensed:
            collector.add(m)
        records.append(ProbeRecord(index=len(records),
                                   target=np.asarray(target, dtype=float),
                                   start=start, count=len(sensed)))
        _mark_visited(grid, target, visited)

    for target in initial_samples(config.roi):
        do_probe(target)

    configured = config.cmu.seed_transforms
    warm_start: Optional[RigidTransform] = None  # the previous update's winner
    # the previous update's samples by (index, members, reference) of their
    # set, and its grid x inputs kernel block: what a probe leaves unchanged
    # is reused, not recomputed
    known: Dict[tuple, StiffnessSample] = {}
    cross = CrossCovariance()

    def update(seeds: Tuple[RigidTransform, ...]):
        nonlocal warm_start, known
        sets = collector.sets(measurements)
        keys = [(cset.index, cset.member_indices, cset.reference_index) for cset in sets]
        samples = [known[key] if key in known else estimate_stiffness(cset, measurements)
                   for key, cset in zip(keys, sets)]
        known = dict(zip(keys, samples))
        cmu_cfg = dataclasses.replace(config.cmu, seed_transforms=seeds)
        registration = cmu_register(sets, samples, phantom.mesh, measurements, cmu_cfg)
        warm_start = registration.transform
        valid = [m for m in samples if not m.degenerate]
        training = TrainingSet([m.location for m in valid],
                               [m.stiffness for m in valid])
        model = gp_fit(training, config.kernel)
        prediction = gp_predict(model, grid, cross)
        trace.append((len(records), registration))
        return sets, samples, registration, training, model, prediction

    if strategy == "ei":
        for step in range(1, config.budget + 1):
            # the first update searches every configured seed, later ones
            # start from the previous winner alone
            seeds = configured if warm_start is None else (warm_start,)
            _, _, _, training, _, prediction = update(seeds)
            try:
                idx = select_next(prediction, grid, visited, _incumbent(training), step,
                                  config.policy, rng_explore,
                                  prior_variance=config.kernel.sigma_f)
            except ExplorationExhaustedError:
                break
            do_probe(grid[idx])
    elif config.budget > 0:
        for target in uniform_lattice(config.roi, config.budget):
            do_probe(target)

    # the final update searches every configured seed plus the previous winner
    seeds = configured if warm_start is None else configured + (warm_start,)
    sets, samples, registration, training, model, prediction = update(seeds)
    ei_map = expected_improvement(prediction.mean, prediction.std,
                                  _incumbent(training).value)

    reference_points = np.asarray([
        measurements[cset.reference_index].position
        for cset, sample in zip(sets, samples)
        if not sample.degenerate
    ])

    truth = phantom.true_transform
    estimate = registration.transform
    t_err = tuple(abs(float(e - t)) for e, t
                  in zip(estimate.translation, truth.translation))
    e_est = estimate.euler_deg()
    e_true = truth.euler_deg()
    r_err = tuple(_angle_error_deg(a, b) for a, b in zip(e_est, e_true))
    rms = rms_error(estimate, truth, reference_points)

    ground_truth = _ground_truth_map(phantom, grid)
    good = np.isfinite(ground_truth)
    if not np.any(good):
        raise OutOfWorkspaceError("no prediction-grid ray reaches the surface")
    diff = prediction.mean[good] - ground_truth[good]
    map_rmse = float(np.sqrt(np.mean(diff * diff)))
    if np.std(ground_truth[good]) < 1e-15 or np.std(prediction.mean[good]) < 1e-15:
        map_pearson = 0.0
    else:
        map_pearson = float(np.corrcoef(prediction.mean[good], ground_truth[good])[0, 1])

    report = ExperimentReport(
        strategy=strategy,
        probe_count=len(records),
        true_transform=truth,
        estimated_transform=estimate,
        translation_error_mm=t_err,
        rotation_error_deg=r_err,
        rms_mm=rms,
        registration_objective=float(registration.objective),
        map_rmse=map_rmse,
        map_pearson=map_pearson,
        wall_clock_seconds=time.perf_counter() - t_start,
        registration_converged=registration.converged,
    )
    return RunArtifacts(
        config=config, strategy=strategy, report=report, phantom=phantom,
        grid=grid, prediction=prediction, ei_map=np.asarray(ei_map), model=model,
        training=training, registration=registration, sets=sets, samples=samples,
        measurements=measurements, probe_records=records,
        reference_points=reference_points, ground_truth=ground_truth, trace=trace,
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _write_stiffness_map(art: RunArtifacts, path: Path):
    lines = ["x_mm,y_mm,mean,std,ei"]
    std = art.prediction.std
    for i, (x, y) in enumerate(art.grid):
        lines.append(",".join([
            _fmt(x), _fmt(y), _fmt(art.prediction.mean[i]), _fmt(std[i]),
            _fmt(art.ei_map[i]),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _write_probe_log(art: RunArtifacts, path: Path):
    stiffness_by_measurement: Dict[int, float] = {}
    for cset, sample in zip(art.sets, art.samples):
        if sample.degenerate:
            continue
        for member in cset.member_indices:
            stiffness_by_measurement[member] = sample.stiffness

    increment = art.config.probe.depth_increment
    lines = ["probe_index,target_x_mm,target_y_mm,sample_index,depth_mm,"
             "force_n,stiffness_n_per_mm"]
    for rec in art.probe_records:
        stiffness = stiffness_by_measurement.get(rec.start, float("nan"))
        for k in range(rec.count):
            m = art.measurements[rec.start + k]
            lines.append(",".join([
                str(rec.index), _fmt(rec.target[0]), _fmt(rec.target[1]),
                str(k + 1), _fmt((k + 1) * increment), _fmt(m.force),
                _fmt(stiffness),
            ]))
    path.write_text("\n".join(lines) + "\n")


def _write_registration_trace(art: RunArtifacts, path: Path):
    lines = ["probes_used,iterations,objective,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg"]
    for probes_used, reg in art.trace:
        rx, ry, rz = reg.transform.euler_deg()
        tx, ty, tz = reg.transform.translation
        lines.append(",".join([
            str(probes_used), str(reg.iterations), _fmt(reg.objective),
            _fmt(tx), _fmt(ty), _fmt(tz), _fmt(rx), _fmt(ry), _fmt(rz),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _pgm_bytes(values: np.ndarray) -> bytes:
    """8-bit binary PGM (P5) of an (ny, nx) array, min to 0 and max to 255."""
    ny, nx = values.shape
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0.0:
        img = np.zeros((ny, nx), dtype=np.uint8)
    else:
        img = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return f"P5\n{nx} {ny}\n255\n".encode("ascii") + img.tobytes()


def write_run_outputs(art: RunArtifacts, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_stiffness_map(art, out / "stiffness_map.csv")
    _write_probe_log(art, out / "probe_log.csv")
    _write_registration_trace(art, out / "registration_trace.csv")
    nx, ny = grid_shape(art.config.roi)
    (out / "heatmap.pgm").write_bytes(_pgm_bytes(art.prediction.mean.reshape(ny, nx)))
    (out / "report.json").write_text(
        json.dumps(art.report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    (out / "timing.txt").write_text(
        f"wall_clock_seconds {art.report.wall_clock_seconds:.3f}\n")
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one run and write its output files to config.output_dir."""
    art = execute_experiment(config)
    write_run_outputs(art, config.output_dir)
    return art.report


def _top_decile_rmse(art: RunArtifacts) -> Tuple[float, float]:
    good = np.isfinite(art.ground_truth)
    gt = art.ground_truth[good]
    threshold = float(np.quantile(gt, 0.9))
    region = gt >= threshold
    diff = art.prediction.mean[good][region] - gt[region]
    return float(np.sqrt(np.mean(diff * diff))), threshold


def compare_strategies(config: ExperimentConfig) -> Tuple[ExperimentReport, ExperimentReport]:
    """Run the same phantom/budget/seed with EI and with uniform sampling.

    Per-strategy outputs land in <output_dir>/ei and <output_dir>/uniform; a
    comparison.json at the top level holds the map RMSE over the whole grid
    and over the top-decile-stiffness region.
    """
    ei_art = execute_experiment(config, strategy="ei")
    uni_art = execute_experiment(config, strategy="uniform")
    out = Path(config.output_dir)
    write_run_outputs(ei_art, out / "ei")
    write_run_outputs(uni_art, out / "uniform")

    ei_top, threshold = _top_decile_rmse(ei_art)
    uni_top, _ = _top_decile_rmse(uni_art)
    summary = {
        "master_seed": int(config.master_seed),
        "budget": int(config.budget),
        "top_decile_threshold": threshold,
        "ei": {
            "map_rmse": float(ei_art.report.map_rmse),
            "map_pearson": float(ei_art.report.map_pearson),
            "top_decile_rmse": ei_top,
            "rms_mm": float(ei_art.report.rms_mm),
        },
        "uniform": {
            "map_rmse": float(uni_art.report.map_rmse),
            "map_pearson": float(uni_art.report.map_pearson),
            "top_decile_rmse": uni_top,
            "rms_mm": float(uni_art.report.rms_mm),
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ei_art.report, uni_art.report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _warn_if_unconverged(report: ExperimentReport, config: ExperimentConfig):
    if not report.registration_converged:
        print(f"warning: {report.strategy}: final registration stopped at the "
              f"{config.cmu.max_iterations}-iteration cap without converging",
              file=sys.stderr)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    _warn_if_unconverged(report, config)
    print(f"wrote {config.output_dir}")
    print(f"probes: {report.probe_count}")
    print(f"registration rms: {report.rms_mm:.4f} mm "
          f"(objective {report.registration_objective:.4f})")
    print(f"map rmse: {report.map_rmse:.4f} N/mm, pearson {report.map_pearson:.4f}")
    print(f"wall clock: {report.wall_clock_seconds:.2f} s")
    return 0


def _cmd_compare(args) -> int:
    config = load_config(args.config)
    ei_report, uni_report = compare_strategies(config)
    print(f"wrote {config.output_dir}")
    for report in (ei_report, uni_report):
        _warn_if_unconverged(report, config)
        print(f"{report.strategy}: map rmse {report.map_rmse:.4f} N/mm, "
              f"rms {report.rms_mm:.4f} mm, probes {report.probe_count}")
    return 0


def _cmd_ground_truth(args) -> int:
    spec = load_phantom(args.phantom)
    lo, hi = spec.mesh.bounds()
    try:
        roi = ROI(xmin=float(lo[0]), xmax=float(hi[0]),
                  ymin=float(lo[1]), ymax=float(hi[1]), spacing=args.spacing)
    except InvalidInputError as exc:
        raise ConfigError(f"--spacing {args.spacing:g}: {exc}") from exc
    grid = prediction_grid(roi)
    values = stiffness_field(spec, grid)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["x_mm,y_mm,stiffness_n_per_mm"]
    for (x, y), v in zip(grid, values):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}")
    (out / "ground_truth_map.csv").write_text("\n".join(lines) + "\n")

    nx, ny = grid_shape(roi)
    (out / "ground_truth.pgm").write_bytes(_pgm_bytes(values.reshape(ny, nx)))
    print(f"wrote {out / 'ground_truth_map.csv'} ({grid.shape[0]} points)")
    return 0


def _cmd_mesh_check(args) -> int:
    mesh = load_mesh(args.mesh)
    lo, hi = mesh.bounds()
    print(f"vertices: {mesh.vertices.shape[0]}")
    print(f"faces: {mesh.faces.shape[0]}")
    print(f"bounds: x [{lo[0]:.3f}, {hi[0]:.3f}] "
          f"y [{lo[1]:.3f}, {hi[1]:.3f}] z [{lo[2]:.3f}, {hi[2]:.3f}]")
    up = float(np.mean(mesh.face_normals[:, 2] > 0.0))
    print(f"upward-facing normals: {100.0 * up:.1f}%")
    print("mesh OK")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="palpmap",
        description="Stiffness mapping and surface registration experiments "
                    "on simulated palpation data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", type=Path)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run EI and uniform sampling on the same config")
    p_cmp.add_argument("config", type=Path)
    p_cmp.set_defaults(func=_cmd_compare)

    p_gt = sub.add_parser("ground-truth",
                          help="emit the phantom's true stiffness map")
    p_gt.add_argument("phantom", type=Path)
    p_gt.add_argument("--spacing", type=float, default=1.0,
                      help="grid spacing in mm (default 1)")
    p_gt.add_argument("--out", type=Path, default=Path("."),
                      help="output directory (default current)")
    p_gt.set_defaults(func=_cmd_ground_truth)

    p_mc = sub.add_parser("mesh-check", help="validate a mesh file")
    p_mc.add_argument("mesh", type=Path)
    p_mc.set_defaults(func=_cmd_mesh_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PalpmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
