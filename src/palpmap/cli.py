"""Experiment orchestration and the `palpmap` command-line interface.

The closed loop: probe the 19 startup targets, then for each budgeted step
update the compatible sets with the new measurements, estimate stiffness for
the sets that are new or grew (a set's members fix its reference, so they
alone identify its sample; the others keep their samples),
re-register the probed points to the mesh, refit the GP in the tool frame
(its Cholesky factor grows by block append from the previous update's when
inputs were only appended, and from an empty one otherwise), predict over
the ROI grid (whitening the grid rows of appended inputs, or of all inputs
onto empty rows after a fit from scratch), and let the sampling policy pick
the next target: EI, or the uniform lattice in one batch, as
`config.strategy` names. The reuse of sets and samples is bit-identical to
recomputing them; a GP factor grown from the previous one equals a fit from
scratch at the same jitter to rounding (see `gp`).

Scoring follows the loop: `evaluate` builds the ground-truth map once per
command and scores every run against it and against the phantom's true
transform. `run` and `compare` execute, evaluate, then write
CSV/JSON/PGM files to the configured directory.

Registration has one seeding policy. The first and the final update search
from every configured seed; each update between them starts from the
previous winner alone. The GP, EI and the map work in tool-frame locations,
so the loop's registrations feed only the next warm start and the trace. Each
registration is also handed the previous one's result, as each GP fit is,
and reuses its winner's closest-point neighbourhoods (per row, the closest
face and a bound on every other face), which saves k-d tree searches and
changes no result (see `care`); `trace` keeps the results without them.

Config documents are read through one table, `CONFIG_SCHEMA`, which names
the target each section builds; a section's keys are its target's parameter
names, and `schema` reads every field, as it does the phantom's. The engine
calls its layers (`probe`, `estimate_stiffness`, `cmu_register`, `gp_fit`,
...) through this module's globals, because the benchmark in `bench/` times
them by swapping those names here.
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

from .acquisition import SamplingPolicy, expected_improvement, select_next
from .care import (CMUConfig, CompatibleSet, ProbeMeasurement, RegistrationResult,
                   SetCollector, StiffnessSample, default_seed_transforms,
                   estimate_stiffness, cmu_register)
from .errors import (ConfigError, ExplorationExhaustedError, InvalidInputError,
                     NumericalConditioningError, OutOfWorkspaceError, PalpmapError)
from .geometry import RigidTransform, load_mesh, rms_error
from .gp import (CrossCovariance, GPModel, KernelParams, Prediction, TrainingSet, gp_fit,
                 gp_predict)
from .schema import REQUIRED, build, keys, read, read_document, reject_unknown
from .simulator import (MAX_GRID_NODES, NoiseSpec, PhantomSpec, ProbeConfig, ROI,
                        grid_shape, initial_samples, load_phantom, prediction_grid, probe,
                        stiffness_field, tool_rays, transform_to_json, uniform_lattice)

_STRATEGIES = ("ei", "uniform")
# Largest budget a config may ask for: EI probes each grid node at most once, and
# `uniform` lays out its whole lattice of `budget` targets before the first probe.
MAX_BUDGET = MAX_GRID_NODES


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
    seed_transforms: Tuple[RigidTransform, ...]  # the restart table the `cmu` keys build
    budget: int
    strategy: str
    output_dir: Path
    master_seed: int


# One row per target built from a config section: (section, target), read by
# `schema.build`. The target's parameter names are the section's keys, its
# annotations give their types and its defaults are the config defaults; no
# default makes a key required.
CONFIG_SCHEMA = (("roi", ROI), ("probe", ProbeConfig), ("noise", NoiseSpec),
                 ("kernel", KernelParams), ("policy", SamplingPolicy),
                 ("cmu", default_seed_transforms), ("cmu", CMUConfig))
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
    if top["budget"] > MAX_BUDGET:
        raise ConfigError(f"'budget' must be at most {MAX_BUDGET:,}")

    built = {}
    for section, target in CONFIG_SCHEMA:
        raw = read(data, "", section, dict, {})
        allowed = set().union(*(keys(t) for s, t in CONFIG_SCHEMA if s == section))
        built[target] = build(target, raw, section, allowed)

    return ExperimentConfig(
        phantom_path=path.parent / top["phantom"], roi=built[ROI], probe=built[ProbeConfig],
        noise=built[NoiseSpec], kernel=built[KernelParams], policy=built[SamplingPolicy],
        cmu=built[CMUConfig], seed_transforms=built[default_seed_transforms],
        budget=top["budget"], strategy=top["strategy"],
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
    wall_clock_seconds: float  # the closed loop's, scoring excluded
    registration_converged: bool
    gp_jitter_used: float
    top_decile_rmse: float
    top_decile_threshold: float

    def to_json_dict(self) -> dict:
        # wall clock is deliberately left out so identical runs serialize
        # byte-identically; it is printed and written to timing.txt instead.
        # registration_converged and gp_jitter_used are left out too; the
        # commands warn on them. The top-decile scores go to comparison.json.
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
class RunArtifacts:
    """Everything the closed loop produced, for `evaluate`, writers and tests."""

    config: ExperimentConfig
    phantom: PhantomSpec
    grid: np.ndarray
    model: GPModel  # the final fit
    prediction: Prediction  # its posterior over the grid
    samples: List[StiffnessSample]  # the final update's, one per set; each carries its set
    measurements: List[ProbeMeasurement]
    # one per probe; probe i sensed measurements [i * steps, (i + 1) * steps)
    probe_targets: List[np.ndarray]
    # the registration of every update; the final one is trace[-1][1]
    trace: List[Tuple[int, RegistrationResult]]
    seconds: float  # the loop's wall clock


def _ground_truth_map(spec: PhantomSpec, grid: np.ndarray) -> np.ndarray:
    """True stiffness seen through a noise-free probe at each grid node (NaN = miss)."""
    origins, direction = tool_rays(spec, grid)
    contacts, _ = spec.mesh.raycasts(origins, direction)
    values = np.full(grid.shape[0], np.nan)
    good = np.isfinite(contacts[:, 0])
    if np.any(good):
        values[good] = stiffness_field(spec, contacts[good][:, :2])
    return values


def execute_experiment(config: ExperimentConfig) -> RunArtifacts:
    """Run the closed loop of `config.strategy` to its final update; return its state.

    Nothing is scored (see `evaluate`) and nothing is written.
    """
    t_start = time.perf_counter()
    phantom = load_phantom(config.phantom_path)
    # distinct tags give independent streams of the one master seed
    rng_explore = np.random.default_rng([config.master_seed, 0])
    rng_noise = np.random.default_rng([config.master_seed, 1])

    grid = prediction_grid(config.roi)
    probed = np.zeros(grid.shape[0], dtype=bool)  # True at the grid nodes already probed
    targets: List[np.ndarray] = []
    collector = SetCollector(config.cmu)  # owns the measurement log
    measurements = collector.measurements
    trace: List[Tuple[int, RegistrationResult]] = []

    def do_probe(target):
        for m in probe(phantom, target, config.probe, config.noise, rng_noise):
            collector.add(m)
        targets.append(np.asarray(target, dtype=float))
        probed[np.all(np.abs(grid - np.asarray(target)) <= 1e-9, axis=1)] = True

    for target in initial_samples(config.roi):
        do_probe(target)

    configured = config.seed_transforms
    # the previous update's registration, its samples by their set, which
    # the collector keeps until the set gains a member, its GP fit and its
    # grid rows: what a probe leaves unchanged is reused, not recomputed
    registered: Optional[RegistrationResult] = None
    known: Dict[CompatibleSet, StiffnessSample] = {}
    fitted: Optional[GPModel] = None
    cross = CrossCovariance()

    def update(seeds: Tuple[RigidTransform, ...]):
        nonlocal registered, known, fitted
        samples = [known.get(cset) or estimate_stiffness(cset, measurements)
                   for cset in collector.sets()]
        known = {s.cset: s for s in samples}
        registered = cmu_register(samples, phantom.mesh, measurements, seeds, config.cmu,
                                  previous=registered)
        valid = [s for s in samples if not s.degenerate]
        training = TrainingSet([s.cset.location for s in valid],
                               [s.stiffness for s in valid])
        model = fitted = gp_fit(training, config.kernel, previous=fitted)
        prediction = gp_predict(model, grid, cross)
        trace.append((len(targets), dataclasses.replace(
            registered, neighbourhoods=None, neighbourhood_rows=None)))
        return samples, model, prediction

    if config.strategy == "ei":
        for step in range(1, config.budget + 1):
            # the first update searches every configured seed, later ones
            # start from the previous winner alone
            seeds = configured if registered is None else (registered.transform,)
            _, model, prediction = update(seeds)
            try:
                idx = select_next(prediction, grid, probed,
                                  float(model.training.outputs.max()), step,
                                  config.policy, rng_explore,
                                  prior_variance=config.kernel.sigma_f)
            except ExplorationExhaustedError:
                break
            do_probe(grid[idx])
    elif config.budget > 0:
        for target in uniform_lattice(config.roi, config.budget):
            do_probe(target)

    # the final update searches every configured seed, as the first does
    samples, model, prediction = update(configured)
    return RunArtifacts(
        config=config, phantom=phantom, grid=grid, model=model, prediction=prediction,
        samples=samples, measurements=measurements, probe_targets=targets, trace=trace,
        seconds=time.perf_counter() - t_start)


def evaluate(runs: Sequence[RunArtifacts]) -> List[ExperimentReport]:
    """Score runs of one phantom and ROI against one ground-truth map.

    Registration is scored against the phantom's true transform at the final
    valid samples' reference points; the map over the grid nodes whose ray
    reaches the surface, and over those in the top decile of true stiffness.
    """
    if not runs or any(art.config.phantom_path != runs[0].config.phantom_path
                       or art.config.roi != runs[0].config.roi for art in runs):
        raise InvalidInputError("evaluate scores one or more runs of one phantom and ROI")
    ground_truth = _ground_truth_map(runs[0].phantom, runs[0].grid)
    good = np.isfinite(ground_truth)
    if not np.any(good):
        raise OutOfWorkspaceError("no prediction-grid ray reaches the surface")
    gt = ground_truth[good]
    threshold = float(np.quantile(gt, 0.9))
    top = gt >= threshold

    reports = []
    for art in runs:
        _, registration = art.trace[-1]
        truth, estimate = art.phantom.true_transform, registration.transform
        reference_points = np.asarray([
            art.measurements[s.cset.reference_index].position
            for s in art.samples if not s.degenerate
        ])
        mean = art.prediction.mean[good]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
            diff = mean - gt
            flat = np.std(gt) < 1e-15 or np.std(mean) < 1e-15
            scores = dict(
                rms_mm=rms_error(estimate, truth, reference_points),
                map_rmse=float(np.sqrt(np.mean(diff * diff))),
                map_pearson=0.0 if flat else float(np.corrcoef(mean, gt)[0, 1]),
                top_decile_rmse=float(np.sqrt(np.mean(diff[top] * diff[top]))))
        for name, value in scores.items():
            if not np.isfinite(value):
                raise NumericalConditioningError(
                    f"the {art.config.strategy} run's {name} is {value}, not finite")
        reports.append(ExperimentReport(
            strategy=art.config.strategy, probe_count=len(art.probe_targets),
            true_transform=truth, estimated_transform=estimate,
            translation_error_mm=tuple(abs(float(e - t)) for e, t
                                       in zip(estimate.translation, truth.translation)),
            rotation_error_deg=tuple(abs((a - b + 180.0) % 360.0 - 180.0) for a, b
                                     in zip(estimate.euler_deg(), truth.euler_deg())),
            registration_objective=float(registration.objective),
            wall_clock_seconds=art.seconds, registration_converged=registration.converged,
            gp_jitter_used=art.model.jitter_used, top_decile_threshold=threshold, **scores,
        ))
    return reports


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: str, rows):
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")


def _write_stiffness_map(art: RunArtifacts, path: Path):
    mean, std = art.prediction.mean, art.prediction.std
    ei = expected_improvement(mean, std, float(art.model.training.outputs.max()))
    rows = [[_fmt(x), _fmt(y), _fmt(mean[i]), _fmt(std[i]), _fmt(ei[i])]
            for i, (x, y) in enumerate(art.grid)]
    _write_csv(path, "x_mm,y_mm,mean,std,ei", rows)


def _write_probe_log(art: RunArtifacts, path: Path):
    # each row gets its own measurement's set's stiffness: NaN for a
    # measurement in no set or in a degenerate one
    stiffness = {member: s.stiffness for s in art.samples
                 if not s.degenerate for member in s.cset.member_indices}

    increment = art.config.probe.depth_increment_mm
    steps = art.config.probe.steps
    rows = []
    for index, target in enumerate(art.probe_targets):
        for k in range(steps):
            row = index * steps + k
            rows.append([
                str(index), _fmt(target[0]), _fmt(target[1]),
                str(k + 1), _fmt((k + 1) * increment), _fmt(art.measurements[row].force),
                _fmt(stiffness.get(row, float("nan"))),
            ])
    _write_csv(path, "probe_index,target_x_mm,target_y_mm,sample_index,depth_mm,"
                     "force_n,stiffness_n_per_mm", rows)


def _write_registration_trace(art: RunArtifacts, path: Path):
    rows = []
    for probes_used, reg in art.trace:
        rx, ry, rz = reg.transform.euler_deg()
        tx, ty, tz = reg.transform.translation
        rows.append([
            str(probes_used), str(reg.iterations), _fmt(reg.objective),
            _fmt(tx), _fmt(ty), _fmt(tz), _fmt(rx), _fmt(ry), _fmt(rz),
        ])
    _write_csv(path, "probes_used,iterations,objective,tx_mm,ty_mm,tz_mm,rx_deg,ry_deg,rz_deg",
               rows)


def _pgm_bytes(values: np.ndarray) -> bytes:
    """8-bit binary PGM (P5) of an (ny, nx) array: finite min to 0, max to 255, NaN to 0."""
    ny, nx = values.shape
    finite = np.isfinite(values)
    lo = float(values[finite].min()) if finite.any() else 0.0
    hi = float(values[finite].max()) if finite.any() else 0.0
    if hi - lo <= 0.0:
        img = np.zeros((ny, nx), dtype=np.uint8)
    else:
        img = np.rint((np.where(finite, values, lo) - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return f"P5\n{nx} {ny}\n255\n".encode("ascii") + img.tobytes()


def write_run_outputs(art: RunArtifacts, report: ExperimentReport, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_stiffness_map(art, out / "stiffness_map.csv")
    _write_probe_log(art, out / "probe_log.csv")
    _write_registration_trace(art, out / "registration_trace.csv")
    nx, ny = grid_shape(art.config.roi)
    (out / "heatmap.pgm").write_bytes(_pgm_bytes(art.prediction.mean.reshape(ny, nx)))
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    (out / "timing.txt").write_text(
        f"wall_clock_seconds {report.wall_clock_seconds:.3f}\n")
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute and evaluate one run, and write its files to config.output_dir."""
    art = execute_experiment(config)
    [report] = evaluate([art])
    write_run_outputs(art, report, config.output_dir)
    return report


def compare_strategies(config: ExperimentConfig) -> List[ExperimentReport]:
    """Run the same phantom/budget/seed with EI and with uniform sampling.

    Per-strategy outputs land in <output_dir>/ei and <output_dir>/uniform; a
    comparison.json at the top level holds the map RMSE over the whole grid
    and over the top-decile-stiffness region. Returns the reports, EI first.
    """
    runs = [execute_experiment(dataclasses.replace(config, strategy=strategy))
            for strategy in _STRATEGIES]
    reports = evaluate(runs)
    out = Path(config.output_dir)
    for art, report in zip(runs, reports):
        write_run_outputs(art, report, out / report.strategy)
    summary = {
        "master_seed": int(config.master_seed),
        "budget": int(config.budget),
        "top_decile_threshold": reports[0].top_decile_threshold,
        **{report.strategy: {"map_rmse": report.map_rmse, "map_pearson": report.map_pearson,
                             "top_decile_rmse": report.top_decile_rmse,
                             "rms_mm": report.rms_mm} for report in reports},
    }
    (out / "comparison.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return reports


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _print_warnings(report: ExperimentReport, config: ExperimentConfig):
    if not report.registration_converged:
        print(f"warning: {report.strategy}: final registration stopped at the "
              f"{config.cmu.max_iterations}-iteration cap without converging",
              file=sys.stderr)
    if report.gp_jitter_used != config.kernel.jitter:
        print(f"warning: {report.strategy}: GP jitter escalated from "
              f"{config.kernel.jitter:g} to {report.gp_jitter_used:g}", file=sys.stderr)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    _print_warnings(report, config)
    print(f"wrote {config.output_dir}")
    print(f"probes: {report.probe_count}")
    print(f"registration rms: {report.rms_mm:.4f} mm "
          f"(objective {report.registration_objective:.4f})")
    print(f"map rmse: {report.map_rmse:.4f} N/mm, pearson {report.map_pearson:.4f}")
    print(f"wall clock: {report.wall_clock_seconds:.2f} s")
    return 0


def _cmd_compare(args) -> int:
    config = load_config(args.config)
    reports = compare_strategies(config)
    print(f"wrote {config.output_dir}")
    for report in reports:
        _print_warnings(report, config)
        print(f"{report.strategy}: map rmse {report.map_rmse:.4f} N/mm, "
              f"rms {report.rms_mm:.4f} mm, probes {report.probe_count}")
    return 0


def _cmd_ground_truth(args) -> int:
    spec = load_phantom(args.phantom)
    # the tool frame, as in the run outputs: grid (x, y) label tool-frame rays
    tool = spec.true_transform.inverse().apply(spec.mesh.vertices)
    lo, hi = tool.min(axis=0), tool.max(axis=0)
    if not np.all(hi[:2] > lo[:2]):
        raise ConfigError(f"{args.phantom}: phantom.true_transform leaves the mesh no "
                          "tool-frame x-y extent")
    try:
        roi = ROI(xmin=float(lo[0]), xmax=float(hi[0]),
                  ymin=float(lo[1]), ymax=float(hi[1]), spacing=args.spacing)
    except InvalidInputError as exc:
        raise ConfigError(f"--spacing {args.spacing:g}: {exc}") from exc
    grid = prediction_grid(roi)
    values = _ground_truth_map(spec, grid)  # NaN where no ray meets the mesh

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[_fmt(x), _fmt(y), _fmt(v)] for (x, y), v in zip(grid, values)]
    _write_csv(out / "ground_truth_map.csv", "x_mm,y_mm,stiffness_n_per_mm", rows)

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
