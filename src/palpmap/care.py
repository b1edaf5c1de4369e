"""Contact-based stiffness estimation and complementary model-update registration.

Raw probe measurements (tool-frame position, normal force magnitude, sensed
surface normal) are grouped into compatible sets; the `SetCollector` alone
keeps the measurement log and gives each set its reference (the first member
of least force), whose x-y is the set's location.
Each set yields a local stiffness estimate from a force-vs-depth line fit, a
`StiffnessSample` that carries its set. The samples drive an iterative
closest-point style registration from the seed transforms each call names:
the reference point of each sample's set is matched to the mesh, pushed
inward along the surface normal by the predicted indentation force/stiffness,
and the pose takes one linearised point-to-plane Gauss-Newton step towards
those targets (Chen & Medioni 1992; Rusinkiewicz & Levoy 2001). A seed stops
as soon as its objective stops falling, its step becomes negligible, or it
reaches the iteration cap. Every iterate is scored at one site: a batched
round over the seeds.

Each closest-point row carries its neighbourhood (its closest face and a
bound on every other face) from one round to the next, and a registration's
result holds its winning iterate's, by reference measurement index, for the
next call given it as `previous`. A row that moved less than its
certificate allows is re-scored on that one face alone. The certificate is
the triangle inequality (Greenspan & Godin 2001), and the face goes through
the same per-pair arithmetic and first minimum as a tree search, so the
result is exact: bit for bit what scoring every face gives, with or without
`previous`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .geometry import (Neighbourhoods, RigidTransform, TriMesh, check_not_collinear,
                       make_transform)
from .schema import integer
# unused here, but bench/tracing.py wraps care.rigid_fit_svd by name
from .geometry import rigid_fit_svd  # noqa: F401

_MIN_STIFFNESS = 1e-6  # N/mm floor for degenerate line fits
RESTART_TABLE_SEED = 7  # a constant: the restart table depends on no config key
# Most random restarts a config may ask for; the default is 10, and the first
# and the final registration run every one of them as a seed.
MAX_RESTART_SEEDS = 1_000
# Widest restart translation range a config may ask for (per axis, mm). The
# phantoms span tens of mm, so a seed offset by more registers nothing, and
# past about 1e154 mm `TriMesh.closest_points` rejects the moved points.
MAX_RESTART_TRANSLATION_MM = 1e6


@dataclass(frozen=True)
class ProbeMeasurement:
    """One sensed sample: tool-frame position (mm), force (N), unit normal."""

    position: np.ndarray
    force: float
    sensed_normal: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        nrm = np.asarray(self.sensed_normal, dtype=float)
        if pos.shape != (3,) or nrm.shape != (3,):
            raise InvalidInputError("position and sensed_normal must have shape (3,)")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(nrm))
                and np.isfinite(self.force)):
            raise InvalidInputError("measurement contains non-finite values")
        if self.force < 0.0:
            raise InvalidInputError("force must be >= 0")
        if abs(np.linalg.norm(nrm) - 1.0) > 1e-6:
            raise InvalidInputError("sensed_normal must be unit length")
        pos = pos.copy()
        nrm = nrm.copy()
        pos.flags.writeable = False
        nrm.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "sensed_normal", nrm)


@dataclass(frozen=True, eq=False)
class CompatibleSet:
    """Indices of measurements judged to probe the same surface patch.

    Equality and hashing are by identity: `SetCollector.sets` returns a new
    set only when its slot gains a member.
    """

    member_indices: Tuple[int, ...]
    reference_index: int  # member with the minimum force
    location: np.ndarray  # tool-frame x-y of the reference measurement

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float)
        if loc.shape != (2,):
            raise InvalidInputError("set location must have shape (2,)")
        if len(self.member_indices) < 2:
            raise InvalidInputError("a compatible set needs at least 2 members")
        if self.reference_index not in self.member_indices:
            raise InvalidInputError("reference_index must be a member")
        loc = loc.copy()
        loc.flags.writeable = False
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "member_indices", tuple(int(i) for i in self.member_indices))


@dataclass(frozen=True)
class StiffnessSample:
    """Local stiffness estimate of the set `cset`, located at the set's `location`."""

    stiffness: float
    cset: CompatibleSet
    degenerate: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.stiffness) and self.stiffness > 0.0):
            raise InvalidInputError("stiffness must be > 0")


def default_seed_transforms(random_seeds: int, max_translation_mm: float,
                            max_rotation_deg: float) -> Tuple[RigidTransform, ...]:
    """Identity plus `random_seeds` random perturbations for multi-seed registration."""
    if not (integer(random_seeds) and 0 <= random_seeds <= MAX_RESTART_SEEDS):
        raise InvalidInputError(f"random_seeds must be an integer in [0, {MAX_RESTART_SEEDS:,}]")
    for name, limit, cap in (("max_translation_mm", max_translation_mm,
                              MAX_RESTART_TRANSLATION_MM),
                             ("max_rotation_deg", max_rotation_deg, sys.float_info.max / 2)):
        # the rotation draw spans 2 * limit, which must stay a finite float
        if not 0.0 <= limit <= cap:
            raise InvalidInputError(f"{name} must lie in [0, {cap:.3g}]")
    rng = np.random.default_rng(RESTART_TABLE_SEED)
    seeds = [RigidTransform.identity()]
    for _ in range(random_seeds):
        t = rng.uniform(-max_translation_mm, max_translation_mm, size=3)
        r = rng.uniform(-max_rotation_deg, max_rotation_deg, size=3)
        seeds.append(make_transform(t[0], t[1], t[2], r[0], r[1], r[2]))
    return tuple(seeds)


@dataclass(frozen=True)
class CMUConfig:
    """Grouping thresholds, registration loop controls and the restart table.

    `seed_transforms` is the restart table that `random_seeds`,
    `max_translation_mm` and `max_rotation_deg` build: the identity, then
    the random restarts. Each registration still names its seeds.
    """

    tangent_distance_mm: float = 1.0
    normal_angle_deg: float = 10.0
    min_force_difference_n: float = 0.05
    max_iterations: int = 50  # per seed; a seed that reaches it has not converged
    convergence_tolerance_mm: float = 1e-3  # max reference-point displacement
    random_seeds: int = 10
    max_translation_mm: float = 10.0
    max_rotation_deg: float = 15.0
    # built, not given; neither compared (RigidTransform equality compares
    # arrays) nor printed
    seed_transforms: Tuple[RigidTransform, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        distance = self.tangent_distance_mm
        if not (distance > 0.0 and 0.0 < distance * distance < math.inf):
            raise InvalidInputError("tangent_distance_mm must be > 0 "
                                    "with a positive finite square")
        if not (math.isfinite(self.normal_angle_deg) and self.normal_angle_deg > 0.0):
            raise InvalidInputError("normal_angle_deg must be > 0")
        if not self.min_force_difference_n > 0.0:
            raise InvalidInputError("min_force_difference_n must be > 0")
        if not (integer(self.max_iterations) and self.max_iterations >= 1):
            raise InvalidInputError("max_iterations must be a positive integer")
        if not self.convergence_tolerance_mm > 0.0:
            raise InvalidInputError("convergence_tolerance_mm must be > 0")
        object.__setattr__(self, "seed_transforms", default_seed_transforms(
            self.random_seeds, self.max_translation_mm, self.max_rotation_deg))


# ---------------------------------------------------------------------------
# Step 1: greedy grouping
# ---------------------------------------------------------------------------

class SetCollector:
    """Incremental greedy grouping of measurements in arrival order.

    A measurement joins the first existing set (creation order) for which all
    three conditions hold, else it opens a new set:
      (i)   some member's force differs from it by >= min_force_difference_n,
      (ii)  tangent-plane distance to the set anchor <= tangent_distance_mm,
      (iii) angle to the anchor normal <= normal_angle_deg.
    The anchor is the set's first measurement. Grouping depends only on the
    measurement prefix, so adding measurements never reshuffles earlier sets.

    `measurements` is the log `add` appends to, in arrival order; member and
    reference indices point into it. Each group owns a slot in creation
    order, which keeps its reference, the first member of least force, and
    the `CompatibleSet` it last built; `add` drops the cache of the slot it
    touched, so `sets` rebuilds only those and returns every other set as
    the same object as before.
    """

    def __init__(self, config: CMUConfig):
        self._config = config
        self.measurements: List[ProbeMeasurement] = []
        self._members: List[List[int]] = []
        self._references: List[int] = []
        self._built: List[Optional[CompatibleSet]] = []
        # per-slot geometry and force range, one row each, grown when a slot opens
        self._anchors = np.zeros((0, 3))
        self._normals = np.zeros((0, 3))
        self._fmin = np.zeros(0)
        self._fmax = np.zeros(0)
        self._cos_limit = math.cos(math.radians(config.normal_angle_deg))

    def add(self, measurement: ProbeMeasurement):
        """Append one measurement to the log and group it."""
        idx = len(self.measurements)
        self.measurements.append(measurement)
        pos = measurement.position
        nrm = measurement.sensed_normal
        force = measurement.force

        normals = self._normals
        # (i): member forces span [fmin, fmax], so the largest |dF| to any
        # member is reached at one of the extremes.
        force_ok = np.maximum(force - self._fmin, self._fmax - force) \
            >= self._config.min_force_difference_n
        diff = pos[None, :] - self._anchors
        along = np.einsum("ij,ij->i", diff, normals)
        tangent = diff - along[:, None] * normals
        dist_ok = np.einsum("ij,ij->i", tangent, tangent) \
            <= self._config.tangent_distance_mm ** 2
        angle_ok = normals @ nrm >= self._cos_limit - 1e-12
        match = force_ok & dist_ok & angle_ok
        hit = int(np.argmax(match)) if match.any() else -1

        if hit >= 0:
            self._members[hit].append(idx)
            if force < self._fmin[hit]:  # strictly lower: the first least force stays
                self._references[hit] = idx
                self._fmin[hit] = force
            self._fmax[hit] = max(self._fmax[hit], force)
            self._built[hit] = None
            return

        self._anchors = np.vstack([self._anchors, pos])
        self._normals = np.vstack([self._normals, nrm])
        self._members.append([idx])
        self._references.append(idx)
        self._built.append(None)
        self._fmin = np.append(self._fmin, force)
        self._fmax = np.append(self._fmax, force)

    def sets(self) -> List[CompatibleSet]:
        """Finished sets with >= 2 members, in slot order; singletons are left out."""
        out: List[CompatibleSet] = []
        for slot, members in enumerate(self._members):
            if len(members) < 2:
                continue
            if self._built[slot] is None:
                reference = self._references[slot]
                self._built[slot] = CompatibleSet(
                    member_indices=tuple(members),
                    reference_index=reference,
                    location=self.measurements[reference].position[:2],
                )
            out.append(self._built[slot])
        return out


# ---------------------------------------------------------------------------
# Step 2: per-set stiffness
# ---------------------------------------------------------------------------

def estimate_stiffness(cset: CompatibleSet,
                       measurements: Sequence[ProbeMeasurement]) -> StiffnessSample:
    """Least-squares slope of force vs. indentation depth within one set.

    Depth of each member is its distance from the set's minimum-force
    (reference) measurement. A set whose members all sit at one depth, and a
    non-positive or sub-floor slope, give a sample clamped to 1e-6 N/mm and
    flagged degenerate; `degenerate` is the only mark of an unusable sample.
    """
    reference = measurements[cset.reference_index]
    positions = np.asarray([measurements[i].position for i in cset.member_indices])
    forces = np.asarray([measurements[i].force for i in cset.member_indices])
    depths = np.linalg.norm(positions - reference.position[None, :], axis=1)

    if depths.max() <= 1e-12:
        slope = -math.inf  # zero depth span: no slope to fit
    else:
        d_centered = depths - depths.mean()
        slope = float(np.dot(d_centered, forces - forces.mean())
                      / np.dot(d_centered, d_centered))
    degenerate = slope < _MIN_STIFFNESS
    return StiffnessSample(stiffness=max(slope, _MIN_STIFFNESS),
                           cset=cset,
                           degenerate=degenerate)


# ---------------------------------------------------------------------------
# Steps 3-5: correspondence, minimization, loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedOutcome:
    """Best iterate of one registration seed.

    `converged` is False only when the seed stopped at max_iterations.
    """

    transform: RigidTransform
    objective: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class RegistrationResult:
    """Winning transform plus the per-seed objective table.

    `neighbourhoods` are the winning iterate's closest-point neighbourhoods
    (see `TriMesh.closest_points`), and `neighbourhood_rows` maps each
    reference measurement index to its row in them. Neither takes part in
    equality; they only save the next call k-d tree searches.
    """

    transform: RigidTransform
    objective: float
    iterations: int
    converged: bool  # of the winning seed
    per_seed: Tuple[SeedOutcome, ...]
    neighbourhoods: Optional[Neighbourhoods] = field(default=None, compare=False)
    neighbourhood_rows: Optional[Dict[int, int]] = field(default=None, compare=False)


def _registration_arrays(samples: Sequence[StiffnessSample],
                         measurements: Sequence[ProbeMeasurement]):
    valid = [s for s in samples if not s.degenerate]
    if len(valid) < 3:
        raise InsufficientDataError(
            f"registration needs >= 3 sets with valid stiffness, got {len(valid)}")
    references = [s.cset.reference_index for s in valid]
    points = np.asarray([measurements[r].position for r in references])
    forces = np.asarray([measurements[r].force for r in references])
    return references, points, forces, np.asarray([s.stiffness for s in valid])


def _rotation_from_vector(omega: np.ndarray) -> np.ndarray:
    """Rodrigues: rotation by |omega| radians about omega's direction."""
    theta = float(np.linalg.norm(omega))
    if theta == 0.0:
        return np.eye(3)
    kx, ky, kz = omega / theta
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _point_to_plane_step(moved: np.ndarray, normals: np.ndarray,
                         targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One Gauss-Newton step of the point-to-plane residuals n_i.(target_i - p_i).

    The pose update is linearised about the centroid c of the moved points:
    p -> p + omega x (p - c) + t. The minimum-norm least-squares (omega, t)
    is applied exactly, as the rigid motion p -> R (p - c) + c + t. Returns
    that motion's rotation and translation.
    """
    centroid = moved.mean(axis=0)
    jacobian = np.hstack([np.cross(moved - centroid, normals), normals])
    residual = np.einsum("ij,ij->i", normals, targets - moved)
    step = np.linalg.lstsq(jacobian, residual, rcond=None)[0]
    rot = _rotation_from_vector(step[:3])
    return rot, centroid + step[3:] - rot @ centroid


def cmu_register(samples: Sequence[StiffnessSample],
                 mesh: TriMesh,
                 measurements: Sequence[ProbeMeasurement],
                 seeds: Sequence[RigidTransform],
                 config: CMUConfig,
                 previous: Optional[RegistrationResult] = None) -> RegistrationResult:
    """Multi-seed registration of probed reference points to the mesh.

    The reference points are those of the non-degenerate samples' sets, and
    one search starts from each of `seeds`; `per_seed` keeps their order.
    Each iteration maps the reference points through the current transform,
    finds mesh closest points, offsets them inward along the face normal by
    force/stiffness, and takes one point-to-plane Gauss-Newton step towards
    those targets (each target's plane is the closest face's). The objective
    is the sum of residual norms, correspondences recomputed at the evaluated
    transform. A seed stops at the first of: an iterate whose objective is not
    below the seed's best so far, a step that moves no reference point by
    convergence_tolerance_mm or more, or max_iterations steps (the only stop
    that leaves `converged` False). Each seed returns its best iterate, so no
    seed is returned worse than its own starting point, and the seed with the
    smallest objective wins.

    All seeds advance in lockstep: each round scores, with one batched
    closest-point query, every seed whose current iterate has no score yet; a
    seed that settled or reached the cap is scored in the next round too, but
    takes no further step. Per-seed iterates are unaffected by the batching.

    Each round offers every seed's rows the neighbourhoods of its previous
    round (see `TriMesh.closest_points`): a point that moved less than its
    certificate allows is re-scored on its last query's closest face alone,
    not searched from the k-d tree. `previous`, an earlier call's result,
    offers the first round its winner's neighbourhoods for the references
    it scored, when they are of `mesh`; the seeds stay the caller's. A row
    is certified only where the triangle inequality proves that face its
    unique closest, and the face goes through the same arithmetic and first
    minimum as a tree search, so every closest point, and so the result, is
    bit for bit what a search of every face gives.
    Raises InvalidInputError when `seeds` is empty and DegenerateGeometryError
    when the reference points are collinear.
    """
    if len(seeds) < 1:
        raise InvalidInputError("at least one seed transform is required")
    references, points, forces, stiffness = _registration_arrays(samples, measurements)
    check_not_collinear(points)
    offsets = forces / stiffness

    n_seeds = len(seeds)
    n_pts = points.shape[0]
    current: List[RigidTransform] = list(seeds)
    best_transform: List[RigidTransform] = list(seeds)
    best_obj = [math.inf] * n_seeds
    # each best iterate's neighbourhoods and its first row in them
    best_near: List[Tuple[Optional[Neighbourhoods], int]] = [(None, 0)] * n_seeds
    iterations = [0] * n_seeds
    converged = [True] * n_seeds
    stopped = [False] * n_seeds  # settled or capped: scored once more, never stepped
    unscored = list(range(n_seeds))  # seeds whose current iterate has no score yet
    # the neighbourhoods the next round is offered, and per seed its points' rows
    hood = rows = None
    if previous is not None and previous.neighbourhoods is not None \
            and previous.neighbourhoods.mesh is mesh:
        hood = previous.neighbourhoods
        rows = np.array([previous.neighbourhood_rows.get(r, -1) for r in references],
                        dtype=np.int64)
    seed_rows = [rows] * n_seeds

    while unscored:
        stacked = np.concatenate([current[i].apply(points) for i in unscored])
        near = None if hood is None else (hood, np.concatenate([seed_rows[i] for i in unscored]))
        surf, normals, _, _, hood = mesh.closest_points(stacked, near)
        next_round = []
        for row, i in enumerate(unscored):
            block = slice(row * n_pts, (row + 1) * n_pts)
            seed_rows[i] = np.arange(block.start, block.stop)
            moved = stacked[block]
            targets = surf[block] - normals[block] * offsets[:, None]
            objective = float(np.linalg.norm(targets - moved, axis=1).sum())
            if objective >= best_obj[i]:
                continue  # the objective stopped falling: the best iterate stands
            best_obj[i] = objective
            best_transform[i] = current[i]
            best_near[i] = (hood, block.start)
            if stopped[i]:
                continue
            rot, shift = _point_to_plane_step(moved, normals[block], targets)
            current[i] = RigidTransform(rot @ current[i].rotation,
                                        rot @ current[i].translation + shift)
            stepped = moved @ rot.T + shift
            displacement = float(np.linalg.norm(stepped - moved, axis=1).max())
            iterations[i] += 1
            settled = displacement < config.convergence_tolerance_mm
            converged[i] = settled or iterations[i] < config.max_iterations
            stopped[i] = settled or not converged[i]
            next_round.append(i)
        unscored = next_round

    outcomes = tuple(SeedOutcome(transform=best_transform[i], objective=best_obj[i],
                                 iterations=iterations[i], converged=converged[i])
                     for i in range(n_seeds))
    winner = min(range(n_seeds), key=lambda i: outcomes[i].objective)
    best = outcomes[winner]
    hood, first = best_near[winner]
    return RegistrationResult(transform=best.transform, objective=best.objective,
                              iterations=best.iterations, converged=best.converged,
                              per_seed=outcomes, neighbourhoods=hood,
                              neighbourhood_rows={r: first + j for j, r in enumerate(references)})
