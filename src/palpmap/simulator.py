"""Virtual organ phantom and probing rig.

The phantom is a triangle mesh living in its own (model) frame with an
analytic stiffness field over model-frame x-y: a baseline plus Gaussian bumps
and an optional vessel ridge along a polyline. Probing happens in the tool
frame; the phantom's true transform maps tool coordinates to model
coordinates and is what registration later estimates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from .care import ProbeMeasurement
from .errors import ConfigError, InvalidInputError, OutOfWorkspaceError
from .geometry import RigidTransform, TriMesh, load_mesh, make_transform
from .schema import build, integer, keys, read, read_document

# Largest prediction grid a ROI may ask for; the benchmark's largest is 6,561
# nodes, and each node costs a GP posterior row and a ground-truth ray.
MAX_GRID_NODES = 1_000_000
# Most depth steps a probe may take; the demo takes 10, and each step is a
# measurement that grouping, stiffness fits and the probe log all carry.
MAX_DEPTH_STEPS = 1_000


# ---------------------------------------------------------------------------
# Phantom description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StiffnessBump:
    """Radial Gaussian stiffness increase (model-frame x-y, mm, N/mm)."""

    center: Tuple[float, float]
    amplitude: float
    radius: float

    def __post_init__(self):
        if len(self.center) != 2 or not all(math.isfinite(c) for c in self.center):
            raise InvalidInputError("bump center must be a finite 2D point")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise InvalidInputError("bump amplitude must be >= 0")
        if not (self.radius > 0.0 and 0.0 < self.radius * self.radius < math.inf):
            raise InvalidInputError("bump radius must be > 0 with a positive finite square")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


@dataclass(frozen=True)
class ArteryRidge:
    """Gaussian stiffness profile of the distance to a polyline, cut at 3 half-widths."""

    polyline: Tuple[Tuple[float, float], ...]
    half_width: float
    amplitude: float

    def __post_init__(self):
        pts = tuple((float(p[0]), float(p[1])) for p in self.polyline)
        if len(pts) < 2:
            raise InvalidInputError("artery polyline needs at least 2 points")
        if not all(math.isfinite(c) for pt in pts for c in pt):
            raise InvalidInputError("artery polyline points must be finite")
        if not (self.half_width > 0.0 and 0.0 < self.half_width * self.half_width < math.inf):
            raise InvalidInputError("artery half_width must be > 0 with a positive finite square")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise InvalidInputError("artery amplitude must be >= 0")
        object.__setattr__(self, "polyline", pts)


@dataclass(frozen=True)
class PhantomSpec:
    """Mesh surface plus analytic ground-truth stiffness field."""

    mesh: TriMesh
    baseline_stiffness: float
    bumps: Tuple[StiffnessBump, ...] = ()
    artery: Optional[ArteryRidge] = None
    true_transform: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if not (math.isfinite(self.baseline_stiffness) and self.baseline_stiffness > 0.0):
            raise InvalidInputError("baseline_stiffness must be > 0")
        object.__setattr__(self, "bumps", tuple(self.bumps))


def _segment_distances(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Min distance from each 2D point to the polyline."""
    best = np.full(points.shape[0], np.inf)
    for a, b in zip(polyline[:-1], polyline[1:]):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            proj = np.broadcast_to(a, points.shape)
        else:
            t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
        with np.errstate(over="ignore"):  # a distance that overflows is inf, the limit
            best = np.minimum(best, np.linalg.norm(points - proj, axis=1))
    return best


def stiffness_field(spec: PhantomSpec, points) -> np.ndarray:
    """Ground-truth stiffness at model-frame x-y rows (n, 2) -> (n,); no 1-D form."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("points must have shape (n, 2)")

    out = np.full(pts.shape[0], float(spec.baseline_stiffness))
    for bump in spec.bumps:
        with np.errstate(over="ignore"):  # a distance that overflows is inf: a term of 0
            d2 = np.sum((pts - np.asarray(bump.center)) ** 2, axis=1)
        out += bump.amplitude * np.exp(-d2 / (2.0 * bump.radius ** 2))
    if spec.artery is not None:
        art = spec.artery
        dist = _segment_distances(pts, np.asarray(art.polyline, dtype=float))
        ridge = art.amplitude * np.exp(-dist ** 2 / (2.0 * art.half_width ** 2))
        out += np.where(dist <= 3.0 * art.half_width, ridge, 0.0)
    return out


# ---------------------------------------------------------------------------
# Probing rig
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    """Indentation protocol: equal depth steps down to max_depth_mm, 2 at least for a slope."""

    depth_increment_mm: float = 0.3
    max_depth_mm: float = 3.0

    def __post_init__(self):
        for name in ("depth_increment_mm", "max_depth_mm"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be > 0")
        # before `steps` rounds the ratio, which may be huge or infinite
        if not self.max_depth_mm / self.depth_increment_mm < MAX_DEPTH_STEPS + 0.5:
            raise InvalidInputError(f"max_depth_mm / depth_increment_mm gives more than "
                                    f"{MAX_DEPTH_STEPS:,} depth steps")
        if abs(self.max_depth_mm / self.depth_increment_mm - self.steps) > 1e-9 or self.steps < 2:
            raise InvalidInputError("max_depth_mm must be 2 or more whole "
                                    "depth_increment_mm steps")

    @property
    def steps(self) -> int:
        return int(round(self.max_depth_mm / self.depth_increment_mm))


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian sensing noise (zero-mean, per-axis position, scalar force)."""

    position_sigma_mm: float = 0.0
    force_sigma_n: float = 0.0

    def __post_init__(self):
        for name in ("position_sigma_mm", "force_sigma_n"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise InvalidInputError(f"{name} must be >= 0")


def tool_rays(spec: PhantomSpec, targets) -> Tuple[np.ndarray, np.ndarray]:
    """Model-frame vertical tool-frame rays through x-y targets (n, 2).

    Each ray starts 10 mm above the mesh's highest tool-frame point and runs
    along tool-frame -z. Returns (origins (n, 3), shared direction (3,)).
    """
    transform = spec.true_transform
    top = float(transform.inverse().apply(spec.mesh.vertices)[:, 2].max()) + 10.0
    origins_tool = np.column_stack([targets, np.full(len(targets), top)])
    return transform.apply(origins_tool), -transform.rotation[:, 2]


def probe(spec: PhantomSpec, target, probe_config: ProbeConfig,
          noise: NoiseSpec, rng: np.random.Generator) -> List[ProbeMeasurement]:
    """Simulate one probe event at a tool-frame x-y target.

    A vertical tool-frame ray (direction -z) through the target is mapped
    through the true transform and intersected with the mesh (a one-row
    `raycasts` call), and the contact's stiffness is a one-row
    `stiffness_field` lookup, as in the ground-truth map. The probe then
    indents along the inward surface normal, one measurement per depth step.

    The noise stream is part of the contract: each step draws three position
    values and then one force value from `rng`, in step order. Runs stay
    reproducible only while that order holds.
    """
    tgt = np.asarray(target, dtype=float)
    if tgt.shape != (2,):
        raise InvalidInputError("probe target must have shape (2,)")
    transform = spec.true_transform
    inverse = transform.inverse()

    origins, direction = tool_rays(spec, tgt[None, :])
    contacts, faces = spec.mesh.raycasts(origins, direction)
    if faces[0] < 0:
        raise OutOfWorkspaceError(
            f"probe target ({tgt[0]:g}, {tgt[1]:g}) does not reach the surface")
    contact = contacts[0]
    normal = spec.mesh.face_normals[faces[0]]
    if float(normal @ direction) > 0.0:
        raise OutOfWorkspaceError("probe ray reached a surface facing away from it")

    stiffness = float(stiffness_field(spec, contact[None, :2])[0])
    sensed_normal = transform.rotation.T @ normal

    depths = np.arange(1, probe_config.steps + 1) * probe_config.depth_increment_mm
    pressed = contact - depths[:, None] * normal
    # one-row products, stacked: the bits of a one-point `inverse.apply` per
    # step, which the flat (steps, 3) product does not keep
    positions = (pressed[:, None, :] @ inverse.rotation.T)[:, 0, :] + inverse.translation
    # `0.0 + sigma * z` is `rng.normal(0.0, sigma)`'s arithmetic, bit for bit
    z = rng.standard_normal((probe_config.steps, 4))
    positions += 0.0 + noise.position_sigma_mm * z[:, :3]
    forces = stiffness * depths + (0.0 + noise.force_sigma_n * z[:, 3])
    return [ProbeMeasurement(position=p, force=max(float(f), 0.0), sensed_normal=sensed_normal)
            for p, f in zip(positions, forces)]


# ---------------------------------------------------------------------------
# Sampling layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ROI:
    """Tool-frame rectangle under study plus the prediction-grid spacing."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    spacing: float = 1.0

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise InvalidInputError("ROI must have positive extent")
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise InvalidInputError("spacing must be finite and > 0")
        grid_shape(self)  # the node cap, checked before any grid is allocated


def _interior_lattice(roi: ROI, nx: int, ny: int) -> list:
    """nx x ny points, row-major, cutting the ROI's sides into nx + 1 and ny + 1 equal parts."""
    width = roi.xmax - roi.xmin
    height = roi.ymax - roi.ymin
    return [(roi.xmin + i * width / (nx + 1.0), roi.ymin + j * height / (ny + 1.0))
            for j in range(1, ny + 1) for i in range(1, nx + 1)]


def initial_samples(roi: ROI) -> np.ndarray:
    """The 19 startup targets: 4 corners, then a 5x3 interior lattice row-major."""
    corners = [(roi.xmin, roi.ymin), (roi.xmax, roi.ymin), (roi.xmin, roi.ymax),
               (roi.xmax, roi.ymax)]
    return np.asarray(corners + _interior_lattice(roi, 5, 3), dtype=float)


def prediction_grid(roi: ROI) -> np.ndarray:
    """Regular row-major lattice over the closed ROI at the configured spacing."""
    nx, ny = grid_shape(roi)
    xs = roi.xmin + roi.spacing * np.arange(nx)
    ys = roi.ymin + roi.spacing * np.arange(ny)
    grid = np.empty((ny * nx, 2))
    grid[:, 0] = np.tile(xs, ny)
    grid[:, 1] = np.repeat(ys, nx)
    return grid


def grid_shape(roi: ROI) -> Tuple[int, int]:
    """(nx, ny) dimensions of prediction_grid(roi); InvalidInputError past MAX_GRID_NODES."""
    # min() keeps an overflowing span (inf) from math.floor; such a grid is
    # over the cap either way
    nx, ny = (int(math.floor(min(span / roi.spacing, MAX_GRID_NODES) + 1e-9)) + 1
              for span in (roi.xmax - roi.xmin, roi.ymax - roi.ymin))
    if nx * ny > MAX_GRID_NODES:
        raise InvalidInputError(f"grid spacing {roi.spacing:g} gives more than "
                                f"{MAX_GRID_NODES:,} grid nodes over the ROI")
    return nx, ny


def uniform_lattice(roi: ROI, count: int) -> np.ndarray:
    """`count` evenly spaced interior points, row-major (baseline strategy)."""
    if not (integer(count) and count >= 1):
        raise InvalidInputError("lattice count must be an integer >= 1")
    nx = int(math.ceil(math.sqrt(count)))
    ny = int(math.ceil(count / nx))
    return np.asarray(_interior_lattice(roi, nx, ny)[:count], dtype=float)


# ---------------------------------------------------------------------------
# Mesh synthesis and ready-made phantoms
# ---------------------------------------------------------------------------

def make_surface_mesh(xmin: float, xmax: float, ymin: float, ymax: float,
                      spacing: float,
                      height: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> TriMesh:
    """Triangulated height field z = height(x, y) with upward-facing normals."""
    if not (xmax > xmin and ymax > ymin and spacing > 0.0):
        raise InvalidInputError("bad mesh bounds or spacing")
    nx = max(2, int(round((xmax - xmin) / spacing)) + 1)
    ny = max(2, int(round((ymax - ymin) / spacing)) + 1)
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    gx, gy = np.meshgrid(xs, ys)
    gz = np.asarray(height(gx, gy), dtype=float)
    if gz.shape != gx.shape:
        raise InvalidInputError("height function must return a grid-shaped array")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    # cells row-major, each split into (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    faces = np.column_stack([v00, v00 + 1, v00 + nx + 1, v00, v00 + nx + 1, v00 + nx])
    return TriMesh(vertices, faces.reshape(-1, 3))


_DEMO_TILT = (0.05, -0.035)  # base slope of the demo terrain along x and y
_DEMO_SPACING = 4.0  # mm between the demo terrain's mesh vertices


def _demo_surface(xmin, xmax, ymin, ymax, knolls) -> TriMesh:
    """Smooth terrain: a tilted base plus Gaussian knolls.

    The knolls are scattered with uneven heights and widths so the surface
    has no rotational or translational near-symmetry; rigid registration
    against it then has one sharp optimum.
    """
    gx, gy = _DEMO_TILT

    def height(x, y):
        z = gx * x + gy * y
        for cx, cy, knoll_height, radius in knolls:
            z = z + knoll_height * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * radius ** 2))
        return z

    return make_surface_mesh(xmin, xmax, ymin, ymax, _DEMO_SPACING, height)


# (center_x, center_y, height, radius); heights in mm, mixed signs
_MULTIMODAL_KNOLLS = (
    (10.0, 6.0, 9.0, 10.0),
    (34.0, 16.0, -6.0, 9.0),
    (16.0, 32.0, 7.5, 8.0),
    (40.0, 42.0, -5.0, 11.0),
    (-4.0, 40.0, 6.0, 12.0),
    (48.0, -6.0, 8.0, 14.0),
    (62.0, 30.0, 6.5, 16.0),
)

_ARTERY_KNOLLS = (
    (6.0, 10.0, 7.0, 10.0),
    (40.0, 12.0, -5.0, 9.0),
    (14.0, 38.0, 6.0, 9.0),
    (46.0, 46.0, 5.0, 11.0),
    (-14.0, 22.0, 5.0, 12.0),
    (64.0, 30.0, 6.0, 14.0),
    (30.0, -10.0, 5.0, 12.0),
)


_MULTIMODAL_TRUE_TRANSFORM = make_transform(5.0, 10.0, -15.0, 11.46, -11.46, 5.73)


def multimodal_phantom() -> PhantomSpec:
    """Curved surface with three stiff inclusions."""
    mesh = _demo_surface(-40.0, 90.0, -35.0, 95.0, _MULTIMODAL_KNOLLS)
    bumps = (
        StiffnessBump(center=(12.0, 25.0), amplitude=2.0, radius=4.0),
        StiffnessBump(center=(28.0, 45.0), amplitude=1.5, radius=5.0),
        StiffnessBump(center=(33.0, 20.0), amplitude=2.5, radius=3.5),
    )
    return PhantomSpec(mesh=mesh, baseline_stiffness=1.0, bumps=bumps,
                       artery=None, true_transform=_MULTIMODAL_TRUE_TRANSFORM)


def artery_phantom() -> PhantomSpec:
    """Gently curved surface with a buried vessel ridge; the true transform is the identity."""
    mesh = _demo_surface(-35.5, 95.5, -35.5, 95.5, _ARTERY_KNOLLS)
    artery = ArteryRidge(
        polyline=((10.0, 14.0), (22.0, 22.0), (34.0, 26.0), (44.0, 36.0)),
        half_width=2.5,
        amplitude=2.5,
    )
    return PhantomSpec(mesh=mesh, baseline_stiffness=1.0, bumps=(), artery=artery)


# ---------------------------------------------------------------------------
# Phantom serialization
# ---------------------------------------------------------------------------

def transform_to_json(transform: RigidTransform) -> dict:
    rx, ry, rz = transform.euler_deg()
    return {
        "translation_mm": [float(v) for v in transform.translation],
        "rotation_deg": [rx, ry, rz],
    }


def _transform_from_json(translation_mm: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                         rotation_deg: Tuple[float, float, float] = (0.0, 0.0, 0.0)
                         ) -> RigidTransform:
    return make_transform(*translation_mm, *rotation_deg)


def save_phantom(spec: PhantomSpec, path):
    """Write the phantom JSON and its mesh, `mesh.obj`, next to it."""
    path = Path(path)
    spec.mesh.save_obj(path.parent / "mesh.obj")

    def fields(obj) -> dict:
        return {key: getattr(obj, key) for key in keys(type(obj))}

    doc = {
        **fields(spec), "mesh": "mesh.obj",
        "bumps": [fields(b) for b in spec.bumps],
        "artery": None if spec.artery is None else fields(spec.artery),
        "true_transform": transform_to_json(spec.true_transform),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_phantom(path) -> PhantomSpec:
    """Read a phantom JSON; the mesh path resolves relative to the document."""
    path = Path(path)
    data = read_document(path, "phantom")
    mesh_path = path.parent / read(data, "phantom", "mesh", str)
    try:
        mesh = load_mesh(mesh_path)
    except InvalidInputError as exc:
        raise ConfigError(f"bad mesh {mesh_path}: {exc}") from exc
    transform = build(_transform_from_json, data.get("true_transform", {}),
                      "phantom.true_transform")
    return build(PhantomSpec, data, "phantom", mesh=mesh, true_transform=transform)
