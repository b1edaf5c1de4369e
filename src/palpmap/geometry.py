"""Rigid transforms, triangle meshes, and point-set alignment.

Conventions:
    * Points are float64 arrays, mm units. Single points have shape (3,),
      batches (n, 3).
    * Rotations compose extrinsically about fixed axes X then Y then Z, so the
      matrix built from angles (rx, ry, rz) is Rz @ Ry @ Rx. Angles are degrees.
    * Mesh face normals are recomputed from vertex winding (counterclockwise
      seen from the outside); normals stored in files are ignored.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, InvalidInputError
from .schema import read, read_document, read_text

# Farthest a closest-point query may lie from the mesh: the squared distances
# it compares, with a factor-2 margin, must stay finite floats.
_MAX_QUERY_DISTANCE = math.sqrt(np.finfo(float).max) / 2.0

_ORTHONORMAL_TOL = 1e-9

# (query, face) pairs one candidate chunk may hold: ~100 MB per (pairs, 3) array
_MAX_PAIRS = 4_000_000


def _as_points(value, name: str) -> np.ndarray:
    pts = np.asarray(value, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return pts


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tra = np.asarray(self.translation, dtype=float)
        if rot.shape != (3, 3):
            raise InvalidInputError(f"rotation must be 3x3, got {rot.shape}")
        if tra.shape != (3,):
            raise InvalidInputError(f"translation must have shape (3,), got {tra.shape}")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tra))):
            raise InvalidInputError("transform contains non-finite values")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > _ORTHONORMAL_TOL:
            raise InvalidInputError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHONORMAL_TOL:
            raise InvalidInputError("rotation determinant must be +1 within 1e-9")
        rot = rot.copy()
        tra = tra.copy()
        rot.flags.writeable = False
        tra.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform a point (3,) or a batch (n, 3)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = _as_points(pts, "points")
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def euler_deg(self) -> Tuple[float, float, float]:
        """Angles (rx, ry, rz) in degrees such that R = Rz @ Ry @ Rx."""
        r = self.rotation
        sy = -r[2, 0]
        sy = min(1.0, max(-1.0, sy))
        ry = math.asin(sy)
        if abs(r[2, 0]) < 1.0 - 1e-12:
            rx = math.atan2(r[2, 1], r[2, 2])
            rz = math.atan2(r[1, 0], r[0, 0])
        elif r[2, 0] < 0.0:  # ry = +90 deg, only rx - rz observable
            rx = math.atan2(r[0, 1], r[0, 2])
            rz = 0.0
        else:  # ry = -90 deg
            rx = math.atan2(-r[0, 1], -r[0, 2])
            rz = 0.0
        return math.degrees(rx), math.degrees(ry), math.degrees(rz)


def make_transform(tx: float, ty: float, tz: float,
                   rx_deg: float, ry_deg: float, rz_deg: float) -> RigidTransform:
    """Build a rigid transform from translations (mm) and fixed-axis X,Y,Z angles (deg)."""
    if not all(math.isfinite(angle) for angle in (rx_deg, ry_deg, rz_deg)):
        raise InvalidInputError("transform angles must be finite")
    ax, ay, az = (math.radians(a) for a in (rx_deg, ry_deg, rz_deg))
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return RigidTransform(rot_z @ rot_y @ rot_x, np.array([tx, ty, tz], dtype=float))


# ---------------------------------------------------------------------------
# Point-set alignment
# ---------------------------------------------------------------------------

def check_not_collinear(points: np.ndarray):
    """Raise DegenerateGeometryError when the (n, 3) points lie on one line.

    A rotation about that line would not move them, so no rigid fit to them
    is unique.
    """
    sing = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    if sing[1] <= 1e-9 * max(sing[0], 1e-6):
        raise DegenerateGeometryError("source points are collinear")


def rigid_fit_svd(source, target) -> RigidTransform:
    """Least-squares rigid transform mapping `source` points onto `target`.

    Cross-covariance SVD with the reflection case corrected by negating the
    singular vector of the smallest singular value, so the result is always a
    proper rotation (det +1).
    """
    src = _as_points(source, "source")
    tgt = _as_points(target, "target")
    if src.shape[0] != tgt.shape[0]:
        raise InvalidInputError("source and target must have equal length")
    if src.shape[0] < 3:
        raise InvalidInputError("at least 3 point pairs are required")

    check_not_collinear(src)
    c_src = src.mean(axis=0)
    c_tgt = tgt.mean(axis=0)
    h = (src - c_src).T @ (tgt - c_tgt)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, c_tgt - rot @ c_src)


def rms_error(estimate: RigidTransform, truth: RigidTransform, points) -> float:
    """RMS distance between the two images of `points` under both transforms."""
    pts = _as_points(points, "points")
    if pts.shape[0] == 0:
        raise InvalidInputError("points must be non-empty")
    diff = estimate.apply(pts) - truth.apply(pts)
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------

def _closest_on_triangles(a, b, c, p) -> np.ndarray:
    """Closest points on triangles (a, b, c) to query points p, all (n, 3).

    Vectorized region walk: classify p against the triangle's vertex, edge,
    and face Voronoi regions, first matching region wins.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)

    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)

    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        den_safe = np.where(den == 0.0, 1.0, den)
        return num / den_safe

    v_ab = safe_div(d1, d1 - d3)
    w_ac = safe_div(d2, d2 - d6)
    w_bc = safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
    denom = safe_div(np.ones_like(va), va + vb + vc)
    v_in = vb * denom
    w_in = vc * denom

    conds = [
        (d1 <= 0.0) & (d2 <= 0.0),                 # vertex a
        (d3 >= 0.0) & (d4 <= d3),                  # vertex b
        (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),   # edge ab
        (d6 >= 0.0) & (d5 <= d6),                  # vertex c
        (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),   # edge ac
        (va <= 0.0) & (d4 >= d3) & (d5 >= d6),     # edge bc
    ]
    choices = [
        a,
        b,
        a + v_ab[:, None] * ab,
        c,
        a + w_ac[:, None] * ac,
        b + w_bc[:, None] * (c - b),
    ]
    out = a + v_in[:, None] * ab + w_in[:, None] * ac  # interior
    for cond, choice in zip(reversed(conds), reversed(choices)):
        out = np.where(cond[:, None], choice, out)
    return out


def _slack(length):
    """`length` grown past the rounding of the distances it bounds; the
    relative part covers far queries, whose rounding exceeds any absolute one."""
    return length * (1.0 + 1e-9) + 1e-9


def _ball_lists(tree: cKDTree, points: np.ndarray, radii: np.ndarray):
    """Per point, the tree's items within its radius, ascending: (lens, items)."""
    lists = tree.query_ball_point(points, radii, return_sorted=True)
    lens = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    return lens, np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                             count=int(lens.sum()))


def _first_minimum(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per run of `lens` consecutive values, the index of its first least one.

    A run that is empty or holds nothing below inf gets -1. Callers lay each
    point's candidates out item-ascending, so ties go to the lowest item, and
    pass at most _MAX_PAIRS values at a time.
    """
    first = np.full(lens.shape[0], -1, dtype=np.int64)
    starts = np.cumsum(lens) - lens
    some = np.flatnonzero(lens)
    least = np.minimum.reduceat(values, starts[some])
    order = np.where(values == np.repeat(least, lens[some]),
                     np.arange(values.shape[0]), values.shape[0])
    found = np.isfinite(least)
    first[some[found]] = np.minimum.reduceat(order, starts[some])[found]
    return first


@dataclass(frozen=True, eq=False)
class Neighbourhoods:
    """What scoring each closest-point row proved about the faces near it.

    Row i was scored at `anchors[i]`: its closest face, `faces[i]`, lies
    `distances[i]` away and every other face of `mesh` at least `bounds[i]`,
    the least of the second-least distance in its candidate ball and the
    nearest-centroid distance that every face outside the ball lies beyond.
    """

    mesh: "TriMesh"
    anchors: np.ndarray
    distances: np.ndarray
    faces: np.ndarray
    bounds: np.ndarray


class TriMesh:
    """Immutable triangle mesh with normals derived from winding order."""

    def __init__(self, vertices, faces):
        verts = np.asarray(vertices, dtype=float)
        tris = np.asarray(faces)
        if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 3:
            raise InvalidInputError("vertices must have shape (n>=3, 3)")
        if not np.all(np.isfinite(verts)):
            raise InvalidInputError("vertices contain non-finite values")
        if tris.ndim != 2 or tris.shape[1] != 3 or tris.shape[0] < 1:
            raise InvalidInputError("faces must have shape (m>=1, 3)")
        if not np.issubdtype(tris.dtype, np.integer):
            try:
                tris = np.asarray(tris, dtype=float)
            except OverflowError as exc:  # an integer past the float range
                raise InvalidInputError("face index out of range") from exc
            if np.any(tris != np.trunc(tris)):
                raise InvalidInputError("face indices must be integers")
        # range first: the int64 cast below is only exact for in-range indices
        if tris.min() < 0 or tris.max() >= verts.shape[0]:
            raise InvalidInputError("face index out of range")
        tris = tris.astype(np.int64)
        if np.any((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                  | (tris[:, 0] == tris[:, 2])):
            raise InvalidInputError("faces must reference three distinct vertices")

        corners = verts[tris]
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        area2 = np.linalg.norm(cross, axis=1)
        if np.any(area2 <= 0.0):
            raise InvalidInputError("mesh contains zero-area faces")
        normals = cross / area2[:, None]

        for arr in (verts, tris, normals):
            arr.flags.writeable = False
        self._vertices = verts
        self._faces = tris
        self._face_normals = normals
        self._accel = None
        self._rays = None

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def faces(self) -> np.ndarray:
        return self._faces

    @property
    def face_normals(self) -> np.ndarray:
        return self._face_normals

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._vertices.min(axis=0), self._vertices.max(axis=0)

    # -- closest point -------------------------------------------------

    def _ensure_accel(self):
        if self._accel is None:
            corners = self._vertices[self._faces]
            centroids = corners.mean(axis=1)
            radii = np.linalg.norm(corners - centroids[:, None, :], axis=2).max(axis=1)
            self._accel = (cKDTree(centroids), centroids, float(radii.max()))
        return self._accel

    def closest_points(self, queries, near=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                                         np.ndarray, Neighbourhoods]:
        """Batch closest-point query.

        Returns (points (n,3), normals (n,3), face_indices (n,), distances (n,),
        neighbourhoods), the last with one row per query (see
        `Neighbourhoods`). Ties between faces resolve to the lowest face index.

        `near` = (neighbourhoods, rows), from an earlier call on this mesh,
        offers query i row rows[i] of them (-1 for none). Say the query lies
        delta from that row's anchor, whose closest face lies d away and every
        other face at least B. By the triangle inequality, where d + 2 delta,
        with rounding slack, is below B, the anchor's face is the query's
        unique closest one: the row is certified, scores that face alone and
        keeps its anchor's neighbourhood. Every other row scores the faces of
        its k-d tree ball. Both go through one per-pair arithmetic and one
        first minimum, so the results equal scoring every face bit for bit.
        """
        q = _as_points(queries, "queries")
        centroid_tree, _, max_radius = self._ensure_accel()

        n = q.shape[0]
        hood, rows = near if near is not None else (self._no_neighbourhoods(), np.full(n, -1))
        rows = np.asarray(rows)
        if hood.mesh is not self or rows.shape != (n,):
            raise InvalidInputError("near must hold this mesh's neighbourhoods and one "
                                    "row per query")
        if not (np.issubdtype(rows.dtype, np.integer)
                and np.all((rows >= -1) & (rows < hood.anchors.shape[0]))):
            raise InvalidInputError("near rows must be integers in [-1, rows of the "
                                    "neighbourhoods)")
        certified = np.zeros(n, dtype=bool)
        offered = np.flatnonzero(rows >= 0)
        k = rows[offered]
        # a far query, or an anchor of a mesh wider than the float range,
        # overflows its distance to inf, which certifies nothing; a tied
        # closest face makes B = d, which the strict test never certifies
        with np.errstate(over="ignore"):
            delta = np.linalg.norm(q[offered] - hood.anchors[k], axis=1)
        certified[offered] = _slack(hood.distances[k] + 2.0 * delta) < hood.bounds[k]

        # A centroid lies on its own face, so the nearest one bounds the
        # closest distance from above. Any face holding a point closer than
        # `upper` has its centroid within upper + r_f of the query, so this
        # ball is an exact candidate filter; every face within `upper` of the
        # query is in it. Only rows left uncertified search the tree.
        upper = np.full(n, np.nan)
        searched = np.flatnonzero(~certified)
        upper[searched] = centroid_tree.query(q[searched])[0]
        ball = _slack(upper + max_radius)
        if not np.all(ball[searched] <= _MAX_QUERY_DISTANCE):
            raise InvalidInputError("queries lie too far from the mesh: their squared "
                                    "distances overflow")

        def squared_distance(qidx, fidx):
            corners = self._vertices[self._faces[fidx]]
            pts = _closest_on_triangles(corners[:, 0], corners[:, 1], corners[:, 2], q[qidx])
            diff = pts - q[qidx]
            return np.einsum("ij,ij->i", diff, diff), pts

        best = np.full(n, np.inf)
        second = np.full(n, np.inf)
        faces = np.full(n, -1, dtype=np.int64)
        points = np.full((n, 3), np.nan)
        chunk = max(1, _MAX_PAIRS // self._faces.shape[0])
        for lo in range(0, n, chunk):
            span = np.arange(lo, min(lo + chunk, n))
            warm, cold = span[certified[span]], span[~certified[span]]
            cold_lens, cold_faces = _ball_lists(centroid_tree, q[cold], ball[cold])
            # a certified row's one candidate is its anchor's closest face
            order = np.concatenate([warm, cold])
            lens = np.concatenate([np.ones(warm.size, dtype=np.int64), cold_lens])
            fidx = np.concatenate([hood.faces[rows[warm]], cold_faces])
            values, pair_points = squared_distance(np.repeat(order, lens), fidx)
            first = _first_minimum(values, lens)
            won = first >= 0
            best[order[won]] = values[first[won]]
            faces[order[won]] = fidx[first[won]]
            points[order[won]] = pair_points[first[won]]
            values[first[won]] = np.inf  # masking each run's least leaves its second least
            runner_up = _first_minimum(values, lens)
            found = runner_up >= 0
            second[order[found]] = values[runner_up[found]]

        # a tree row is anchored at its query; a certified row keeps the one offered
        anchors, distances, bounds = q.copy(), np.sqrt(best), np.minimum(np.sqrt(second), upper)
        k = rows[certified]
        anchors[certified], distances[certified], bounds[certified] = (
            hood.anchors[k], hood.distances[k], hood.bounds[k])
        return (points, self._face_normals[faces], faces, np.sqrt(best),
                Neighbourhoods(self, anchors, distances, faces.copy(), bounds))

    def _no_neighbourhoods(self) -> Neighbourhoods:
        return Neighbourhoods(self, np.zeros((0, 3)), np.zeros(0), np.zeros(0, int), np.zeros(0))

    # -- ray casting ----------------------------------------------------

    def raycasts(self, origins, direction) -> Tuple[np.ndarray, np.ndarray]:
        """First intersections of the rays origins[i] + t*direction (t > 0).

        Möller-Trumbore against the faces under each ray: those whose
        centroids, projected onto the plane normal to the direction, lie
        within the largest face radius of the projected origin. A k-d tree of
        the projected centroids, kept for the last direction, finds them.
        Origins go in chunks of 4,000,000 // faces, so that a chunk holds at
        most 4M (ray, face) pairs. Returns (points (n, 3), face_indices (n,)):
        NaN rows and -1 for misses. Ties on t resolve to the lowest face index.
        """
        o = np.asarray(origins, dtype=float)
        d = np.asarray(direction, dtype=float)
        if o.ndim != 2 or o.shape[1] != 3 or d.shape != (3,):
            raise InvalidInputError("origins must have shape (n, 3), direction (3,)")
        # NaN fails too; the k-d tree's squared distances stay finite
        if not np.all(np.abs(o) <= _MAX_QUERY_DISTANCE):
            raise InvalidInputError(f"origins must be finite and at most "
                                    f"{_MAX_QUERY_DISTANCE:.3g} in magnitude")
        norm = np.linalg.norm(d)
        if not np.isfinite(norm) or norm == 0.0:
            raise InvalidInputError("direction must be non-zero")
        d = d / norm

        _, centroids, max_radius = self._ensure_accel()
        if self._rays is None or self._rays[0] != tuple(d):
            v0, v1, v2 = self._vertices[self._faces].transpose(1, 0, 2)
            e1, e2 = v1 - v0, v2 - v0
            h = np.cross(d[None, :], e2)
            basis = np.linalg.svd(d[None, :])[2][1:]  # orthonormal, normal to d
            self._rays = (tuple(d), basis, cKDTree(centroids @ basis.T),
                          v0, e1, e2, h, np.einsum("ij,ij->i", e1, h))
        _, basis, tree, v0, e1, e2, h, det = self._rays
        eps = 1e-9

        def hits(qidx, f):  # per (origin, face) pair: t and point of the hit
            ok = np.abs(det[f]) > 1e-12
            det_f = np.where(ok, det[f], 1.0)
            s = o[qidx] - v0[f]
            u = np.einsum("ij,ij->i", s, h[f]) / det_f
            qv = np.cross(s, e1[f])
            v = np.einsum("j,ij->i", d, qv) / det_f
            t = np.einsum("ij,ij->i", e2[f], qv) / det_f
            hit = ok & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > eps)
            return np.where(hit, t, np.inf), o[qidx] + np.where(hit, t, 0.0)[:, None] * d

        # the eps tests admit each triangle scaled by 1 + 3 eps about its
        # centroid; the slack covers that and the projections' rounding
        radii = np.full(o.shape[0], max_radius * (1.0 + 1e-6) + 1e-9)
        projected = o @ basis.T
        points = np.full((o.shape[0], 3), np.nan)
        faces = np.full(o.shape[0], -1, dtype=np.int64)
        chunk = max(1, _MAX_PAIRS // self._faces.shape[0])
        for lo in range(0, o.shape[0], chunk):
            lens, fidx = _ball_lists(tree, projected[lo:lo + chunk], radii[lo:lo + chunk])
            t, pair_points = hits(lo + np.repeat(np.arange(lens.shape[0]), lens), fidx)
            first = _first_minimum(t, lens)
            won = np.flatnonzero(first >= 0)
            faces[lo + won] = fidx[first[won]]
            points[lo + won] = pair_points[first[won]]
        return points, faces

    # -- serialization ----------------------------------------------------

    def save_obj(self, path):
        lines = []
        for v in self._vertices:
            lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
        for f in self._faces:
            lines.append(f"f {int(f[0]) + 1} {int(f[1]) + 1} {int(f[2]) + 1}")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def load_obj(path) -> "TriMesh":
        """Mesh from the OBJ subset of docs/config_schema.md "Mesh files".

        Each record kind is converted in one NumPy call, which calls float()
        or int() on every token, so the bits and the spellings accepted are
        those of a per-token reader; the lines are walked again only to word
        the error when that conversion refuses.
        """
        text = read_text(Path(path), "mesh")
        rows = list(map(str.split, text.splitlines()))
        verts = [row[1:4] for row in rows if row and row[0] == "v"]
        faces = [row[1:] for row in rows if row and row[0] == "f"]
        if "/" in text:  # i/j/k and i//k refs are read by their vertex index
            faces = [[ref.split("/")[0] for ref in refs] for refs in faces]
        if not verts or not faces:
            _raise_obj_line_error(rows)
            raise InvalidInputError("OBJ file has no triangles")
        try:
            vertices = np.array(verts, dtype=float)
            indices = np.array(faces, dtype=np.int64)
        except OverflowError:
            _raise_obj_line_error(rows)
            # a well-formed index past int64, which TriMesh rejects as out of range
            indices = np.array(faces, dtype=float)
        except ValueError:
            _raise_obj_line_error(rows)
            raise
        if vertices.shape[1] != 3 or indices.shape[1] != 3 or indices.min() < 1:
            _raise_obj_line_error(rows)
        return TriMesh(vertices, indices - 1)

    def to_json_dict(self) -> dict:
        return {"vertices": self._vertices.tolist(), "faces": self._faces.tolist()}

    @staticmethod
    def from_json_dict(data: dict) -> "TriMesh":
        """Mesh from {"vertices": [[x, y, z], ...], "faces": [[i, j, k], ...]}.

        Each field is read through the document reader, so a ragged or
        non-numeric entry raises ConfigError naming it.
        """
        if not isinstance(data, dict):
            raise InvalidInputError("mesh JSON must be an object")
        vertices = read(data, "mesh", "vertices", Tuple[Tuple[float, float, float], ...])
        faces = read(data, "mesh", "faces", Tuple[Tuple[int, int, int], ...])
        return TriMesh(np.array(vertices, dtype=float), np.array(faces))

    def save_json(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @staticmethod
    def load_json(path) -> "TriMesh":
        return TriMesh.from_json_dict(read_document(Path(path), "mesh"))


def _raise_obj_line_error(rows):
    """Raise InvalidInputError naming the first malformed `v` or `f` record
    among the split OBJ lines `rows`, if there is one."""
    for lineno, parts in enumerate(rows, start=1):
        if parts and parts[0] == "v":
            if len(parts) < 4:
                raise InvalidInputError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                list(map(float, parts[1:4]))
            except ValueError as exc:
                raise InvalidInputError(f"line {lineno}: bad vertex coordinate") from exc
        elif parts and parts[0] == "f":
            if len(parts) != 4:
                raise InvalidInputError(
                    f"line {lineno}: only triangular faces are supported")
            for ref in parts[1:]:
                try:
                    idx = int(ref.split("/")[0])
                except ValueError as exc:
                    raise InvalidInputError(f"line {lineno}: bad face index") from exc
                if idx < 1:
                    raise InvalidInputError(f"line {lineno}: face indices are 1-based")


def load_mesh(path) -> TriMesh:
    """Load a mesh from .obj or .json by file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        return TriMesh.load_obj(path)
    if suffix == ".json":
        return TriMesh.load_json(path)
    raise InvalidInputError(f"unsupported mesh format: {suffix!r}")
