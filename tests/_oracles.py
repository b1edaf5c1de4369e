"""Independent reference implementations used to cross-check the package.

Each oracle deliberately takes a different computational route from the code
under test (candidate enumeration instead of region classification, dense
solves instead of Cholesky, scipy instead of hand-rolled math, every face
instead of an index, a line at a time instead of in bulk, a pair at a time
instead of by running force bounds). `grouped` is no oracle but the one way
the tests build sets through the package.
"""

import math
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation
from scipy.stats import norm

from palpmap.care import SetCollector
from palpmap.errors import InvalidInputError
from palpmap.geometry import TriMesh
from palpmap.schema import read_text


def closest_point_on_triangle(a, b, c, q):
    """Min-distance point via candidate enumeration: interior critical point,
    three clamped edge projections, three vertices."""
    a, b, c, q = (np.asarray(v, dtype=float) for v in (a, b, c, q))
    candidates = [a, b, c]

    for p0, p1 in ((a, b), (b, c), (a, c)):
        e = p1 - p0
        denom = float(e @ e)
        if denom > 0.0:
            t = float((q - p0) @ e) / denom
            t = min(1.0, max(0.0, t))
            candidates.append(p0 + t * e)

    e1 = b - a
    e2 = c - a
    g = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]], dtype=float)
    rhs = np.array([(q - a) @ e1, (q - a) @ e2], dtype=float)
    if abs(np.linalg.det(g)) > 1e-14:
        s, t = np.linalg.solve(g, rhs)
        if s >= 0.0 and t >= 0.0 and s + t <= 1.0:
            candidates.append(a + s * e1 + t * e2)

    dists = [float(np.linalg.norm(q - p)) for p in candidates]
    return candidates[int(np.argmin(dists))]


def load_obj_lines(path) -> TriMesh:
    """OBJ mesh read one line at a time, one `float()` or `int()` call per
    token, each malformed record reported as it is met."""
    verts = []
    faces = []
    text = read_text(Path(path), "mesh")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise InvalidInputError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise InvalidInputError(f"line {lineno}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise InvalidInputError(
                    f"line {lineno}: only triangular faces are supported")
            face = []
            for ref in refs:
                head = ref.split("/")[0]
                try:
                    idx = int(head)
                except ValueError as exc:
                    raise InvalidInputError(f"line {lineno}: bad face index") from exc
                if idx < 1:
                    raise InvalidInputError(f"line {lineno}: face indices are 1-based")
                face.append(idx - 1)
            faces.append(face)
    if not verts or not faces:
        raise InvalidInputError("OBJ file has no triangles")
    return TriMesh(np.array(verts), np.array(faces))


def closest_point_brute(vertices, faces, q):
    """Scan every face; ties resolved to the lowest face index (strict <)."""
    best_d = np.inf
    best_p = None
    best_f = -1
    for f, (i, j, k) in enumerate(faces):
        p = closest_point_on_triangle(vertices[i], vertices[j], vertices[k], q)
        d = float(np.linalg.norm(q - p))
        if d < best_d:
            best_d, best_p, best_f = d, p, f
    return best_p, best_f, best_d


def closest_points_every_face(mesh, queries):
    """Per query, every face scored with the per-pair arithmetic of
    `TriMesh.closest_points` (the region walk and the squared distance); the
    first minimum wins, so the lowest face index wins ties.

    This checks the candidate filter only: `closest_points` scores just the
    faces in its ball and must return the same (points, normals,
    face_indices, distances) bit for bit.
    """
    from palpmap.geometry import _closest_on_triangles

    q = np.asarray(queries, dtype=float)
    n_faces = mesh.faces.shape[0]
    corners = mesh.vertices[mesh.faces]
    best = np.empty(q.shape[0])
    faces = np.empty(q.shape[0], dtype=np.int64)
    points = np.empty((q.shape[0], 3))
    chunk = max(1, 200_000 // n_faces)
    for lo in range(0, q.shape[0], chunk):
        qc = q[lo:lo + chunk]
        qidx = np.repeat(np.arange(qc.shape[0]), n_faces)
        c = corners[np.tile(np.arange(n_faces), qc.shape[0])]
        pts = _closest_on_triangles(c[:, 0], c[:, 1], c[:, 2], qc[qidx])
        diff = pts - qc[qidx]
        d2 = np.einsum("ij,ij->i", diff, diff).reshape(qc.shape[0], n_faces)
        idx = np.argmin(d2, axis=1)
        rows = np.arange(qc.shape[0])
        best[lo:lo + chunk] = d2[rows, idx]
        faces[lo:lo + chunk] = idx
        points[lo:lo + chunk] = pts.reshape(qc.shape[0], n_faces, 3)[rows, idx]
    return points, mesh.face_normals[faces], faces, np.sqrt(best)


def raycasts_brute(mesh, origins, direction):
    """Möller-Trumbore against every face of `mesh`, in chunks of origins.

    The caster `TriMesh.raycasts` replaced with an index: it must return the
    same (points, face_indices) bit for bit.
    """
    o = np.asarray(origins, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    h = np.cross(d[None, :], e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    det = np.where(ok, det, 1.0)

    points = np.full((o.shape[0], 3), np.nan)
    faces = np.full(o.shape[0], -1, dtype=np.int64)
    eps = 1e-9
    chunk = max(1, 4_000_000 // mesh.faces.shape[0])  # ~100 MB per (c, f, 3) temporary
    for lo in range(0, o.shape[0], chunk):
        oc = o[lo:lo + chunk]
        s = oc[:, None, :] - v0[None, :, :]
        u = np.einsum("cfj,fj->cf", s, h) / det
        qv = np.cross(s, e1[None, :, :])
        v = np.einsum("j,cfj->cf", d, qv) / det
        t = np.einsum("fj,cfj->cf", e2, qv) / det
        hit = ok & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > eps)
        t = np.where(hit, t, np.inf)
        idx = np.argmin(t, axis=1)
        t_best = t[np.arange(oc.shape[0]), idx]
        good = np.isfinite(t_best)
        points[lo:lo + chunk][good] = oc[good] + t_best[good, None] * d
        faces[lo:lo + chunk][good] = idx[good]
    return points, faces


def rotation_from_euler(rx_deg, ry_deg, rz_deg):
    """Extrinsic X, then Y, then Z rotation via scipy."""
    return Rotation.from_euler("xyz", [rx_deg, ry_deg, rz_deg],
                               degrees=True).as_matrix()


def euler_from_rotation(matrix):
    """Extrinsic X-Y-Z angles in degrees via scipy."""
    return Rotation.from_matrix(matrix).as_euler("xyz", degrees=True)


def slope_least_squares(depths, forces):
    """Line-fit slope with intercept, via the closed-form normal equations."""
    depths = np.asarray(depths, dtype=float)
    forces = np.asarray(forces, dtype=float)
    d_mean = depths.mean()
    f_mean = forces.mean()
    return float(((depths - d_mean) * (forces - f_mean)).sum()
                 / ((depths - d_mean) ** 2).sum())


def grouped(measurements, config):
    """The compatible sets of `measurements` added in order to a new `SetCollector`."""
    collector = SetCollector(config)
    for m in measurements:
        collector.add(m)
    return collector.sets()


def greedy_sets(measurements, config):
    """(member indices, reference index) of each group of >= 2 measurements:
    each arrival is tested against the open groups in creation order, its
    force against every member, its tangent-plane distance and normal angle
    against the group's first member, and joins the first that passes."""
    groups = []
    for idx, m in enumerate(measurements):
        for group in groups:
            anchor = measurements[group[0]]
            diff = m.position - anchor.position
            tangent = diff - float(diff @ anchor.sensed_normal) * anchor.sensed_normal
            cos = float(m.sensed_normal @ anchor.sensed_normal)
            if (any(abs(m.force - measurements[i].force) >= config.min_force_difference_n
                    for i in group)
                    and np.linalg.norm(tangent) <= config.tangent_distance_mm
                    and math.degrees(math.acos(min(cos, 1.0))) <= config.normal_angle_deg):
                group.append(idx)
                break
        else:
            groups.append([idx])
    return [(tuple(group), min(group, key=lambda i: measurements[i].force))
            for group in groups if len(group) >= 2]


def expected_improvement_reference(mu, sigma, best):
    """EI for maximization via scipy.stats.norm."""
    if sigma <= 0.0:
        return 0.0
    z = (mu - best) / sigma
    return float((mu - best) * norm.cdf(z) + sigma * norm.pdf(z))


def gp_posterior_reference(train_x, train_y, query_x, sigma_f, length_scale,
                           jitter, mean_offset):
    """GP posterior by dense `np.linalg.solve` (no Cholesky)."""
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=float)
    query_x = np.asarray(query_x, dtype=float)

    def k(p, q):
        d2 = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
        return sigma_f * np.exp(-d2 / (2.0 * length_scale ** 2))

    kernel = k(train_x, train_x) + jitter * np.eye(len(train_x))
    cross = k(query_x, train_x)
    alpha = np.linalg.solve(kernel, train_y - mean_offset)
    mean = mean_offset + cross @ alpha
    var = sigma_f - np.einsum("ij,ij->i", cross,
                              np.linalg.solve(kernel, cross.T).T)
    return mean, var
