import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from palpmap import geometry
from palpmap.cli import load_config, main
from palpmap.errors import ConfigError, DegenerateGeometryError, InvalidInputError
from palpmap.geometry import (RigidTransform, TriMesh, load_mesh,
                              make_transform, rigid_fit_svd, rms_error)
from palpmap.make_demo import write_demo
from palpmap.simulator import (ROI, artery_phantom, initial_samples, load_phantom,
                               multimodal_phantom, prediction_grid, tool_rays,
                               uniform_lattice)

from _oracles import (closest_point_brute, closest_point_on_triangle,
                      closest_points_every_face, euler_from_rotation, load_obj_lines,
                      raycasts_brute, rotation_from_euler)


def random_transform(rng, max_t=50.0, max_deg=179.0):
    t = rng.uniform(-max_t, max_t, 3)
    angles = rng.uniform(-max_deg, max_deg, 3)
    return make_transform(t[0], t[1], t[2], *angles)


class TestRigidTransform:
    def test_identity(self):
        eye = RigidTransform.identity()
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 9.0]])
        assert np.array_equal(eye.apply(pts), pts)
        assert eye.euler_deg() == (0.0, 0.0, 0.0)

    def test_matrix_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = rng.uniform(-179, 179, 3)
            ours = make_transform(0, 0, 0, *angles).rotation
            ref = rotation_from_euler(*angles)
            assert np.allclose(ours, ref, atol=1e-12)

    def test_euler_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            angles = rng.uniform(-179, 179, 3)
            t = make_transform(0, 0, 0, *angles)
            back = make_transform(0, 0, 0, *t.euler_deg())
            assert np.allclose(back.rotation, t.rotation, atol=1e-9)

    def test_euler_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            angles = rng.uniform(-89, 89, 3)
            t = make_transform(0, 0, 0, *angles)
            assert np.allclose(t.euler_deg(), euler_from_rotation(t.rotation),
                               atol=1e-9)

    def test_gimbal_lock_still_reconstructs(self):
        for ry in (90.0, -90.0):
            t = make_transform(0, 0, 0, 25.0, ry, -40.0)
            back = make_transform(0, 0, 0, *t.euler_deg())
            assert np.allclose(back.rotation, t.rotation, atol=1e-9)

    def test_inverse(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-20, 20, (40, 3))
        for _ in range(25):
            a = random_transform(rng)
            inv = a.inverse()
            assert np.allclose(inv.apply(a.apply(pts)), pts, atol=1e-9)

    def test_single_point_apply(self):
        t = make_transform(1, 2, 3, 0, 0, 90)
        out = t.apply(np.array([1.0, 0.0, 0.0]))
        assert out.shape == (3,)
        assert np.allclose(out, [1.0, 3.0, 3.0], atol=1e-12)

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.5
        with pytest.raises(InvalidInputError):
            RigidTransform(rotation=bad, translation=np.zeros(3))

    def test_rejects_reflection(self):
        mirror = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            RigidTransform(rotation=mirror, translation=np.zeros(3))

    def test_arrays_frozen(self):
        t = make_transform(1, 2, 3, 10, 20, 30)
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 5.0

    def test_rms_error_zero_for_equal(self):
        t = make_transform(3, -2, 7, 15, -5, 40)
        pts = np.random.default_rng(7).uniform(-30, 30, (25, 3))
        assert rms_error(t, t, pts) == 0.0


class TestRigidFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            truth = random_transform(rng)
            src = rng.uniform(-25, 25, (12, 3))
            fit = rigid_fit_svd(src, truth.apply(src))
            assert rms_error(fit, truth, src) < 1e-9
            assert abs(np.linalg.det(fit.rotation) - 1.0) < 1e-9

    def test_mirrored_target_still_proper_rotation(self):
        rng = np.random.default_rng(12)
        src = rng.uniform(-10, 10, (20, 3))
        mirrored = src * np.array([1.0, 1.0, -1.0])
        fit = rigid_fit_svd(src, mirrored)
        assert abs(np.linalg.det(fit.rotation) - 1.0) < 1e-9

    def test_minimum_three_points(self):
        src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            rigid_fit_svd(src, src)

    def test_length_mismatch(self):
        a = np.zeros((4, 3))
        b = np.zeros((5, 3))
        with pytest.raises(InvalidInputError):
            rigid_fit_svd(a, b)

    def test_collinear_source_rejected(self):
        src = np.array([[float(i), 0.0, 0.0] for i in range(6)])
        with pytest.raises(DegenerateGeometryError):
            rigid_fit_svd(src, src + 1.0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       translation=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       source=st.lists(st.tuples(*[st.floats(-50.0, 50.0)] * 3), min_size=3, max_size=30))
def test_rigid_fit_recovers_random_proper_transform(quaternion, translation, source):
    """Exact correspondences of a random rotation (unit quaternion) and
    translation give back that transform, with det +1."""
    q = np.asarray(quaternion)
    assume(np.linalg.norm(q) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    truth = RigidTransform(rotation, np.asarray(translation))
    src = np.asarray(source)
    # well spread: the second singular value of the centred points is clear
    # of zero, so the fit is determined and well conditioned
    assume(np.linalg.svd(src - src.mean(axis=0), compute_uv=False)[1] > 1.0)
    fit = rigid_fit_svd(src, truth.apply(src))
    assert abs(np.linalg.det(fit.rotation) - 1.0) < 1e-9
    assert np.max(np.abs(fit.rotation - rotation)) < 1e-8
    assert np.max(np.abs(fit.translation - truth.translation)) < 1e-6


def lumpy_mesh(nx=9, ny=9):
    from palpmap.simulator import make_surface_mesh

    def height(x, y):
        return 3.0 * np.sin(x / 3.0) * np.cos(y / 4.0)

    return make_surface_mesh(0.0, 4.0 * nx, 0.0, 4.0 * ny, 4.0, height)


def huge_face_mesh():
    """A 6x6 lumpy mesh plus one 2,000 mm triangle below it (the last face)."""
    mesh = lumpy_mesh(6, 6)
    huge = np.array([[-1e3, -1e3, -20.0], [1e3, -1e3, -20.0], [0.0, 1e3, -20.0]])
    return TriMesh(np.vstack([mesh.vertices, huge]),
                   np.vstack([mesh.faces, np.arange(3) + mesh.vertices.shape[0]]))


def assert_closest_match_oracle(mesh, queries):
    """`closest_points` scores only the faces in the ball its nearest centroid
    bounds, and must equal scoring every face bit for bit."""
    got = mesh.closest_points(queries)
    want = closest_points_every_face(mesh, queries)
    for name, g, w in zip(("points", "normals", "faces", "distances"), got, want):
        assert np.array_equal(g, w), name
    return got[:4]


def assert_same_neighbourhoods(got, want):
    assert got.mesh is want.mesh
    for field in dataclasses.fields(got)[1:]:
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def _certificates(hood):
    """Per row, the largest move from its anchor that `closest_points` still
    certifies: `_slack(d + 2 delta) < B` solved for delta; negative for none."""
    return ((hood.bounds - 1e-9) / (1.0 + 1e-9) - hood.distances) / 2.0


_MOVES = ("zero", "under", "over", "far")


@pytest.mark.parametrize("make_mesh", [lumpy_mesh, huge_face_mesh])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_offered_neighbourhoods_match_every_face(make_mesh, data):
    """Rows moved from their anchors by 0, by just under their certificate, by
    just over it and by 6 mm, twice in a chain: every step equals scoring
    every face bit for bit. A row moved under its certificate keeps its
    anchor and scores one (query, face) pair, its anchor's closest face; a
    row moved past it is re-anchored at its query (it searched the tree).
    That holds on the huge-face mesh too, whose every ball holds every face,
    and whose certificates can exceed 6 mm."""
    mesh = make_mesh()
    low, high = mesh.bounds()
    n = data.draw(st.integers(1, 12))
    queries = np.array(data.draw(st.lists(
        st.tuples(*[st.floats(float(lo) - 5.0, float(hi) + 5.0) for lo, hi in zip(low, high)]),
        min_size=n, max_size=n)))
    directions = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(2, n, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    runs = []  # the run lengths of each first-minimum call
    original = geometry._first_minimum

    def recording(values, lens):
        runs.append(lens)
        return original(values, lens)

    hood = mesh.closest_points(queries)[4]
    for step in range(2):
        moves = np.array(data.draw(st.lists(st.sampled_from(_MOVES), min_size=n, max_size=n)))
        certificate = np.maximum(_certificates(hood), 0.0)
        length = np.select([moves == m for m in _MOVES],
                           [0.0, certificate * (1.0 - 1e-6),
                            certificate * (1.0 + 1e-6) + 1e-7, 6.0])
        moved = hood.anchors + length[:, None] * directions[step]
        runs.clear()
        with mock.patch.object(geometry, "_first_minimum", recording):
            mesh.closest_points(moved)
            balls = runs[0]  # each row's tree ball, in row order
            runs.clear()
            got = mesh.closest_points(moved, (hood, np.arange(n)))
        for name, g, w in zip(("points", "normals", "faces", "distances"), got,
                              closest_points_every_face(mesh, moved)):
            assert np.array_equal(g, w), name
        new = got[4]
        delta = np.linalg.norm(moved - hood.anchors, axis=1)
        certified = geometry._slack(hood.distances + 2.0 * delta) < hood.bounds
        # one chunk: certified rows lead it with one pair each, tree rows
        # follow with their balls
        assert np.array_equal(runs[0], np.concatenate([np.ones(certified.sum()),
                                                       balls[~certified]]))
        assert np.all(np.all(new.anchors == hood.anchors, axis=1)[certified])
        assert np.all(np.all(new.anchors == moved, axis=1)[~certified])
        # a certificate above 1e-6 mm is clear of the rounding of the move itself
        assert np.all(certified[(moves == "under") & (certificate > 1e-6)])
        far = moves == "far"
        assert not np.any(certified[(moves == "over")
                                    | (far & (6.0 > certificate * (1.0 + 1e-6) + 1e-7))])
        assert np.all(certified[far & (6.0 < certificate * (1.0 - 1e-6))])
        hood = new


class TestTriMesh:
    def test_validation(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(InvalidInputError):
            TriMesh(verts, np.array([[0, 1, 3]]))  # out of range
        with pytest.raises(InvalidInputError):
            TriMesh(verts, np.array([[0, 1, 1]]))  # repeated vertex
        with pytest.raises(InvalidInputError):
            TriMesh(verts[:2], np.zeros((0, 3), dtype=int))

    def test_zero_area_face_rejected(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
        with pytest.raises(InvalidInputError):
            TriMesh(verts, np.array([[0, 1, 2]]))

    def test_closest_points_match_brute_oracle(self):
        mesh = lumpy_mesh()
        rng = np.random.default_rng(21)
        queries = rng.uniform([-5, -5, -8], [41, 41, 10], (200, 3))
        pts, normals, fidx, dists = assert_closest_match_oracle(mesh, queries)
        for q, p, f, d in zip(queries, pts, fidx, dists):
            _, _, od = closest_point_brute(mesh.vertices, mesh.faces, q)
            assert abs(d - od) < 1e-9
            # the returned point must lie on the returned face and achieve
            # the optimal distance (face ids may differ on near-ties)
            i, j, k = mesh.faces[f]
            on_face = closest_point_on_triangle(mesh.vertices[i],
                                                mesh.vertices[j],
                                                mesh.vertices[k], q)
            assert np.linalg.norm(p - on_face) < 1e-9
            assert abs(np.linalg.norm(q - p) - d) < 1e-9
        lens = np.linalg.norm(normals, axis=1)
        assert np.allclose(lens, 1.0, atol=1e-12)

    @pytest.mark.parametrize("offset", [1e20, 1e100])
    def test_far_queries_match_brute_oracle(self, offset):
        """At these offsets rounding of the distances exceeds the mesh's size,
        so the candidate ball needs its relative slack to stay non-empty."""
        mesh = lumpy_mesh()
        directions = np.random.default_rng(1).normal(size=(6, 3))
        queries = offset * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        pts, _, fidx, dists = assert_closest_match_oracle(mesh, queries)
        for q, p, f, d in zip(queries, pts, fidx, dists):
            _, _, od = closest_point_brute(mesh.vertices, mesh.faces, q)
            assert abs(d - od) <= 1e-12 * od
            i, j, k = mesh.faces[f]
            on_face = closest_point_on_triangle(mesh.vertices[i], mesh.vertices[j],
                                                mesh.vertices[k], p)
            assert np.linalg.norm(p - on_face) < 1e-9

    def test_query_whose_squared_distance_overflows_is_rejected(self):
        mesh = lumpy_mesh()
        with pytest.raises(InvalidInputError, match="too far from the mesh"):
            mesh.closest_points(np.array([[1e160, 0.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    def test_far_query_offered_a_neighbourhood_is_rejected_first(self):
        """The anchor distance overflows without a warning and certifies
        nothing, so the row searches the tree and meets the far check."""
        mesh = lumpy_mesh()
        hood = mesh.closest_points(np.array([[10.0, 10.0, 5.0]]))[4]
        with pytest.raises(InvalidInputError, match="too far from the mesh"):
            mesh.closest_points(np.array([[1e160, 0.0, 0.0]]), (hood, np.array([0])))

    def test_neighbourhoods_of_another_mesh_are_rejected(self):
        mesh = lumpy_mesh()
        query = np.array([[10.0, 10.0, 5.0]])
        hood = lumpy_mesh().closest_points(query)[4]
        with pytest.raises(InvalidInputError, match="this mesh's neighbourhoods"):
            mesh.closest_points(query, (hood, np.array([0])))

    @pytest.mark.parametrize("rows", [[5, 0], [0.5, 1.0], [-2, 0]],
                             ids=["past-the-table", "non-integer", "below-minus-one"])
    def test_offered_rows_outside_the_table_are_rejected(self, rows):
        mesh = lumpy_mesh()
        queries = np.array([[10.0, 10.0, 5.0], [20.0, 20.0, 5.0]])
        hood = mesh.closest_points(queries)[4]
        with pytest.raises(InvalidInputError, match="near rows"):
            mesh.closest_points(queries, (hood, np.array(rows)))

    def test_exact_tie_picks_lowest_face(self):
        # mirror-image triangles: IEEE negation is exact, so a query on the
        # mirror plane yields bit-identical distances to both faces
        verts = np.array([
            [-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0],
        ])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        q = np.array([[0.0, 0.2, 1.0], [0.0, 0.0, -3.0], [0.0, 0.9, 0.5]])
        _, _, fidx, _ = assert_closest_match_oracle(mesh, q)
        assert fidx.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("phantom", [multimodal_phantom, artery_phantom])
    def test_phantom_near_surface_queries_match_every_face(self, phantom):
        mesh = phantom().mesh
        rng = np.random.default_rng(22)
        centroids = mesh.vertices[mesh.faces].mean(axis=1)
        picks = rng.choice(centroids.shape[0], 400, replace=False)
        assert_closest_match_oracle(mesh, centroids[picks] + rng.normal(0.0, 1.5, (400, 3)))

    def test_huge_face_queries_match_every_face(self):
        mesh = huge_face_mesh()
        queries = np.random.default_rng(23).uniform([-40, -40, -30], [60, 60, 15], (200, 3))
        _, _, faces, _ = assert_closest_match_oracle(mesh, queries)
        huge = mesh.faces.shape[0] - 1
        assert np.any(faces == huge) and np.any(faces < huge)

    def test_closest_point_single(self):
        mesh = lumpy_mesh()
        _, _, faces, dists, _ = mesh.closest_points(np.array([[10.0, 10.0, 30.0]]))
        assert dists[0] > 0
        assert 0 <= faces[0] < mesh.faces.shape[0]

    def test_raycast_hit(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        points, faces = mesh.raycasts(np.array([[1.0, 1.0, 5.0]]), np.array([0.0, 0, -1]))
        assert faces[0] >= 0
        assert np.allclose(points[0], [1.0, 1.0, 0.0], atol=1e-9)
        assert faces[0] == 0

    def test_raycast_miss_and_parallel(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        assert mesh.raycasts(np.array([[10.0, 10, 5]]), np.array([0.0, 0, -1]))[1][0] < 0
        assert mesh.raycasts(np.array([[1.0, 1, 5]]), np.array([1.0, 0, 0]))[1][0] < 0

    def test_raycast_nearest_of_two(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        points, faces = mesh.raycasts(np.array([[1.0, 1.0, 5.0]]),
                                      np.array([0.0, 0.0, -1.0]))
        assert faces[0] == 1
        assert abs(points[0, 2] - 2.0) < 1e-12

    def test_raycast_boundary_inclusive(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        _, faces = mesh.raycasts(np.array([[0.0, 0.0, 5.0]]), np.array([0.0, 0, -1]))
        assert faces[0] >= 0

    def test_raycasts_match_row_by_row_raycast(self):
        # face 0 below, face 1 above it, face 2 a copy of face 1 (exact tie)
        verts = np.array([[0.0, 0, 0], [8, 0, 0], [0, 8, 0],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        origins = np.array([[1.0, 1.0, 5.0],    # nearest of two, tie 1 vs 2
                            [5.0, 1.0, 5.0],    # below the upper faces only
                            [10.0, 10.0, 5.0],  # miss
                            [1.0, 1.0, -5.0],   # surfaces behind the origin
                            [0.5, 0.5, 1.0]])   # between the two layers
        expected = {(0.0, 0, -1): [1, 0, -1, -1, 0], (1.0, 0, 0): [-1] * 5}
        for direction in ([0.0, 0, -1], [1.0, 0, 0], [0.3, -0.2, -1.0]):
            points, faces = mesh.raycasts(origins, np.array(direction))
            assert points.shape == (5, 3) and faces.shape == (5,)
            if tuple(direction) in expected:
                assert faces.tolist() == expected[tuple(direction)]
            for origin, point, face in zip(origins, points, faces):
                row_points, row_faces = mesh.raycasts(origin[None, :], np.array(direction))
                if row_faces[0] < 0:
                    assert face == -1 and np.all(np.isnan(point))
                else:
                    assert face == row_faces[0] and np.array_equal(point, row_points[0])

    def test_raycasts_across_chunks_match_rows(self):
        mesh = lumpy_mesh(40, 40)  # 3,200 faces: 1,300 origins span two chunks
        rng = np.random.default_rng(5)
        origins = np.column_stack([rng.uniform(-5.0, 165.0, (1300, 2)),
                                   np.full(1300, 10.0)])
        direction = np.array([0.1, 0.05, -1.0])
        points, faces = mesh.raycasts(origins, direction)
        assert 0 < np.sum(faces < 0) < 1300
        for origin, point, face in zip(origins, points, faces):
            row_points, row_faces = mesh.raycasts(origin[None, :], direction)
            if row_faces[0] < 0:
                assert face == -1
            else:
                assert face == row_faces[0] and np.array_equal(point, row_points[0])

    def test_raycasts_validation(self):
        mesh = lumpy_mesh()
        with pytest.raises(InvalidInputError):
            mesh.raycasts(np.zeros(3), np.array([0.0, 0, -1]))
        with pytest.raises(InvalidInputError):
            mesh.raycasts(np.zeros((2, 3)), np.zeros(3))
        points, faces = mesh.raycasts(np.zeros((0, 3)), np.array([0.0, 0, -1]))
        assert points.shape == (0, 3) and faces.shape == (0,)

    def test_raycasts_reject_non_finite_origins(self):
        mesh = lumpy_mesh()
        for bad in (np.nan, np.inf, 2e307, 1e306, 1e155):
            with pytest.raises(InvalidInputError, match="finite and at most 6.7e\\+153"):
                mesh.raycasts(np.array([[1.0, 1.0, 5.0], [bad, 1.0, 5.0]]),
                              np.array([0.0, 0, -1]))
        # origins at the bound still pass the k-d tree of projected centroids
        _, faces = mesh.raycasts(np.full((1, 3), 6.7e153), np.array([1.0, 1, -1]))
        assert faces[0] == -1

    def test_obj_roundtrip(self, tmp_path):
        mesh = lumpy_mesh(4, 4)
        path = tmp_path / "m.obj"
        mesh.save_obj(path)
        back = load_mesh(path)
        # save_obj writes repr(float), which reads back to the same bits
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(back.faces, mesh.faces)

    def test_obj_rejects_quads(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ConfigError, match="only triangular faces"):
            load_mesh(path)

    def test_obj_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(ConfigError, match="no triangles"):
            load_mesh(path)

    def test_obj_ignores_other_records(self, tmp_path):
        path = tmp_path / "extras.obj"
        path.write_text(
            "o thing\nvn 0 0 1\nvt 0 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "s off\nf 1/1/1 2/2/1 3/3/1\n")
        mesh = load_mesh(path)
        assert mesh.faces.shape == (1, 3)

    def test_bounds(self):
        mesh = lumpy_mesh(3, 3)
        lo, hi = mesh.bounds()
        assert np.all(lo <= hi)
        assert lo[0] == 0.0 and hi[0] == 12.0


# a tetrahedron in plain OBJ, and the mesh every accepted spelling of it loads to
TETRA_OBJ = ("v 0.1 0 0\nv 1.5 0 0\nv 0 1.25 0\nv 0.3 0.2 2.75\n"
             "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
TETRA = TriMesh([[0.1, 0, 0], [1.5, 0, 0], [0, 1.25, 0], [0.3, 0.2, 2.75]],
                [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])

ACCEPTED_OBJ = {
    "crlf": TETRA_OBJ.replace("\n", "\r\n"),
    "cr": TETRA_OBJ.replace("\n", "\r"),
    "vertex-w": TETRA_OBJ.replace(" 0\nv", " 0 1.0\nv").replace(" 2.75\n", " 2.75 1\n"),
    "slash-refs": TETRA_OBJ.replace("f 1 3 2", "f 1/1/1 3/2/1 2/3/1")
                           .replace("f 1 2 4", "f 1//2 2//2 4//2")
                           .replace("f 2 3 4", "f 2/ 3/ 4/"),
    "non-ascii-digits": TETRA_OBJ.replace("f 1 4 3", "f 1 4 \u0663"),
    "other-records": "# tetrahedron\no tetra\n" + TETRA_OBJ.replace(
        "f 1 3 2", "vn 0 0 1\nvt 0 0\ns off\n  # indented comment\nf 1 3 2"),
}

# (OBJ text, the exact InvalidInputError message)
MALFORMED_OBJ = {
    "short-vertex": ("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
                     "line 2: vertex needs 3 coordinates"),
    "bad-coordinate": ("v 0 0 0\nv 1 0 0\nv 0 1.2.3 0\nf 1 2 3\n",
                       "line 3: bad vertex coordinate"),
    "quad": ("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
             "line 5: only triangular faces are supported"),
    "float-index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.0\n", "line 4: bad face index"),
    "zero-index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n",
                   "line 4: face indices are 1-based"),
    "past-int64": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n",
                   "face index out of range"),
    # TriMesh's vertex checks still come before its index range check
    "past-int64-two-vertices": ("v 0 0 0\nv 1 0 0\nf 1 2 99999999999999999999999\n",
                                "vertices must have shape (n>=3, 3)"),
    "comments-only": ("# nothing\n# here\n", "OBJ file has no triangles"),
    "face-before-vertex": ("v 0 0 0\nv 1 0 0\nf 1 2 x\nv 0 1 0\nv 1 1 bad\n",
                           "line 3: bad face index"),
    "vertex-before-face": ("v 0 0 0\nv 1 0 0\nv 0 1 bad\nf 1 2 3\nf 1 2 x\n",
                           "line 3: bad vertex coordinate"),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED_OBJ))
def test_obj_spellings_load_to_the_same_mesh(tmp_path, name):
    path = tmp_path / "m.obj"
    path.write_bytes(ACCEPTED_OBJ[name].encode("utf-8"))
    mesh = load_mesh(path)
    assert mesh.vertices.tobytes() == TETRA.vertices.tobytes()
    assert mesh.faces.dtype == np.int64 and np.array_equal(mesh.faces, TETRA.faces)


@pytest.mark.parametrize("name", sorted(MALFORMED_OBJ))
def test_malformed_obj_message_and_exit_code(tmp_path, capsys, name):
    text, message = MALFORMED_OBJ[name]
    path = tmp_path / "m.obj"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidInputError) as info:
        TriMesh.load_obj(path)
    assert str(info.value) == message
    assert main(["mesh-check", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: bad mesh {path}: {message}\n"


MUTABLE_OBJ = ("# tetra\no tetra\nv 0.1 0 0\nv 1.5 0 0\nv 0 1.25 0\nvn 0 0 1\n"
               "v 0.3 0.2 2.75 1\nf 1 3 2\nf 1/1 2/2 4/3\nf 2//1 3//1 4//1\nf 1 4 3\n")
OBJ_TOKENS = ["v", "f", "#", "vn", "0", "1", "2", "3", "4", "5", "-1", "+2", "1_0",
              "\u0663", "3/", "/3", "3.0", "1.2.3", "0.5", "-2.5e-3", "nan", "inf",
              "1e400", "x", "99999999999999999999999", "-99999999999999999999999"]


def _obj_outcome(load, path):
    try:
        mesh = load(path)
    except InvalidInputError as exc:
        return str(exc)
    return mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.dtype, mesh.faces.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_load_obj_matches_line_reader(tmp_path_factory, data):
    """One token of a small OBJ replaced or deleted, or one line duplicated or
    dropped: the same mesh bytes as the line-by-line reader, or its message."""
    lines = [line.split() for line in MUTABLE_OBJ.splitlines()]
    at = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "drop"]))
    if action == "replace":
        lines[at][data.draw(st.integers(0, len(lines[at]) - 1))] = data.draw(
            st.sampled_from(OBJ_TOKENS))
    elif action == "delete":
        del lines[at][data.draw(st.integers(0, len(lines[at]) - 1))]
    elif action == "duplicate":
        lines.insert(at, list(lines[at]))
    else:
        del lines[at]
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines), encoding="utf-8")
    assert _obj_outcome(TriMesh.load_obj, path) == _obj_outcome(load_obj_lines, path)


def assert_casts_match_oracle(mesh, origins, direction):
    points, faces = mesh.raycasts(origins, direction)
    want_points, want_faces = raycasts_brute(mesh, origins, direction)
    assert np.array_equal(faces, want_faces)
    assert np.array_equal(points, want_points, equal_nan=True)
    return faces


class TestRaycastIndex:
    """`raycasts` tests only the faces under each ray, and must equal the
    brute-force caster that tests every face bit for bit."""

    @pytest.mark.parametrize("workload", ["demo-1mm", "demo-0.5mm", "artery-1.5mm"])
    def test_workload_rays_match_oracle(self, tmp_path, workload):
        if workload == "artery-1.5mm":
            spec, roi, budgets = artery_phantom(), ROI(0.0, 60.0, 0.0, 60.0, 1.5), [100]
        else:
            config = load_config(write_demo(tmp_path) / "config.json")
            spec = load_phantom(config.phantom)
            spacing, budgets = {"demo-1mm": (1.0, [100]), "demo-0.5mm": (0.5, [300])}[workload]
            roi = dataclasses.replace(config.roi, spacing=spacing)
        for targets in [prediction_grid(roi), initial_samples(roi),
                        *(uniform_lattice(roi, budget) for budget in budgets)]:
            faces = assert_casts_match_oracle(spec.mesh, *tool_rays(spec, targets))
            assert np.all(faces >= 0)
        # one-row casts, as `probe` makes them
        for target in initial_samples(roi):
            assert_casts_match_oracle(spec.mesh, *tool_rays(spec, target[None, :]))

    def test_misses_parallel_faces_and_ties_match_oracle(self):
        # face 0 below, face 1 above it, face 2 a copy of face 1 (exact tie),
        # face 3 vertical: parallel to -z, and under the rays of +x
        verts = np.array([[0.0, 0, 0], [8, 0, 0], [0, 8, 0],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2],
                          [6.0, 0, -1], [6, 8, -1], [6, 0, 6]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]))
        origins = np.array([[1.0, 1.0, 5.0], [5.0, 1.0, 5.0], [6.0, 1.0, 5.0],
                            [10.0, 10.0, 5.0], [1.0, 1.0, -5.0], [0.5, 0.5, 1.0],
                            [-3.0, 1.0, 0.5], [0.0, 0.0, 5.0]])
        down = np.array([0.0, 0, -1])
        faces = assert_casts_match_oracle(mesh, origins, down)
        assert faces.tolist() == [1, 0, 0, -1, -1, 0, -1, 1]
        assert assert_casts_match_oracle(mesh, origins, np.array([1.0, 0, 0]))[6] == 3
        # every ray outside the footprint: no candidate at all
        far = origins + np.array([100.0, 0.0, 0.0])
        assert np.all(assert_casts_match_oracle(mesh, far, down) == -1)
        assert np.all(assert_casts_match_oracle(mesh, far[:1], down) == -1)

    def test_directions_in_turn_match_oracle(self):
        """The index is kept per direction: casting another one rebuilds it."""
        mesh = lumpy_mesh(10, 10)
        rng = np.random.default_rng(11)
        origins = np.column_stack([rng.uniform(-5.0, 45.0, (300, 2)), np.full(300, 10.0)])
        directions = [np.array([0.0, 0, -1]), np.array([0.3, -0.2, -1.0]),
                      np.array([0.0, 0, -2]), np.array([0.3, -0.2, -1.0]), np.array([1.0, 0, 0])]
        hits = [assert_casts_match_oracle(mesh, origins, d) for d in directions]
        assert np.array_equal(hits[0], hits[2]) and np.array_equal(hits[1], hits[3])
        assert not np.array_equal(hits[0], hits[1])

    def test_chunks_bound_the_pairs(self, monkeypatch):
        """One huge face makes every face a candidate of every ray."""
        mesh = huge_face_mesh()
        rng = np.random.default_rng(12)
        origins = np.column_stack([rng.uniform(-5.0, 30.0, (50, 2)), np.full(50, 10.0)])
        down = np.array([0.1, 0.05, -1.0])
        faces_per_chunk = []
        original = geometry._first_minimum

        def recording(values, lens):
            faces_per_chunk.append(values.shape[0])
            return original(values, lens)

        monkeypatch.setattr(geometry, "_MAX_PAIRS", 7 * mesh.faces.shape[0])
        monkeypatch.setattr(geometry, "_first_minimum", recording)
        faces = assert_casts_match_oracle(mesh, origins, down)
        assert faces_per_chunk == [7 * mesh.faces.shape[0]] * 7 + [mesh.faces.shape[0]]
        assert np.any(faces == mesh.faces.shape[0] - 1) and np.any(faces < mesh.faces.shape[0] - 1)

    def test_closest_points_unchanged_by_chunks(self, monkeypatch):
        mesh = lumpy_mesh()
        queries = np.random.default_rng(13).uniform(-10.0, 50.0, (200, 3))
        whole = mesh.closest_points(queries)
        near = (whole[4], np.arange(200))
        moved = queries + 0.1
        warm = mesh.closest_points(moved, near)
        monkeypatch.setattr(geometry, "_MAX_PAIRS", 3 * mesh.faces.shape[0])
        for got, want in ((mesh.closest_points(queries), whole),
                          (mesh.closest_points(moved, near), warm)):
            for g, w in zip(got[:4], want[:4]):
                assert np.array_equal(g, w)
            assert_same_neighbourhoods(got[4], want[4])
