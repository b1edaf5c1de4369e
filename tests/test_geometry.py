import numpy as np
import pytest

from palpmap.errors import DegenerateGeometryError, InvalidInputError
from palpmap.geometry import (RigidTransform, TriMesh, load_mesh,
                              make_transform, rigid_fit_svd, rms_error)

from _oracles import (closest_point_brute, closest_point_on_triangle,
                      euler_from_rotation, rotation_from_euler)


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

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-20, 20, (40, 3))
        for _ in range(25):
            a = random_transform(rng)
            b = random_transform(rng)
            ab = a.compose(b)
            assert np.allclose(ab.apply(pts), a.apply(b.apply(pts)), atol=1e-9)
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


def lumpy_mesh(nx=9, ny=9):
    from palpmap.simulator import make_surface_mesh

    def height(x, y):
        return 3.0 * np.sin(x / 3.0) * np.cos(y / 4.0)

    return make_surface_mesh(0.0, 4.0 * nx, 0.0, 4.0 * ny, 4.0, height)


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
        pts, normals, fidx, dists = mesh.closest_points(queries)
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

    def test_exact_tie_picks_lowest_face(self):
        # mirror-image triangles: IEEE negation is exact, so a query on the
        # mirror plane yields bit-identical distances to both faces
        verts = np.array([
            [-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [-1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0],
        ])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        q = np.array([[0.0, 0.2, 1.0]])
        _, _, fidx, _ = mesh.closest_points(q)
        assert fidx[0] == 0

    def test_closest_point_single(self):
        mesh = lumpy_mesh()
        res = mesh.closest_point(np.array([10.0, 10.0, 30.0]))
        assert res.distance > 0
        assert 0 <= res.face_index < mesh.faces.shape[0]

    def test_raycast_hit(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        hit = mesh.raycast(np.array([1.0, 1.0, 5.0]), np.array([0.0, 0, -1]))
        assert hit is not None
        point, face = hit
        assert np.allclose(point, [1.0, 1.0, 0.0], atol=1e-9)
        assert face == 0

    def test_raycast_miss_and_parallel(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        assert mesh.raycast(np.array([10.0, 10, 5]), np.array([0.0, 0, -1])) is None
        assert mesh.raycast(np.array([1.0, 1, 5]), np.array([1.0, 0, 0])) is None

    def test_raycast_nearest_of_two(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0],
                          [0.0, 0, 2], [4, 0, 2], [0, 4, 2]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        point, face = mesh.raycast(np.array([1.0, 1.0, 5.0]),
                                   np.array([0.0, 0.0, -1.0]))
        assert face == 1
        assert abs(point[2] - 2.0) < 1e-12

    def test_raycast_boundary_inclusive(self):
        verts = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        hit = mesh.raycast(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0, -1]))
        assert hit is not None

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
                hit = mesh.raycast(origin, np.array(direction))
                if hit is None:
                    assert face == -1 and np.all(np.isnan(point))
                else:
                    assert face == hit[1] and np.array_equal(point, hit[0])

    def test_raycasts_across_chunks_match_rows(self):
        mesh = lumpy_mesh(40, 40)  # 3,200 faces: 1,300 origins span two chunks
        rng = np.random.default_rng(5)
        origins = np.column_stack([rng.uniform(-5.0, 165.0, (1300, 2)),
                                   np.full(1300, 10.0)])
        direction = np.array([0.1, 0.05, -1.0])
        points, faces = mesh.raycasts(origins, direction)
        assert 0 < np.sum(faces < 0) < 1300
        for origin, point, face in zip(origins, points, faces):
            hit = mesh.raycast(origin, direction)
            if hit is None:
                assert face == -1
            else:
                assert face == hit[1] and np.array_equal(point, hit[0])

    def test_raycasts_validation(self):
        mesh = lumpy_mesh()
        with pytest.raises(InvalidInputError):
            mesh.raycasts(np.zeros(3), np.array([0.0, 0, -1]))
        with pytest.raises(InvalidInputError):
            mesh.raycasts(np.zeros((2, 3)), np.zeros(3))
        points, faces = mesh.raycasts(np.zeros((0, 3)), np.array([0.0, 0, -1]))
        assert points.shape == (0, 3) and faces.shape == (0,)

    def test_obj_roundtrip(self, tmp_path):
        mesh = lumpy_mesh(4, 4)
        path = tmp_path / "m.obj"
        mesh.save_obj(path)
        back = load_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices, atol=1e-12)
        assert np.array_equal(back.faces, mesh.faces)

    def test_json_roundtrip(self, tmp_path):
        mesh = lumpy_mesh(3, 3)
        path = tmp_path / "m.json"
        mesh.save_json(path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_obj_rejects_quads(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(InvalidInputError):
            load_mesh(path)

    def test_obj_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(InvalidInputError):
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
