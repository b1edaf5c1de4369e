import json

import numpy as np
import pytest

from palpmap.acquisition import SamplingPolicy, select_next
from palpmap.care import CMUConfig, default_seed_transforms
from palpmap.cli import main
from palpmap.errors import ConfigError, InvalidInputError, OutOfWorkspaceError
from palpmap.geometry import RigidTransform, TriMesh, make_transform
from palpmap.gp import Prediction
from palpmap.simulator import (ArteryRidge, NoiseSpec, PhantomSpec, ProbeConfig,
                               ROI, artery_phantom, grid_shape, initial_samples,
                               load_phantom, make_surface_mesh,
                               multimodal_phantom, prediction_grid, probe,
                               save_phantom, stiffness_field, tool_rays,
                               uniform_lattice, StiffnessBump)


def flat_spec(baseline=2.0, size=40.0, transform=None, bumps=(), artery=None):
    mesh = make_surface_mesh(-size, size, -size, size, 4.0, lambda x, y: 0.0 * x)
    return PhantomSpec(mesh=mesh, baseline_stiffness=baseline, bumps=tuple(bumps),
                       artery=artery,
                       true_transform=transform or RigidTransform.identity())


class TestStiffnessField:
    def test_baseline_only(self):
        spec = flat_spec(baseline=1.7)
        pts = np.array([[0.0, 0.0], [5.0, -3.0]])
        assert np.allclose(stiffness_field(spec, pts), 1.7)

    def test_one_location_is_one_row(self):
        spec = flat_spec(baseline=1.7)
        assert stiffness_field(spec, [[5.0, -3.0]]).shape == (1,)
        with pytest.raises(InvalidInputError):
            stiffness_field(spec, [5.0, -3.0])

    def test_bump_closed_form(self):
        bump = StiffnessBump(center=(3.0, 4.0), amplitude=2.0, radius=5.0)
        spec = flat_spec(baseline=1.0, bumps=[bump])
        assert stiffness_field(spec, [[3.0, 4.0]])[0] == pytest.approx(3.0, abs=1e-12)
        val = stiffness_field(spec, [[8.0, 4.0]])[0]
        assert val == pytest.approx(1.0 + 2.0 * np.exp(-25.0 / 50.0), abs=1e-12)

    def test_bump_superposition(self):
        b1 = StiffnessBump(center=(0.0, 0.0), amplitude=1.0, radius=3.0)
        b2 = StiffnessBump(center=(1.0, 0.0), amplitude=2.0, radius=4.0)
        spec = flat_spec(baseline=0.5, bumps=[b1, b2])
        one = flat_spec(baseline=0.5, bumps=[b1])
        two = flat_spec(baseline=0.5, bumps=[b2])
        p = (0.7, 0.2)
        assert stiffness_field(spec, [p])[0] == pytest.approx(
            stiffness_field(one, [p])[0] + stiffness_field(two, [p])[0] - 0.5,
            abs=1e-12)

    def test_artery_profile_and_cutoff(self):
        artery = ArteryRidge(polyline=((0.0, 0.0), (10.0, 0.0)), half_width=2.0,
                             amplitude=3.0)
        spec = flat_spec(baseline=1.0, artery=artery)
        assert stiffness_field(spec, [[5.0, 0.0]])[0] == pytest.approx(4.0, abs=1e-12)
        d = 3.0
        assert stiffness_field(spec, [[5.0, d]])[0] == pytest.approx(
            1.0 + 3.0 * np.exp(-d * d / 8.0), abs=1e-12)
        assert stiffness_field(spec, [[5.0, 6.1]])[0] == pytest.approx(1.0, abs=1e-15)

    def test_artery_distance_uses_segments(self):
        artery = ArteryRidge(polyline=((0.0, 0.0), (10.0, 0.0)), half_width=2.0,
                             amplitude=3.0)
        spec = flat_spec(baseline=1.0, artery=artery)
        # beyond the endpoint, distance is to the endpoint, not the line
        end = stiffness_field(spec, [[12.0, 0.0]])[0]
        assert end == pytest.approx(1.0 + 3.0 * np.exp(-4.0 / 8.0), abs=1e-12)

    def test_lipschitz_for_bump_fields(self):
        bumps = [StiffnessBump(center=(0.0, 0.0), amplitude=2.0, radius=3.0),
                 StiffnessBump(center=(5.0, 5.0), amplitude=1.0, radius=2.0)]
        spec = flat_spec(baseline=1.0, bumps=bumps)
        lip = sum(b.amplitude * np.exp(-0.5) / b.radius for b in bumps)
        rng = np.random.default_rng(0)
        a = rng.uniform(-8, 12, (400, 2))
        b = rng.uniform(-8, 12, (400, 2))
        gap = np.abs(stiffness_field(spec, a) - stiffness_field(spec, b))
        dist = np.linalg.norm(a - b, axis=1)
        assert np.all(gap <= lip * dist + 1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            StiffnessBump(center=(0.0, 0.0), amplitude=-1.0, radius=1.0)
        with pytest.raises(InvalidInputError):
            ArteryRidge(polyline=((0.0, 0.0),), half_width=1.0, amplitude=1.0)


class TestProbe:
    def test_noise_free_forces_linear(self):
        spec = flat_spec(baseline=2.0)
        ms = probe(spec, (1.0, 2.0), ProbeConfig(), NoiseSpec(),
                   np.random.default_rng(0))
        assert len(ms) == 10
        for k, m in enumerate(ms, start=1):
            assert m.force == pytest.approx(2.0 * 0.3 * k, abs=1e-12)

    def test_noise_free_positions_below_surface(self):
        spec = flat_spec()
        ms = probe(spec, (3.0, -4.0), ProbeConfig(), NoiseSpec(),
                   np.random.default_rng(0))
        for k, m in enumerate(ms, start=1):
            assert np.allclose(m.position, [3.0, -4.0, -0.3 * k], atol=1e-9)

    def test_sensed_normal_is_tool_frame(self):
        transform = make_transform(5.0, -2.0, 3.0, 10.0, -8.0, 15.0)
        spec = flat_spec(transform=transform)
        ms = probe(spec, (0.0, 0.0), ProbeConfig(), NoiseSpec(),
                   np.random.default_rng(0))
        expected = transform.rotation.T @ np.array([0.0, 0.0, 1.0])
        for m in ms:
            assert np.allclose(m.sensed_normal, expected, atol=1e-12)
            assert np.linalg.norm(m.sensed_normal) == pytest.approx(1.0)

    def test_transform_consistency(self):
        # sensed tool-frame positions map through T_true to model-frame
        # points `depth` under the contact along the normal
        transform = make_transform(4.0, 7.0, -6.0, 9.0, -7.0, 4.0)
        spec = flat_spec(transform=transform)
        ms = probe(spec, (2.0, 5.0), ProbeConfig(), NoiseSpec(),
                   np.random.default_rng(0))
        model_pts = transform.apply(np.array([m.position for m in ms]))
        for k, p in enumerate(model_pts, start=1):
            assert p[2] == pytest.approx(-0.3 * k, abs=1e-9)

    def test_miss_raises(self):
        spec = flat_spec(size=10.0)
        with pytest.raises(OutOfWorkspaceError):
            probe(spec, (500.0, 0.0), ProbeConfig(), NoiseSpec(),
                  np.random.default_rng(0))

    def test_back_face_rejected(self):
        verts = np.array([[-20.0, -20, 0], [20, -20, 0], [-20, 20, 0],
                          [20, 20, 0]])
        # clockwise winding seen from +z: normals point down
        mesh = TriMesh(verts, np.array([[0, 2, 1], [1, 2, 3]]))
        spec = PhantomSpec(mesh=mesh, baseline_stiffness=1.0, bumps=(),
                           artery=None, true_transform=RigidTransform.identity())
        with pytest.raises(OutOfWorkspaceError):
            probe(spec, (0.0, 0.0), ProbeConfig(), NoiseSpec(),
                  np.random.default_rng(0))

    def test_noise_rng_replay(self):
        spec = flat_spec(baseline=2.0)
        noise = NoiseSpec(position_sigma_mm=0.25, force_sigma_n=0.1)
        ms = probe(spec, (1.0, 2.0), ProbeConfig(), noise,
                   np.random.default_rng(77))
        replay = np.random.default_rng(77)
        for k, m in enumerate(ms, start=1):
            offset = replay.normal(0.0, 0.25, size=3)
            df = replay.normal(0.0, 0.1)
            assert np.allclose(m.position, [1.0 + offset[0], 2.0 + offset[1],
                                            -0.3 * k + offset[2]], atol=1e-12)
            assert m.force == pytest.approx(max(0.6 * k + df, 0.0), abs=1e-12)

    @pytest.mark.parametrize("noise", [NoiseSpec(0.3, 0.1), NoiseSpec(0.25, 5.0)],
                             ids=["demo-noise", "clamped-force"])
    def test_posed_probe_arithmetic_bit_for_bit(self, noise):
        # the probe's arithmetic, exactly, under a non-identity pose: a
        # rewrite of `probe` (say, batching its depth steps) must keep every
        # bit of every measurement, and the generator's state after the probe
        spec = multimodal_phantom()
        assert not np.allclose(spec.true_transform.rotation, np.eye(3))
        inverse = spec.true_transform.inverse()
        config = ProbeConfig()
        for seed, target in enumerate([(12.0, 25.0), (30.5, 41.0), (3.0, 7.5)]):
            rng = np.random.default_rng(seed)
            ms = probe(spec, target, config, noise, rng)
            contacts, faces = spec.mesh.raycasts(*tool_rays(spec, np.array([target])))
            contact, normal = contacts[0], spec.mesh.face_normals[faces[0]]
            stiffness = float(stiffness_field(spec, contact[None, :2])[0])
            replay = np.random.default_rng(seed)
            assert len(ms) == config.steps
            for k, m in enumerate(ms, start=1):
                depth = k * config.depth_increment_mm
                position = (inverse.apply(contact - depth * normal)
                            + replay.normal(0.0, noise.position_sigma_mm, size=3))
                force = max(stiffness * depth + replay.normal(0.0, noise.force_sigma_n), 0.0)
                assert m.position.tolist() == position.tolist()
                assert m.force == force
                assert m.sensed_normal.tolist() == (
                    spec.true_transform.rotation.T @ normal).tolist()
            assert rng.random() == replay.random()

    def test_force_clamped_at_zero(self):
        spec = flat_spec(baseline=0.01)
        noise = NoiseSpec(position_sigma_mm=0.0, force_sigma_n=5.0)
        ms = probe(spec, (0.0, 0.0), ProbeConfig(), noise,
                   np.random.default_rng(3))
        assert all(m.force >= 0.0 for m in ms)
        assert any(m.force == 0.0 for m in ms)

    def test_probe_config_validation(self):
        with pytest.raises(InvalidInputError):
            ProbeConfig(depth_increment_mm=0.4, max_depth_mm=3.0)  # not a multiple
        with pytest.raises(InvalidInputError):
            ProbeConfig(depth_increment_mm=-0.3)
        with pytest.raises(InvalidInputError):
            ProbeConfig(depth_increment_mm=0.5, max_depth_mm=0.5)  # one depth step
        assert ProbeConfig(depth_increment_mm=0.5, max_depth_mm=2.0).steps == 4


class TestLayouts:
    def test_initial_samples_structure(self):
        roi = ROI(0.0, 60.0, 0.0, 40.0, 1.0)
        pts = initial_samples(roi)
        assert pts.shape == (19, 2)
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[1].tolist() == [60.0, 0.0]
        assert pts[2].tolist() == [0.0, 40.0]
        assert pts[3].tolist() == [60.0, 40.0]
        interior = pts[4:]
        xs = sorted({p[0] for p in interior})
        ys = sorted({p[1] for p in interior})
        assert xs == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert ys == [10.0, 20.0, 30.0]
        # row-major with y as the outer loop
        assert interior[:5, 1].tolist() == [10.0] * 5
        assert interior[:5, 0].tolist() == xs

    def test_prediction_grid(self):
        roi = ROI(0.0, 4.0, 0.0, 2.0, 1.0)
        grid = prediction_grid(roi)
        assert grid_shape(roi) == (5, 3)
        assert grid.shape == (15, 2)
        assert grid[0].tolist() == [0.0, 0.0]
        assert grid[4].tolist() == [4.0, 0.0]
        assert grid[5].tolist() == [0.0, 1.0]
        assert grid[-1].tolist() == [4.0, 2.0]

    def test_prediction_grid_fractional_spacing(self):
        roi = ROI(0.0, 10.0, 0.0, 10.0, 1.5)
        nx, ny = grid_shape(roi)
        assert (nx, ny) == (7, 7)  # floor(10/1.5)+1
        grid = prediction_grid(roi)
        assert grid.shape == (49, 2)
        assert grid[:, 0].max() == pytest.approx(9.0)

    def test_uniform_lattice(self):
        roi = ROI(0.0, 30.0, 0.0, 30.0, 1.0)
        pts = uniform_lattice(roi, 9)
        assert pts.shape == (9, 2)
        expect = [7.5, 15.0, 22.5]
        assert sorted({p[0] for p in pts}) == expect
        assert sorted({p[1] for p in pts}) == expect
        assert pts[0].tolist() == [7.5, 7.5]
        assert pts[1].tolist() == [15.0, 7.5]

    def test_uniform_lattice_truncates(self):
        roi = ROI(0.0, 10.0, 0.0, 10.0, 1.0)
        pts = uniform_lattice(roi, 7)  # nx=3, ny=3, first 7 kept
        assert pts.shape == (7, 2)
        with pytest.raises(InvalidInputError):
            uniform_lattice(roi, 0)

    def test_roi_validation(self):
        with pytest.raises(InvalidInputError):
            ROI(5.0, 1.0, 0.0, 10.0, 1.0)
        with pytest.raises(InvalidInputError):
            ROI(0.0, 10.0, 0.0, 10.0, -1.0)
        # the node cap is checked from the grid's shape, before any allocation
        assert grid_shape(ROI(0.0, 999.0, 0.0, 999.0, 1.0)) == (1000, 1000)
        for spacing in (1e-9, 1e-320):  # 1e-320 overflows the span count
            with pytest.raises(InvalidInputError, match="grid nodes"):
                ROI(0.0, 40.0, 0.0, 40.0, spacing)
        with pytest.raises(InvalidInputError, match="grid nodes"):
            ROI(0.0, 1000.0, 0.0, 999.0, 1.0)


class TestSurfaceMesh:
    def test_counts_and_normals(self):
        mesh = make_surface_mesh(0.0, 8.0, 0.0, 8.0, 4.0, lambda x, y: 0.0 * x)
        assert mesh.vertices.shape == (9, 3)
        assert mesh.faces.shape == (8, 3)
        assert np.allclose(mesh.face_normals[:, 2], 1.0, atol=1e-12)

    def test_curved_normals_point_up(self):
        mesh = make_surface_mesh(0.0, 40.0, 0.0, 40.0, 4.0,
                                 lambda x, y: 5.0 * np.sin(x / 6.0))
        assert np.all(mesh.face_normals[:, 2] > 0.0)

    def test_height_applied(self):
        mesh = make_surface_mesh(0.0, 4.0, 0.0, 4.0, 4.0,
                                 lambda x, y: x + 2.0 * y)
        lookup = {(v[0], v[1]): v[2] for v in mesh.vertices}
        assert lookup[(4.0, 4.0)] == pytest.approx(12.0)


# (path into the phantom document, new value); the last str in the path is
# the key the error message must name
MALFORMED_PHANTOM = [
    (("baseline_stiffness",), float("nan")),
    (("bumps", 0, "center"), [float("nan"), 1.0]),
    (("bumps", 0, "radius"), "4"),
    (("baseline_stiffness",), "2"),
    (("bumps", 0, "amplitude"), True),
    (("true_transform", "translation_mm"), 5),
    (("bumps",), 5),
    (("mesh",), 5),
]


class TestPhantomIO:
    @pytest.mark.parametrize("path,value", MALFORMED_PHANTOM,
                             ids=[f"{'.'.join(map(str, p))}={v!r}"
                                  for p, v in MALFORMED_PHANTOM])
    def test_malformed_field_is_config_error(self, tmp_path, capsys, path, value):
        spec = flat_spec(size=8.0, transform=make_transform(1.0, 0.0, 0.0, 0.0, 0.0, 2.0),
                         bumps=[StiffnessBump(center=(1.0, 1.0), amplitude=1.0,
                                              radius=2.0)])
        save_phantom(spec, tmp_path / "phantom.json")
        doc = json.loads((tmp_path / "phantom.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        (tmp_path / "phantom.json").write_text(json.dumps(doc))
        (tmp_path / "config.json").write_text(json.dumps({
            "phantom": "phantom.json", "budget": 1,
            "roi": {"xmin": -4.0, "xmax": 4.0, "ymin": -4.0, "ymax": 4.0, "spacing": 4.0}}))
        assert main(["run", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert [key for key in path if isinstance(key, str)][-1] in err

    def test_roundtrip(self, tmp_path):
        spec = multimodal_phantom()
        save_phantom(spec, tmp_path / "p.json")
        back = load_phantom(tmp_path / "p.json")
        assert np.allclose(back.mesh.vertices, spec.mesh.vertices, atol=1e-12)
        assert np.array_equal(back.mesh.faces, spec.mesh.faces)
        assert back.baseline_stiffness == spec.baseline_stiffness
        assert len(back.bumps) == len(spec.bumps)
        for a, b in zip(back.bumps, spec.bumps):
            assert np.allclose(a.center, b.center)
            assert a.amplitude == b.amplitude and a.radius == b.radius
        assert np.allclose(back.true_transform.rotation,
                           spec.true_transform.rotation, atol=1e-12)

    def test_artery_roundtrip(self, tmp_path):
        spec = artery_phantom()
        save_phantom(spec, tmp_path / "p.json")
        back = load_phantom(tmp_path / "p.json")
        assert back.artery is not None
        assert np.allclose(back.artery.polyline, spec.artery.polyline)
        assert back.artery.half_width == spec.artery.half_width

    def test_unknown_keys_rejected(self, tmp_path):
        spec = flat_spec(size=8.0)
        save_phantom(spec, tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["surprise"] = 1
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_phantom(tmp_path / "p.json")

    def test_phantom_is_not_a_phantom_key(self, tmp_path):
        """The top level's keys are PhantomSpec's parameters, not the section names."""
        save_phantom(flat_spec(size=8.0), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["phantom"] = 1
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in 'phantom': \['phantom'\]"):
            load_phantom(tmp_path / "p.json")

    def test_bad_json_rejected(self, tmp_path):
        (tmp_path / "p.json").write_text("{not json")
        with pytest.raises(ConfigError):
            load_phantom(tmp_path / "p.json")

    def test_missing_mesh_file(self, tmp_path):
        spec = flat_spec(size=8.0)
        save_phantom(spec, tmp_path / "p.json")
        (tmp_path / "mesh.obj").unlink()
        with pytest.raises(OSError):
            load_phantom(tmp_path / "p.json")


class TestPresets:
    def test_multimodal_bumps_inside_mapped_roi(self):
        spec = multimodal_phantom()
        inverse = spec.true_transform.inverse()
        for bump in spec.bumps:
            x, y = bump.center
            verts = spec.mesh.vertices
            d2 = (verts[:, 0] - x) ** 2 + (verts[:, 1] - y) ** 2
            z = verts[np.argmin(d2), 2]
            tool = inverse.apply(np.array([x, y, z]))
            assert 0.0 < tool[0] < 40.0
            assert 0.0 < tool[1] < 40.0

    def test_artery_crosses_roi(self):
        spec = artery_phantom()
        poly = np.asarray(spec.artery.polyline)
        assert np.all(poly >= 0.0) and np.all(poly <= 60.0)

    def test_fields_positive(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-30, 80, (500, 2))
        for spec in (multimodal_phantom(), artery_phantom()):
            assert np.all(stiffness_field(spec, pts) > 0.0)


def _select_next(prior_variance):
    grid = np.array([[0.0, 0.0], [1.0, 0.0]])
    return select_next(Prediction(np.zeros(2), np.ones(2)), grid, np.zeros(2, dtype=bool), 0.0,
                       1, SamplingPolicy(), np.random.default_rng(0), prior_variance)


_NAN, _INF = float("nan"), float("inf")
# each builds one value with a NaN, or an inf where a finite value is required,
# and must fail with the message of the check it breaks
_NON_FINITE = {
    "angle-nan": (lambda: CMUConfig(normal_angle_deg=_NAN), "normal_angle_deg must be > 0"),
    "angle-inf": (lambda: CMUConfig(normal_angle_deg=_INF), "normal_angle_deg must be > 0"),
    "force-difference-nan": (lambda: CMUConfig(min_force_difference_n=_NAN),
                             "min_force_difference_n must be > 0"),
    "tolerance-nan": (lambda: CMUConfig(convergence_tolerance_mm=_NAN),
                      "convergence_tolerance_mm must be > 0"),
    "position-sigma-nan": (lambda: NoiseSpec(position_sigma_mm=_NAN),
                           "position_sigma_mm must be >= 0"),
    "position-sigma-inf": (lambda: NoiseSpec(position_sigma_mm=_INF),
                           "position_sigma_mm must be >= 0"),
    "force-sigma-nan": (lambda: NoiseSpec(force_sigma_n=_NAN), "force_sigma_n must be >= 0"),
    "force-sigma-inf": (lambda: NoiseSpec(force_sigma_n=_INF), "force_sigma_n must be >= 0"),
    "bump-nan": (lambda: StiffnessBump((0.0, 0.0), _NAN, 3.0), "bump amplitude must be >= 0"),
    "bump-inf": (lambda: StiffnessBump((0.0, 0.0), _INF, 3.0), "bump amplitude must be >= 0"),
    "artery-nan": (lambda: ArteryRidge(((0.0, 0.0), (1.0, 0.0)), 2.0, _NAN),
                   "artery amplitude must be >= 0"),
    "artery-inf": (lambda: ArteryRidge(((0.0, 0.0), (1.0, 0.0)), 2.0, _INF),
                   "artery amplitude must be >= 0"),
    "baseline-nan": (lambda: flat_spec(baseline=_NAN), "baseline_stiffness must be > 0"),
    "baseline-inf": (lambda: flat_spec(baseline=_INF), "baseline_stiffness must be > 0"),
    "depth-increment-nan": (lambda: ProbeConfig(depth_increment_mm=_NAN),
                            "depth_increment_mm must be > 0"),
    "max-depth-nan": (lambda: ProbeConfig(max_depth_mm=_NAN), "max_depth_mm must be > 0"),
    "spacing-nan": (lambda: ROI(0.0, 10.0, 0.0, 10.0, _NAN), "spacing must be finite"),
    "spacing-inf": (lambda: ROI(0.0, 10.0, 0.0, 10.0, _INF), "spacing must be finite"),
    "prior-variance-nan": (lambda: _select_next(_NAN), "prior_variance must be > 0"),
    "prior-variance-inf": (lambda: _select_next(_INF), "prior_variance must be > 0"),
    "exploration-period-nan": (lambda: SamplingPolicy(exploration_period=_NAN),
                               "exploration_period must be a positive integer"),
    "restarts-nan": (lambda: default_seed_transforms(_NAN), "random_seeds must be an integer"),
    "max-iterations-inf": (lambda: CMUConfig(max_iterations=_INF),
                           "max_iterations must be a positive integer"),
    "lattice-count-nan": (lambda: uniform_lattice(ROI(0.0, 10.0, 0.0, 10.0, 1.0), _NAN),
                          "lattice count must be an integer >= 1"),
    "lattice-count-inf": (lambda: uniform_lattice(ROI(0.0, 10.0, 0.0, 10.0, 1.0), _INF),
                          "lattice count must be an integer >= 1"),
    "lattice-count-fraction": (lambda: uniform_lattice(ROI(0.0, 10.0, 0.0, 10.0, 1.0), 2.5),
                               "lattice count must be an integer >= 1"),
    "transform-angle-inf": (lambda: make_transform(0.0, 0.0, 0.0, 0.0, _INF, 0.0),
                            "transform angles must be finite"),
    "transform-angle-nan": (lambda: make_transform(0.0, 0.0, 0.0, _NAN, 0.0, 0.0),
                            "transform angles must be finite"),
    "bump-center-nan": (lambda: StiffnessBump((_NAN, 0.0), 1.0, 3.0),
                        "bump center must be a finite 2D point"),
    "bump-center-inf": (lambda: StiffnessBump((0.0, _INF), 1.0, 3.0),
                        "bump center must be a finite 2D point"),
    "artery-polyline-nan": (lambda: ArteryRidge(((0.0, 0.0), (_NAN, 0.0)), 2.0, 1.0),
                            "artery polyline points must be finite"),
    "artery-polyline-inf": (lambda: ArteryRidge(((_INF, 0.0), (1.0, 0.0)), 2.0, 1.0),
                            "artery polyline points must be finite"),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE))
def test_validators_reject_non_finite(name):
    build, message = _NON_FINITE[name]
    with pytest.raises(InvalidInputError, match=message):
        build()
