import dataclasses

import numpy as np
import pytest

from palpmap.care import (CMUConfig, CompatibleSet, ProbeMeasurement,
                          SetCollector, cmu_register, collect_sets,
                          default_seed_transforms, estimate_stiffness)
from palpmap.errors import (DegenerateGeometryError, InsufficientDataError,
                            InvalidInputError)
from palpmap.geometry import make_transform
from palpmap.simulator import (NoiseSpec, PhantomSpec, ProbeConfig,
                               StiffnessBump, make_surface_mesh, probe)

from _oracles import slope_least_squares

UP = np.array([0.0, 0.0, 1.0])
SEEDS = default_seed_transforms()  # the default config's restart table


def meas(x, y, z, force, normal=UP):
    normal = np.asarray(normal, dtype=float)
    return ProbeMeasurement(position=np.array([x, y, z], dtype=float),
                            force=float(force),
                            sensed_normal=normal / np.linalg.norm(normal))


def column(x, y, stiffness=2.0, steps=5, start_force=None):
    """Fabricated vertical indentation column: depth k*0.3, force = c*depth."""
    out = []
    for k in range(1, steps + 1):
        depth = 0.3 * k
        out.append(meas(x, y, -depth, stiffness * depth))
    return out


class TestMeasurementValidation:
    def test_rejects_negative_force(self):
        with pytest.raises(InvalidInputError):
            meas(0, 0, 0, -0.1)

    def test_rejects_non_unit_normal(self):
        with pytest.raises(InvalidInputError):
            ProbeMeasurement(position=np.zeros(3), force=1.0,
                             sensed_normal=np.array([0.0, 0.0, 2.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            ProbeMeasurement(position=np.zeros(2), force=1.0, sensed_normal=UP)


class TestGrouping:
    def test_single_column_one_set(self):
        ms = column(5.0, 5.0)
        sets = collect_sets(ms, CMUConfig())
        assert len(sets) == 1
        assert sets[0].member_indices == tuple(range(5))

    def test_reference_is_min_force(self):
        ms = column(5.0, 5.0)
        sets = collect_sets(ms, CMUConfig())
        assert sets[0].reference_index == 0
        assert np.allclose(sets[0].location, [5.0, 5.0])

    def test_distant_columns_stay_separate(self):
        ms = column(0.0, 0.0) + column(5.0, 0.0)
        sets = collect_sets(ms, CMUConfig())
        assert len(sets) == 2
        assert sets[0].member_indices == tuple(range(5))
        assert sets[1].member_indices == tuple(range(5, 10))

    def test_tangent_threshold(self):
        near = [meas(0, 0, -0.3, 0.6), meas(0.8, 0, -0.6, 1.2)]
        far = [meas(0, 0, -0.3, 0.6), meas(1.3, 0, -0.6, 1.2)]
        assert len(collect_sets(near, CMUConfig())) == 1
        assert len(collect_sets(far, CMUConfig())) == 0  # two singletons

    def test_tangent_distance_is_in_plane(self):
        # second point offset only along the anchor normal: tangent dist 0
        ms = [meas(0, 0, -0.3, 0.6), meas(0, 0, -3.0, 6.0)]
        assert len(collect_sets(ms, CMUConfig())) == 1

    def test_force_difference_required(self):
        flat = [meas(0, 0, -0.3, 1.00), meas(0, 0, -0.31, 1.04)]
        okay = [meas(0, 0, -0.3, 1.00), meas(0, 0, -0.33, 1.06)]
        assert len(collect_sets(flat, CMUConfig())) == 0
        assert len(collect_sets(okay, CMUConfig())) == 1

    def test_normal_angle_threshold(self):
        tilted_ok = [meas(0, 0, -0.3, 0.6),
                     meas(0, 0, -0.6, 1.2, normal=[np.sin(np.radians(8)), 0,
                                                   np.cos(np.radians(8))])]
        tilted_bad = [meas(0, 0, -0.3, 0.6),
                      meas(0, 0, -0.6, 1.2, normal=[np.sin(np.radians(12)), 0,
                                                    np.cos(np.radians(12))])]
        assert len(collect_sets(tilted_ok, CMUConfig())) == 1
        assert len(collect_sets(tilted_bad, CMUConfig())) == 0

    def test_greedy_first_match(self):
        # two open sets both compatible: joins the first-created one
        ms = [meas(0, 0, -0.3, 0.6), meas(0.6, 0, -0.3, 0.6),
              meas(0.3, 0, -0.6, 1.2)]
        sets = collect_sets(ms, CMUConfig())
        assert len(sets) == 1
        assert sets[0].member_indices == (0, 2)

    def test_pairwise_coherence_within_double_thresholds(self):
        # greedy anchor grouping guarantees pairwise agreement only up to 2x
        rng = np.random.default_rng(0)
        ms = []
        for _ in range(120):
            x, y = rng.uniform(0, 6, 2)
            ms.extend(column(x, y, stiffness=rng.uniform(1, 3), steps=3))
        config = CMUConfig()
        for cset in collect_sets(ms, config):
            members = [ms[i] for i in cset.member_indices]
            for a in members:
                for b in members:
                    diff = b.position - a.position
                    along = float(diff @ a.sensed_normal)
                    tangent = diff - along * a.sensed_normal
                    assert np.linalg.norm(tangent) <= 2.0 * config.tangent_distance_mm + 1e-9

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(1)
        ms = []
        for _ in range(40):
            x, y = rng.uniform(0, 5, 2)
            ms.extend(column(x, y, stiffness=rng.uniform(1, 3), steps=3))
        config = CMUConfig()
        collector = SetCollector(config)
        for m in ms:
            collector.add(m)
        incremental = collector.sets()
        batch = collect_sets(ms, config)
        assert len(incremental) == len(batch)
        for a, b in zip(incremental, batch):
            assert a.member_indices == b.member_indices
            assert a.reference_index == b.reference_index

    def test_sets_rebuilt_only_when_changed(self):
        """After every add the cached sets equal a fresh grouping, in slot
        order, and a set whose slot was not touched is reused."""
        config = CMUConfig()
        script = (column(0.0, 0.0, steps=3)           # set 0
                  + [meas(10.0, 0.0, 0.0, 1.0)]       # a singleton slot
                  + column(20.0, 0.0, steps=3)        # set 1
                  + [meas(0.0, 0.1, 0.0, 0.1)]        # lowest force of set 0: reference moves
                  + [meas(10.0, 0.1, -0.3, 2.0)])     # singleton slot 1 becomes a set
        collector = SetCollector(config)
        history = [[]]
        reused = 0
        for n, m in enumerate(script, start=1):
            collector.add(m)
            previous = history[-1]
            current = collector.sets()
            fresh = collect_sets(script[:n], config)
            assert len(current) == len(fresh)
            for a, b in zip(current, fresh):
                assert (a.member_indices, a.reference_index) == \
                    (b.member_indices, b.reference_index)
                assert np.array_equal(a.location, b.location)
                same = [p for p in previous if (p.member_indices, p.reference_index)
                        == (a.member_indices, a.reference_index)]
                assert (same and same[0] is a) or not any(p is a for p in previous)
                reused += bool(same)
            history.append(current)
        assert reused > 0
        final, before = history[-1], history[-2]
        assert [s.member_indices for s in final] == [(0, 1, 2, 7), (3, 8), (4, 5, 6)]
        assert final[0].reference_index == 7
        assert np.array_equal(final[0].location, [0.0, 0.1])
        # the singleton's slot became a set ahead of the later set, which kept its object
        assert [s.member_indices for s in before] == [(0, 1, 2, 7), (4, 5, 6)]
        assert final[2] is before[1]

    def test_set_validation(self):
        with pytest.raises(InvalidInputError):
            CompatibleSet(member_indices=(3,), reference_index=3,
                          location=np.zeros(2))
        with pytest.raises(InvalidInputError):
            CompatibleSet(member_indices=(1, 2), reference_index=5,
                          location=np.zeros(2))


class TestStiffnessEstimate:
    def build(self, depths, forces):
        ms = [meas(0, 0, -d, f) for d, f in zip(depths, forces)]
        ref = int(np.argmin(forces))
        cset = CompatibleSet(member_indices=tuple(range(len(ms))),
                             reference_index=ref,
                             location=ms[ref].position[:2])
        return cset, ms

    def test_exact_linear(self):
        depths = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
        forces = 0.5 + 2.5 * depths
        cset, ms = self.build(depths, forces)
        sample = estimate_stiffness(cset, ms)
        assert abs(sample.stiffness - 2.5) < 1e-12
        assert not sample.degenerate

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            depths = np.sort(rng.uniform(0, 3, 8))
            depths[0] = 0.0
            forces = 1.0 + 2.0 * depths + rng.normal(0, 0.05, 8)
            forces = np.abs(forces)
            cset, ms = self.build(depths, forces)
            sample = estimate_stiffness(cset, ms)
            # depths in the estimator are distances from the min-force member
            ref = int(np.argmin(forces))
            d_ref = np.abs(depths - depths[ref])
            expected = slope_least_squares(d_ref, forces)
            if expected >= 1e-6:
                assert abs(sample.stiffness - expected) < 1e-12

    def test_intercept_does_not_bias_slope(self):
        depths = np.array([0.0, 0.5, 1.0, 1.5])
        cset, ms = self.build(depths, 3.0 + 1.5 * depths)
        assert abs(estimate_stiffness(cset, ms).stiffness - 1.5) < 1e-12

    def test_negative_slope_clamped_degenerate(self):
        # min-force member sits at one end but the fit slope is negative
        # (forces collapse with distance after an early spike)
        depths = np.array([0.0, 0.5, 1.0, 1.5])
        forces = np.array([1.0, 5.0, 4.0, 1.1])
        cset, ms = self.build(depths, forces)
        sample = estimate_stiffness(cset, ms)
        assert sample.degenerate
        assert sample.stiffness == pytest.approx(1e-6)

    def test_zero_depth_span_degenerate(self):
        ms = [meas(0, 0, -0.3, 0.5), meas(0, 0, -0.3, 1.0)]
        cset = CompatibleSet(member_indices=(0, 1), reference_index=0,
                             location=np.zeros(2))
        sample = estimate_stiffness(cset, ms)
        assert sample.degenerate and sample.stiffness == 1e-6


class TestSeedTransforms:
    def test_identity_first(self):
        seeds = default_seed_transforms()
        assert len(seeds) == 11
        assert np.array_equal(seeds[0].rotation, np.eye(3))
        assert np.array_equal(seeds[0].translation, np.zeros(3))

    def test_deterministic(self):
        a = default_seed_transforms()
        b = default_seed_transforms()
        for s, t in zip(a, b):
            assert np.array_equal(s.rotation, t.rotation)
            assert np.array_equal(s.translation, t.translation)

    def test_ranges(self):
        for seed in default_seed_transforms(random_seeds=50)[1:]:
            assert np.all(np.abs(seed.translation) <= 10.0)
            assert np.all(np.abs(seed.euler_deg()) <= 15.0 + 1e-9)


def knolly_mesh():
    def height(x, y):
        return (6.0 * np.exp(-((x - 12.0) ** 2 + (y - 10.0) ** 2) / 72.0)
                - 4.0 * np.exp(-((x - 30.0) ** 2 + (y - 28.0) ** 2) / 98.0)
                + 5.0 * np.exp(-((x - 10.0) ** 2 + (y - 32.0) ** 2) / 60.0)
                + 0.05 * x - 0.03 * y)

    return make_surface_mesh(-25.0, 65.0, -25.0, 65.0, 4.0, height)


def probed_phantom(true_transform):
    mesh = knolly_mesh()
    spec = PhantomSpec(mesh=mesh, baseline_stiffness=1.5,
                       bumps=(StiffnessBump(center=(15.0, 15.0), amplitude=1.0,
                                            radius=6.0),),
                       artery=None, true_transform=true_transform)
    rng = np.random.default_rng(0)
    measurements = []
    for x in np.linspace(2.0, 38.0, 5):
        for y in np.linspace(2.0, 38.0, 5):
            measurements.extend(probe(spec, (x, y), ProbeConfig(), NoiseSpec(),
                                      rng))
    return spec, measurements


class TestRegistration:
    def test_recovers_known_transform(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        # default iteration cap stops short of full convergence; raise it so
        # a single cold call settles
        config = dataclasses.replace(CMUConfig(), max_iterations=500)
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)
        assert np.all(np.abs(result.transform.translation - truth.translation)
                      < 0.1)
        angles = np.array(result.transform.euler_deg()) - np.array(truth.euler_deg())
        assert np.all(np.abs(angles) < 0.15)
        assert len(result.per_seed) == len(SEEDS)

    def test_recovers_known_transform_at_default_cap(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        config = CMUConfig()
        assert config.max_iterations == 50
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)
        assert np.all(np.abs(result.transform.translation - truth.translation)
                      < 0.01)
        angles = np.array(result.transform.euler_deg()) - np.array(truth.euler_deg())
        assert np.all(np.abs(angles) < 0.01)
        assert result.converged
        assert all(outcome.converged for outcome in result.per_seed)

    def test_capped_seeds_are_not_converged(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        # one step cannot settle any seed from 5 mm and 5 deg away
        config = dataclasses.replace(CMUConfig(), max_iterations=1)
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)
        assert not result.converged
        for outcome in result.per_seed:
            assert outcome.iterations == 1
            assert not outcome.converged

    def test_batched_seeds_match_seeds_registered_alone(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        # at a cap of 6 the 11 default seeds stop in all three ways: seeds 0,
        # 7 and 9 when the objective stops falling, 3 and 5 at the cap, the
        # rest by the tolerance (1, 2 and 8 on their sixth step)
        config = dataclasses.replace(CMUConfig(), max_iterations=6)
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)
        assert {outcome.converged for outcome in result.per_seed} == {True, False}
        for seed, outcome in zip(SEEDS, result.per_seed):
            alone = cmu_register(samples, spec.mesh, measurements, (seed,), config)
            single = alone.per_seed[0]
            assert np.array_equal(outcome.transform.rotation, single.transform.rotation)
            assert np.array_equal(outcome.transform.translation,
                                  single.transform.translation)
            assert outcome.objective == single.objective
            assert outcome.iterations == single.iterations
            assert outcome.converged == single.converged

    def test_collinear_reference_points_rejected(self):
        truth = make_transform(0, 0, 0, 0, 0, 0)
        spec, _ = probed_phantom(truth)
        measurements = []
        for x in (2.0, 6.0, 10.0, 14.0):
            measurements.extend(column(x, 5.0))
        config = CMUConfig()
        sets = collect_sets(measurements, config)
        assert len(sets) == 4
        samples = [estimate_stiffness(s, measurements) for s in sets]
        with pytest.raises(DegenerateGeometryError):
            cmu_register(samples, spec.mesh, measurements, SEEDS, config)

    def test_no_seed_worse_than_start(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        config = CMUConfig()
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)

        refs = np.array([measurements[s.reference_index].position for s in sets])
        forces = np.array([measurements[s.reference_index].force for s in sets])
        stiffness = np.array([smp.stiffness for smp in samples])
        offsets = forces / stiffness
        for seed, outcome in zip(SEEDS, result.per_seed):
            moved = seed.apply(refs)
            surf, normals = spec.mesh.closest_points(moved)[:2]
            targets = surf - normals * offsets[:, None]
            start_obj = float(np.linalg.norm(targets - moved, axis=1).sum())
            assert outcome.objective <= start_obj + 1e-9

    def test_winner_is_min_objective(self):
        truth = make_transform(2.0, -3.0, 4.0, 5.0, -4.0, 3.0)
        spec, measurements = probed_phantom(truth)
        config = CMUConfig()
        sets = collect_sets(measurements, config)
        samples = [estimate_stiffness(s, measurements) for s in sets]
        result = cmu_register(samples, spec.mesh, measurements, SEEDS, config)
        assert result.objective == min(o.objective for o in result.per_seed)

    def test_insufficient_sets(self):
        truth = make_transform(0, 0, 0, 0, 0, 0)
        spec, measurements = probed_phantom(truth)
        config = CMUConfig()
        sets = collect_sets(measurements, config)[:2]
        samples = [estimate_stiffness(s, measurements) for s in sets]
        with pytest.raises(InsufficientDataError):
            cmu_register(samples, spec.mesh, measurements, SEEDS, config)

    def test_no_seeds_rejected(self):
        truth = make_transform(0, 0, 0, 0, 0, 0)
        spec, measurements = probed_phantom(truth)
        config = CMUConfig()
        samples = [estimate_stiffness(s, measurements)
                   for s in collect_sets(measurements, config)]
        with pytest.raises(InvalidInputError, match="at least one seed"):
            cmu_register(samples, spec.mesh, measurements, (), config)
