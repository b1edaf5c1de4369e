"""The closed loop's reuse of unchanged work equals recomputing everything.

A small closed-loop run is recorded probe by probe, edited so that a
singleton slot becomes a set mid-order, and replayed through the engine.
At every update the sets and the stiffness samples the engine used are
checked bit for bit against a from-scratch computation, the registration
against one not handed the previous result's closest-point neighbourhoods,
and the GP prediction against a fresh fit predicted without a cache to
1e-9: a grown Cholesky factor equals a refactorized one only to rounding.
"""

import dataclasses

import numpy as np
import pytest

from palpmap import care, cli, geometry, gp
from palpmap.care import ProbeMeasurement, estimate_stiffness
from palpmap.make_demo import write_demo

from _oracles import grouped

UP = np.array([0.0, 0.0, 1.0])


def _far(x, force):
    """A measurement away from every probed column (no set accepts it)."""
    return ProbeMeasurement(position=np.array([x, -100.0, 0.0]), force=force,
                            sensed_normal=UP)


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("reuse")
    config = cli.load_config(write_demo(root) / "config.json")
    # a 3 mm, 20 degree grouping window lets neighbouring probes join earlier
    # sets, so sets grow and their references (GP inputs) move
    return dataclasses.replace(
        config, budget=12, roi=dataclasses.replace(config.roi, spacing=2.0),
        cmu=dataclasses.replace(config.cmu, tangent_distance_mm=3.0, normal_angle_deg=20.0))


def _record(config, monkeypatch):
    recorded = []
    original = cli.probe

    def recording(*args, **kwargs):
        recorded.append(original(*args, **kwargs))
        return recorded[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "probe", recording)
        cli.execute_experiment(config)
    return recorded


def _same_set(a, b):
    return (a.member_indices == b.member_indices
            and a.reference_index == b.reference_index
            and np.array_equal(a.location, b.location))


def _same_sample(a, b):
    return (a.stiffness == b.stiffness and a.cset is b.cset
            and a.degenerate == b.degenerate)


def _registration_key(result):
    """Every field of a RegistrationResult, the per-seed table included, as bytes and numbers."""
    def outcome(o):
        return (o.transform.rotation.tobytes(), o.transform.translation.tobytes(),
                o.objective, o.iterations, o.converged)
    return outcome(result), [outcome(o) for o in result.per_seed]


def _references(samples):
    return [s.cset.reference_index for s in samples if not s.degenerate]


def _tree_queries(monkeypatch):
    """Record the query points of each k-d tree ball search, per call."""
    calls = []
    original = geometry._ball_lists

    def recording(tree, points, radii):
        calls.append({tuple(p) for p in points})
        return original(tree, points, radii)

    monkeypatch.setattr(geometry, "_ball_lists", recording)
    return calls


def test_replayed_run_reuse_equals_recomputation(demo_config, monkeypatch):
    recorded = _record(demo_config, monkeypatch)
    # a lone measurement opens a singleton slot after the 3rd probe; the
    # last probe adds a second member, so a set appears before later sets
    script = recorded[:3] + [[_far(0.0, 1.0)]] + recorded[3:] + [[_far(0.1, 2.0)]]
    config = dataclasses.replace(demo_config, budget=demo_config.budget + 2)

    replayed = []     # the measurements replayed so far
    history = []      # each update's sets
    estimated = []    # sets estimate_stiffness was called for
    evaluated = []    # kernel columns evaluated, and used, per prediction
    extended = []     # rows appended to the previous factor, per fit that kept it
    registered = []   # each registration's reference measurement indices
    returned = []     # each registration's result
    untouched = []    # per registration: did the tree skip some first-round row
    original_sets = care.SetCollector.sets
    original_estimate = cli.estimate_stiffness
    original_register = cli.cmu_register
    original_fit = cli.gp_fit
    original_predict = cli.gp_predict
    original_kernel = gp.kernel_matrix

    def replay(*args, **kwargs):
        sensed = script.pop(0)
        replayed.extend(sensed)
        return sensed

    def sets(self):
        out = original_sets(self)
        with monkeypatch.context() as patch:  # grouped calls sets itself
            patch.setattr(care.SetCollector, "sets", original_sets)
            fresh = grouped(replayed, demo_config.cmu)
        assert len(out) == len(fresh)
        assert all(_same_set(a, b) for a, b in zip(out, fresh))
        history.append(out)
        return out

    def estimate(cset, measurements):
        estimated.append(cset)
        return original_estimate(cset, measurements)

    def register(samples, mesh, measurements, seeds, config, previous=None):
        # one sample per set of this update, in slot order, each for its set
        assert len(samples) == len(history[-1])
        for sample, cset in zip(samples, history[-1]):
            assert _same_sample(sample, estimate_stiffness(cset, measurements))
        # each update is handed the last one's result, whose rows are
        # exactly the references the last winner scored, on this mesh; a
        # set whose reference changed is searched from the tree in the
        # first round, from every seed
        assert previous is (returned[-1] if returned else None)
        references = _references(samples)
        rows = np.full(len(references), -1)
        if previous is not None:
            assert previous.neighbourhoods.mesh is mesh
            assert sorted(previous.neighbourhood_rows) == sorted(registered[-1])
            rows = np.array([previous.neighbourhood_rows.get(r, -1) for r in references])
        assert np.array_equal(rows >= 0, np.isin(references, registered[-1:]))
        points = np.asarray([measurements[r].position for r in references])
        with monkeypatch.context() as patch:
            tree = _tree_queries(patch)
            warm = original_register(samples, mesh, measurements, seeds, config,
                                     previous=previous)
        for seed in seeds:
            assert {tuple(p) for p in seed.apply(points)[rows < 0]} <= tree[0]
        untouched.append(len(tree[0]) < len(seeds) * len(references))
        cold = original_register(samples, mesh, measurements, seeds, config)
        assert _registration_key(warm) == _registration_key(cold)
        registered.append(references)
        returned.append(warm)
        return warm

    def fit(training, params, previous=None):
        columns = []

        def kernel(params, a, b):
            columns.append(np.asarray(b).shape[0])
            return original_kernel(params, a, b)

        with monkeypatch.context() as patch:
            patch.setattr(gp, "kernel_matrix", kernel)
            model = original_fit(training, params, previous)
        if max(columns) < len(training):  # the kernel only against appended inputs
            extended.append(len(training) - len(previous.training))
        return model

    def predict(model, queries, cache=None):
        columns = []

        def kernel(params, a, b):
            columns.append(np.asarray(b).shape[0])
            return original_kernel(params, a, b)

        with monkeypatch.context() as patch:
            patch.setattr(gp, "kernel_matrix", kernel)
            reused = original_predict(model, queries, cache)
        evaluated.append((sum(columns), len(model.training)))
        cold = original_predict(gp.gp_fit(model.training, model.params), queries)
        assert np.allclose(reused.mean, cold.mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(reused.variance, cold.variance, rtol=1e-9, atol=1e-9)
        return reused

    monkeypatch.setattr(cli, "probe", replay)
    monkeypatch.setattr(care.SetCollector, "sets", sets)
    monkeypatch.setattr(cli, "estimate_stiffness", estimate)
    monkeypatch.setattr(cli, "cmu_register", register)
    monkeypatch.setattr(cli, "gp_fit", fit)
    monkeypatch.setattr(cli, "gp_predict", predict)
    cli.execute_experiment(config)

    assert script == []
    assert len(history) == config.budget + 1

    # the run covers every way a set can change between updates
    moved = grown = mid_order = 0
    for before, after in zip(history, history[1:]):
        by_anchor = {s.member_indices[0]: s for s in before}
        for position, cset in enumerate(after):
            old = by_anchor.get(cset.member_indices[0])
            if old is None:  # a new set listed ahead of an earlier one
                mid_order += position < len(before)
            else:
                grown += old.member_indices != cset.member_indices
                moved += old.reference_index != cset.reference_index
    assert moved > 0 and grown > 0 and mid_order > 0

    # and reuse happened: stiffness only for new or changed sets, the grid
    # kernel only against new inputs (in full only when an input moved), and
    # at least half the updates kept the GP factor, reused or grown by block
    # append (this run moves an input at 4 of its 15 updates)
    changed = sum(1 for before, after in zip([[]] + history, history)
                  for cset in after
                  if not any(cset is old for old in before))
    assert len(estimated) == changed < sum(len(sets) for sets in history)
    assert sum(e for e, _ in evaluated) < sum(u for _, u in evaluated)
    assert 2 * len(extended) >= len(history) and max(extended) > 0
    # and every warm-started update skipped the tree for some carried row
    assert not untouched[0] and all(untouched[1:-1])


def test_carrier_starts_over_on_another_mesh(demo_config, monkeypatch):
    """A previous result offers its neighbourhoods on its own mesh only; the
    run's trace keeps no neighbourhood table."""
    art = cli.execute_experiment(dataclasses.replace(demo_config, budget=2))
    assert all(reg.neighbourhoods is None and reg.neighbourhood_rows is None
               for _, reg in art.trace)
    mesh = art.phantom.mesh
    twin = geometry.TriMesh(mesh.vertices, mesh.faces)
    references = _references(art.samples)
    seeds = (art.trace[-1][1].transform,)
    args = (art.samples, mesh, art.measurements, seeds, demo_config.cmu)
    previous = care.cmu_register(*args)
    cold = _registration_key(previous)
    assert previous.neighbourhoods.mesh is mesh
    assert sorted(previous.neighbourhood_rows) == sorted(references)

    tree = _tree_queries(monkeypatch)
    again = care.cmu_register(*args, previous=previous)
    assert _registration_key(again) == cold
    assert len(tree[0]) < len(references)  # the same mesh: carried rows skip the tree
    tree.clear()
    on_twin = care.cmu_register(art.samples, twin, art.measurements, seeds,
                                demo_config.cmu, previous=previous)
    assert _registration_key(on_twin) == cold
    assert len(tree[0]) == len(references)  # another mesh: every row searches the tree
    assert on_twin.neighbourhoods.mesh is twin and again.neighbourhoods.mesh is mesh
