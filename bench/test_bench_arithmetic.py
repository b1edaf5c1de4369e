"""Tests of the benchmark's own arithmetic: percentiles, update gaps, self times.

Run from the repository root with `python3 -m pytest bench`.
"""

import json
import time

import pytest

import run
from tracing import (MIN_BEYOND, Span, Tracer, percentile, pooled_updates,
                     samples_beyond, self_times, update_gaps)


def test_percentile_nearest_rank_and_sample_count():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 100) == 100.0
    # p90 is the highest whole percentile that keeps 10 of 100 samples beyond it
    assert samples_beyond(100, 90) == MIN_BEYOND
    assert samples_beyond(100, 91) == MIN_BEYOND - 1
    assert samples_beyond(300, 90) == 30
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(10, 1) == 9
    with pytest.raises(ValueError):
        percentile([], 50)


def test_update_gaps_skip_startup_and_final_update():
    calls = [0.0, 1.0, 2.0, 10.0, 20.0]
    returns = [0.5, 1.5, 2.5, 10.5, 20.5]
    # startup probes 0..2: the first gap is the update after probe 2
    assert update_gaps(calls, returns, 2, 4) == [7.5, 9.5]


def test_repeats_of_a_seed_give_each_update_its_median():
    # seed A ran three times, with a slow stretch in its first repeat; seed B once
    seed_a = [[1.0, 9.0, 9.0, 1.0], [1.0, 2.0, 2.0, 1.0], [1.0, 3.0, 2.0, 1.0]]
    seed_b = [[4.0, 5.0]]
    assert pooled_updates([seed_a, seed_b]) == [1.0, 3.0, 2.0, 1.0, 4.0, 5.0]
    # two repeats: the mean of the two, not the faster one
    assert pooled_updates([[[1.0], [3.0]]]) == [2.0]


def _tracer_with_times(times):
    ticks = iter(times)
    return Tracer(clock=lambda: next(ticks))


def test_self_time_with_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    tracer = _tracer_with_times([0, 1, 2, 3, 4, 5, 9, 10, 11])
    root = tracer.open("root")
    a = tracer.open("a")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert self_times(tracer.spans) == [3, 2, 1, 4]
    assert tracer.self_time_by_name() == {"root": 3, "a": 2, "leaf": 1, "b": 4}
    with pytest.raises(RuntimeError):
        tracer.open("x")
        tracer.close(root)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, None, end=10.0),
             Span("c1", 1.0, 0, end=5.0),
             Span("c2", 4.0, 0, end=6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


class _Layers:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        if i < 0:
            raise ValueError(i)
        return i


def test_wrap_records_parents_counters_and_restores():
    original = _Layers.outer
    tracer = Tracer()
    tracer.wrap(_Layers, "outer", "outer")
    tracer.wrap(_Layers, "inner", "inner",
                after=lambda t, args, kwargs, result, exc: t.count("inner.sum", result or 0))
    try:
        start = time.perf_counter()
        root = tracer.open("root")
        assert _Layers().outer(4) == 6
        with pytest.raises(ValueError):
            _Layers().inner(-1)
        tracer.close(root)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert _Layers.outer is original
    assert tracer.counters["outer.calls"] == 1
    assert tracer.counters["inner.calls"] == 5
    assert tracer.counters["inner.sum"] == 6
    names = [s.name for s in tracer.spans]
    assert names == ["root", "outer"] + ["inner"] * 4 + ["inner"]
    assert all(tracer.spans[s.parent].name == "outer"
               for s in tracer.spans[2:6])
    assert tracer.spans[6].parent == 0
    own = tracer.self_time_by_name()
    assert all(v >= 0.0 for v in own.values())
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)
    assert sum(own.values()) <= wall


def _tiny_inputs(directory, seed):
    from palpmap.simulator import artery_phantom, save_phantom

    directory.mkdir(parents=True, exist_ok=True)
    save_phantom(artery_phantom(), directory / "phantom.json")
    doc = {"phantom": "phantom.json",
           "roi": {"xmin": 0.0, "xmax": 24.0, "ymin": 0.0, "ymax": 24.0,
                   "spacing": 3.0},
           "budget": 4, "output_dir": "out", "master_seed": seed}
    (directory / "config.json").write_text(json.dumps(doc))
    return directory / "config.json"


def test_traced_layers_add_up_to_no_more_than_wall(tmp_path):
    run.import_palpmap()
    from workloads import Workload

    tiny = Workload(name="tiny", write_inputs=_tiny_inputs, compare=True,
                    probes_per_run=23, rms_bound_mm=1.2, seeds_per_run=1)
    lines = []
    result = run.traced(tiny, 3, _tiny_inputs(tmp_path, 3), lines.append)
    assert result["correct"], lines
    assert result["attempted"] == 2 and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.metric_names("per_layer")}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= metrics["trace.wall_s"] * (1 + 1e-9)
    assert metrics["simulator.probe.calls"] == 2 * 23
    # 4 EI updates plus the final one, then one batch update for uniform
    assert metrics["care.cmu_register.calls"] == 6
    assert metrics["gp.gp_predict.kernel_entries"] > 0
    assert any("cli.execute_experiment[uniform]" in line for line in lines)


def test_repeats_of_a_seed_must_match_byte_for_byte():
    runs = [run.Experiment(seed=1, wall_s=1.0, cpu_s=1.0, outputs={"r": b"a"}),
            run.Experiment(seed=2, wall_s=1.0, cpu_s=1.0, outputs={"r": b"b"}),
            run.Experiment(seed=1, wall_s=1.0, cpu_s=1.0, outputs={"r": b"a"}),
            run.Experiment(seed=2, wall_s=1.0, cpu_s=1.0, outputs={"r": b"c"})]
    run.check_identical(runs)
    assert [bool(r.problems) for r in runs] == [False, False, False, True]


def test_untraced_reports_exactly_the_end_to_end_metrics(tmp_path):
    run.import_palpmap()
    from workloads import Workload

    tiny = Workload(name="tiny", write_inputs=_tiny_inputs, compare=False,
                    probes_per_run=23, rms_bound_mm=1.2, seeds_per_run=1)
    lines = []
    result = run.untraced(tiny, {3: _tiny_inputs(tmp_path, 3)}, 0.0, lines.append)
    assert result["attempted"] == 1 and result["failed"] == 0, lines
    # 4 updates leave too few samples beyond p90, so the run is not correct
    assert not result["correct"]
    emitted = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert emitted == run.metric_names("end_to_end")
    assert all(v["value"] > 0.0 for v in result["metrics"].values())
