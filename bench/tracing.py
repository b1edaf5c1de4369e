"""Spans, counters and the latency arithmetic of the palpmap benchmark.

Everything here wraps palpmap from the outside: `Tracer.wrap` swaps a name
the engine calls for a timing wrapper and `Tracer.uninstall` puts the
originals back. No palpmap source is changed. Spans are kept in memory with
their parent, so a layer's self time is its span time minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MIN_BEYOND = 10  # samples a tail percentile must leave beyond it


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def update_gaps(calls: Sequence[float], returns: Sequence[float],
                first: int, last: int) -> List[float]:
    """Idle times between probes: call k+1 minus return k, for first <= k < last.

    `first` is the index of the last startup probe, so the first gap holds
    the first closed-loop update; `last` is the index of the run's final probe.
    """
    return [calls[k + 1] - returns[k] for k in range(first, last)]


def pooled_updates(repeats_by_seed: Sequence[Sequence[Sequence[float]]]) -> List[float]:
    """Update times of every seed, each the median over that seed's repeats.

    Repeats of one seed do the same work update by update, so a stretch of
    slow updates in one repeat drops out; seeds are different inputs, so
    their updates are pooled.
    """
    return [statistics.median(times) for repeats in repeats_by_seed
            for times in zip(*repeats)]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    tag: Optional[str] = None
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of the intervals its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


@dataclass
class Tracer:
    """In-memory span recorder with named counters."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: List[int] = field(default_factory=list)
    _patches: List[Tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str, tag: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, tag))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] += amount

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None, tag: Optional[Callable] = None):
        """Replace owner.attr by a wrapper that records span `name`.

        `after(tracer, args, kwargs, result, exc)` adds counters once the call
        ends; `tag(args, kwargs)` labels the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name, tag(args, kwargs) if tag else None)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.close(index)
                self.count(f"{name}.calls")
                if after is not None:
                    after(self, args, kwargs, result, exc)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] += own
        return dict(totals)

    def time_by_tag(self, name: str) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                totals[span.tag or ""] += span.duration
        return dict(totals)


# ---------------------------------------------------------------------------
# The palpmap layers
# ---------------------------------------------------------------------------

@dataclass
class ProbeClock:
    """Timestamps of every `palpmap.cli.probe` call and return (the untraced hook)."""

    calls: List[float] = field(default_factory=list)
    returns: List[float] = field(default_factory=list)

    def clear(self):
        self.calls.clear()
        self.returns.clear()


def clock_probe(tracer: Tracer, probe_clock: ProbeClock):
    """Wrap `palpmap.cli.probe` to record its call and return times.

    This is the only hook of an untraced run. The patch is registered with
    `tracer`, so `tracer.uninstall()` removes it with the others.
    """
    from palpmap import cli

    original = cli.probe

    @functools.wraps(original)
    def timed(*args, **kwargs):
        probe_clock.calls.append(tracer.clock())
        try:
            return original(*args, **kwargs)
        finally:
            probe_clock.returns.append(tracer.clock())

    tracer._patches.append((cli, "probe", original))
    cli.probe = timed


def _closest_points(tracer, args, kwargs, result, exc):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    tracer.count("geometry.closest_points.points", len(queries))


def _cmu_register(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    config = args[4] if len(args) > 4 else kwargs["config"]
    cap = config.max_iterations
    runs = result.per_seed
    tracer.count("care.cmu_register.iterations", sum(s.iterations for s in runs))
    tracer.count("care.cmu_register.seed_runs", len(runs))
    tracer.count("care.cmu_register.seed_cap_hits",
                 sum(1 for s in runs if s.iterations >= cap))
    tracer.count("care.cmu_register.cap_hits", 1 if result.iterations >= cap else 0)


def _estimate_stiffness(tracer, args, kwargs, result, exc):
    from palpmap.errors import DegenerateGeometryError

    if isinstance(exc, DegenerateGeometryError) or (exc is None and result.degenerate):
        tracer.count("care.estimate_stiffness.degenerate")


def _gp_fit(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    tracer.count("gp.gp_fit.n_sum", len(result.training))
    if result.jitter_used != result.params.jitter:
        tracer.count("gp.gp_fit.jitter_escalations")


def _gp_predict(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    model = args[0] if args else kwargs["model"]
    tracer.count("gp.gp_predict.kernel_entries",
                 result.mean.shape[0] * len(model.training))


def _select_next(tracer, args, kwargs, result, exc):
    step = args[4] if len(args) > 4 else kwargs["probe_count"]
    policy = args[5] if len(args) > 5 else kwargs["policy"]
    if step > 0 and step % policy.exploration_period == 0:
        tracer.count("acquisition.select_next.explore_steps")


def _write_run_outputs(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("cli.write_run_outputs.bytes",
                     sum(p.stat().st_size for p in result.iterdir() if p.is_file()))


def _strategy(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    return strategy or args[0].strategy


def install_layers(tracer: Tracer, probe_clock: ProbeClock):
    """Wrap every layer boundary the engine crosses (the traced run)."""
    from palpmap import care, cli, geometry

    tracer.wrap(cli, "execute_experiment", "cli.execute_experiment", tag=_strategy)
    tracer.wrap(cli, "load_phantom", "simulator.load_phantom")
    clock_probe(tracer, probe_clock)
    tracer.wrap(cli, "probe", "simulator.probe")
    tracer.wrap(care.SetCollector, "add", "care.SetCollector.add")
    tracer.wrap(care.SetCollector, "sets", "care.SetCollector.sets")
    tracer.wrap(cli, "estimate_stiffness", "care.estimate_stiffness",
                after=_estimate_stiffness)
    tracer.wrap(cli, "cmu_register", "care.cmu_register", after=_cmu_register)
    tracer.wrap(care, "rigid_fit_svd", "geometry.rigid_fit_svd")
    tracer.wrap(geometry.TriMesh, "closest_points", "geometry.closest_points",
                after=_closest_points)
    tracer.wrap(cli, "gp_fit", "gp.gp_fit", after=_gp_fit)
    tracer.wrap(cli, "gp_predict", "gp.gp_predict", after=_gp_predict)
    tracer.wrap(cli, "select_next", "acquisition.select_next", after=_select_next)
    tracer.wrap(cli, "_ground_truth_map", "cli.ground_truth_map")
    tracer.wrap(cli, "write_run_outputs", "cli.write_run_outputs",
                after=_write_run_outputs)
