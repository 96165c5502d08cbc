"""Timing wrappers for the traced run: per-layer spans from outside the program.

The program under test carries no benchmark-specific tracing.  For the traced
run, :class:`LayerTracer` replaces each layer's public entry point with a
wrapper that records a span (start, end, calling thread) and restores the
original on :meth:`LayerTracer.uninstall`.  Functions that a caller imported
by name (``broker.py`` does ``from .keys import job_key``) are patched in the
*caller's* module, because that is where the call looks the name up.

A wrapper's self time is its span minus the spans of wrappers nested inside
it on the same thread.  Spans with no enclosing wrapper on their thread are
*top-level*; they are attributed to the benchmark operation ("op") that
caused them, which gives ``trace.coverage``: the share of op latency covered
by top-level layer spans.  Attribution follows the work across threads:

* on a client thread, the op the client is running;
* on a dispatcher thread, the ops whose jobs sit in the batch that
  ``BatchingJobQueue.get`` last returned there (the time a job spent in
  the queue counts as a ``service.queue`` span);
* on a ``qcor_async`` worker, the op of the thread that launched it.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
import time
from collections import defaultdict

import numpy as np

#: ``(metric prefix, module path, owner attribute or None, attribute)``.
#: ``owner`` names a class inside the module; ``None`` patches a module-level
#: name.  Several rows may share a prefix when one function is imported by
#: name into several callers.
SPANS = (
    ("service.keys.job_key", "repro.service.broker", None, "job_key"),
    ("service.cache.lookup", "repro.service.cache", "ResultCache", "lookup"),
    ("service.cache.peek", "repro.service.cache", "ResultCache", "peek"),
    ("service.cache.top_up", "repro.service.cache", "ResultCache", "top_up"),
    ("service.cache.subsample_counts", "repro.service.broker", None, "subsample_counts"),
    ("service.admission.admit", "repro.service.admission", "AdmissionController", "admit"),
    ("ir.clifford.classify_clifford", "repro.service.broker", None, "classify_clifford"),
    ("ir.clifford.classify_clifford", "repro.exec.stabilizer", None, "classify_clifford"),
    ("exec.stabilizer.execute", "repro.exec.stabilizer", "StabilizerBackend", "execute"),
    ("simulator.plan_cache.lookup_or_compile", "repro.simulator.plan_cache", "PlanCache", "lookup_or_compile"),
    ("simulator.statevector.apply_plan", "repro.simulator.statevector", "StateVector", "apply_plan"),
    ("simulator.parallel_engine.sample_parallel", "repro.simulator.parallel_engine", "ParallelSimulationEngine", "sample_parallel"),
    ("exec.local.execute", "repro.exec.backend", "LocalBackend", "execute"),
    ("exec.local.execute_sweep", "repro.exec.backend", "LocalBackend", "execute_sweep"),
    ("exec.local.expectation_sweep", "repro.exec.backend", "LocalBackend", "expectation_sweep"),
    ("runtime.qpp.execute", "repro.runtime.qpp_accelerator", "QppAccelerator", "execute"),
    ("core.api.initialize", "repro.core.executor", None, "initialize"),
    ("core.api.initialize", "repro.core.threading_api", None, "initialize"),
    ("core.api.initialize", "repro.service.dispatcher", None, "initialize"),
    ("core.qpu_manager.get_qpu", "repro.core.qpu_manager", "QPUManager", "get_qpu"),
    ("core.qpu_manager.set_qpu", "repro.core.qpu_manager", "QPUManager", "set_qpu"),
)

#: Every span prefix, in report order (each reports calls, self_ms, p50_us).
SPAN_NAMES = tuple(dict.fromkeys(row[0] for row in SPANS))


def _resolve(module_path: str, owner: str | None):
    import importlib

    module = importlib.import_module(module_path)
    return module if owner is None else getattr(module, owner)


class LayerTracer:
    """Records layer spans while installed; computes the per-layer metrics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: name -> list of (duration, self time) in seconds.
        self.calls: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: (ops tuple or None, start, end) of every top-level span.
        self.top_spans: list[tuple[tuple | None, float, float]] = []
        #: (duration, was_hit) per plan-cache lookup.
        self.plan_lookups: list[tuple[float, bool]] = []
        #: (state bytes x plan steps, duration) per plan replay.
        self.replays: list[tuple[int, float]] = []
        self.routes: dict[str, int] = defaultdict(int)
        self.queue_waits: list[float] = []
        self.launches: list[float] = []
        #: id(handle) -> (handle, ops, submit time, put time) between put and get.
        self._queued: dict[int, tuple] = {}

    # -- client-side context ---------------------------------------------------------
    def begin_op(self, op_id: int, submit_time: float) -> None:
        self._local.ops = (op_id,)
        self._local.submit_time = submit_time

    def mark_submit(self) -> None:
        """The calling client submits to the queue now (queue wait starts)."""
        self._local.submit_time = time.perf_counter()

    def end_op(self) -> None:
        self._local.ops = None

    # -- installation ----------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        result_hooks = {
            "simulator.plan_cache.lookup_or_compile": self._on_plan_lookup,
            "simulator.statevector.apply_plan": self._on_replay,
        }
        for name, module_path, owner, attr in SPANS:
            target = _resolve(module_path, owner)
            original = target.__dict__[attr]
            self._patch(target, attr, self._timed(name, original, result_hooks.get(name)))
        from repro.core import executor
        from repro.service.batching import BatchingJobQueue
        from repro.simulator.cost_model import SimulationCostModel

        self._patch(BatchingJobQueue, "put", self._hook_put(BatchingJobQueue.put))
        self._patch(BatchingJobQueue, "get", self._hook_get(BatchingJobQueue.get))
        self._patch(
            SimulationCostModel,
            "choose_backend",
            self._hook_route(SimulationCostModel.choose_backend),
        )
        self._patch(executor, "qcor_async", self._hook_launch(executor.qcor_async))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------------
    def _timed(self, name: str, fn, on_result=None):
        local = self._local
        calls = self.calls[name]
        top_spans = self.top_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                else:
                    top_spans.append((getattr(local, "ops", None), start, end))
                calls.append((duration, duration - frame[0]))
            if on_result is not None:
                on_result(args, result, duration)
            return result

        return wrapper

    def _on_plan_lookup(self, args, result, duration: float) -> None:
        self.plan_lookups.append((duration, bool(result[1])))

    def _on_replay(self, args, result, duration: float) -> None:
        state, plan = args[0], args[1]
        self.replays.append((state.data.nbytes * plan.n_steps, duration))

    def _hook_put(self, original):
        local, queued = self._local, self._queued

        @functools.wraps(original)
        def put(queue, handle, *args, **kwargs):
            now = time.perf_counter()
            queued[id(handle)] = (
                handle,
                getattr(local, "ops", None),
                getattr(local, "submit_time", now),
                now,
            )
            return original(queue, handle, *args, **kwargs)

        return put

    def _hook_get(self, original):
        local, queued = self._local, self._queued

        @functools.wraps(original)
        def get(queue, *args, **kwargs):
            local.ops = None
            batch = original(queue, *args, **kwargs)
            if batch is None:
                return batch
            now = time.perf_counter()
            ops: set = set()
            for handle in batch.handles:
                entry = queued.pop(id(handle), None)
                if entry is None or entry[1] is None:
                    continue
                _, handle_ops, submit_time, put_time = entry
                ops.update(handle_ops)
                self.queue_waits.append(now - submit_time)
                self.top_spans.append((handle_ops, put_time, now))
            local.ops = tuple(ops) if ops else None
            return batch

        return get

    def _hook_route(self, original):
        routes = self.routes

        @functools.wraps(original)
        def choose_backend(model, classification, *args, **kwargs):
            method = original(model, classification, *args, **kwargs)
            routes[method] += 1
            if method == "stabilizer" and classification.n_qubits < 16:
                routes["stabilizer_below_16q"] += 1
            return method

        return choose_backend

    def _hook_launch(self, original):
        local, launches = self._local, self.launches

        @functools.wraps(original)
        def qcor_async(target, *args, **kwargs):
            ops = getattr(local, "ops", None)
            called = time.perf_counter()

            def launched(*a, **k):
                launches.append(time.perf_counter() - called)
                local.ops = ops
                try:
                    return target(*a, **k)
                finally:
                    local.ops = None

            return original(launched, *args, **kwargs)

        return qcor_async

    # -- metrics ---------------------------------------------------------------------
    def coverage(self, ops: dict[int, tuple[float, float]], single_client: bool) -> float:
        """Share of op latency covered by the union of top-level spans.

        ``ops`` maps op id -> (start, end).  Spans no hook could attribute
        (e.g. the per-thread ``initialize`` a ``qcor_async`` worker runs
        before its target) are attributed by time window, but only when a
        single client ran, where the window is unambiguous.
        """
        intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
        windows = sorted((start, end, op_id) for op_id, (start, end) in ops.items())
        starts = [w[0] for w in windows]
        for span_ops, start, end in self.top_spans:
            if span_ops is not None:
                for op_id in span_ops:
                    if op_id in ops:
                        intervals[op_id].append((start, end))
            elif single_client and windows:
                index = bisect.bisect_right(starts, end) - 1
                while index >= 0 and windows[index][1] > start:
                    intervals[windows[index][2]].append((start, end))
                    index -= 1
        covered = total = 0.0
        for op_id, (op_start, op_end) in ops.items():
            total += op_end - op_start
            cursor = op_start
            for start, end in sorted(intervals.get(op_id, ())):
                start, end = max(start, cursor), min(end, op_end)
                if end > start:
                    covered += end - start
                    cursor = end
        return covered / total if total > 0 else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-span stats plus the derived layer ratios, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            records = self.calls.get(name, [])
            out[f"{name}.calls"] = (len(records), "count")
            out[f"{name}.self_ms"] = (sum(r[1] for r in records) * 1e3, "ms")
            p50 = float(np.median([r[0] for r in records])) * 1e6 if records else 0.0
            out[f"{name}.p50_us"] = (p50, "us")
        lookups = self.plan_lookups
        hits = sum(1 for _, hit in lookups if hit)
        out["simulator.plan_cache.lookup_or_compile.hit_ratio"] = (
            hits / len(lookups) if lookups else 0.0,
            "ratio",
        )
        out["simulator.plan_cache.lookup_or_compile.miss_ms"] = (
            sum(d for d, hit in lookups if not hit) * 1e3,
            "ms",
        )
        replay_seconds = sum(d for _, d in self.replays)
        out["simulator.statevector.apply_plan.computed_gb_per_s"] = (
            sum(b for b, _ in self.replays) / replay_seconds / 1e9 if replay_seconds else 0.0,
            "GB/s",
        )
        out["route.tableau_jobs"] = (self.routes["stabilizer"], "count")
        out["route.dense_jobs"] = (self.routes["statevector"], "count")
        out["route.tableau_jobs_below_16q"] = (self.routes["stabilizer_below_16q"], "count")
        waits = sorted(self.queue_waits)
        out["service.queue_wait_ms.p50"] = (
            float(np.median(waits)) * 1e3 if waits else 0.0,
            "ms",
        )
        tail = tail_percentile(waits)
        out["service.queue_wait_ms.tail"] = (tail[1] * 1e3, "ms")
        out["core.threading.launch_ms"] = (
            float(np.median(self.launches)) * 1e3 if self.launches else 0.0,
            "ms",
        )
        return out


#: Percentiles the tail metrics choose from, highest first.
TAIL_LADDER = (99.9, 99.0, 97.5, 95.0, 92.5, 90.0, 75.0, 50.0)


def samples_beyond(n: int, percentile: float) -> int:
    return n - math.ceil(n * percentile / 100 - 1e-9)


def tail_percentile(values, cap: float = 100.0) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile ≤ ``cap`` with at
    least ten samples beyond it (the median when no percentile qualifies)."""
    if not len(values):
        return 50.0, 0.0
    for percentile in TAIL_LADDER:
        if percentile <= cap and samples_beyond(len(values), percentile) >= 10:
            return percentile, float(np.percentile(values, percentile))
    return 50.0, float(np.percentile(values, 50.0))
