#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

One load-generating process drives the public API of ``src/repro`` with the
program's defaults, from closed-loop client threads (each sends its next
request when the previous one returns).  A run:

1. imports the program and sets it up ``SETUP_REPS`` times (construct the
   service, warm it), reporting the median as ``setup_s`` (plus the import);
2. runs one untimed warm-up cycle;
3. runs the timed phases for ``--seconds`` in total;
4. checks the outputs the timed phases produced (see ``checks.py``);
5. prints every metric by name with its unit, then, as the last line, one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: every one but
``parallel_speedup`` from one-client cycles, interleaved two to one with
cycles of the workload's contrast form for ``parallel_speedup``
(``Workload.parallel_speedup``).  ``--trace 1`` reports the per-layer
metrics: an untraced phase, then a phase with the timing wrappers of
``layers.py`` installed, both with the workload's own client count.

The exit code is 0 only if every op succeeded and every output check
passed.  See ``README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Longest a phase may run past its deadline before the run is abandoned.
PHASE_GRACE_SECONDS = 60.0


@dataclass
class Record:
    """One op as a client saw it."""

    phase: str
    index: int
    start: float
    end: float
    ok: bool
    output: object = None
    error: str = ""


class Stream:
    """Hands op indices to the clients of one phase.

    Stops at the first cycle boundary after the deadline (and always runs
    at least one cycle), or when the phase's pregenerated ops run out.
    """

    def __init__(self, start: int, stop: int, cycle: int, deadline: float):
        self._next, self._start, self._stop = start, start, stop
        self._cycle, self._deadline = cycle, deadline
        self._lock = threading.Lock()
        self._stopped = False

    @property
    def position(self) -> int:
        """The first index not handed out."""
        return self._next

    def take(self) -> int | None:
        with self._lock:
            index = self._next
            at_boundary = index > self._start and (index - self._start) % self._cycle == 0
            if (
                self._stopped
                or index >= self._stop
                or (at_boundary and time.perf_counter() >= self._deadline)
            ):
                self._stopped = True
                return None
            self._next += 1
            return index


def run_phase(workload, name, states, start, seconds, tracer=None):
    """Closed loop of one thread per client state over the ops from ``start``.

    Returns (records, elapsed seconds, index the next phase starts at).
    ``seconds=0`` runs exactly one cycle.
    """
    records: list[Record] = []
    lock = threading.Lock()
    began = time.perf_counter()
    stream = Stream(start, workload.capacity, workload.cycle, began + seconds)

    def loop(state) -> None:
        while (index := stream.take()) is not None:
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(index, start)
            try:
                record = Record(name, index, start, 0.0, True, workload.run_op(state, index))
            except Exception as exc:  # an op failure is a result, not a crash
                record = Record(name, index, start, 0.0, False, error=f"{type(exc).__name__}: {exc}")
            record.end = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            with lock:
                records.append(record)

    threads = [threading.Thread(target=loop, args=(s,), daemon=True) for s in states]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, began + seconds + PHASE_GRACE_SECONDS - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError(f"phase {name!r} did not finish within its grace period")
    elapsed = max((r.end for r in records), default=began) - began
    return records, elapsed, stream.position


@dataclass
class Phase:
    """The outcome of one timed phase."""

    records: list[Record]
    elapsed: float
    #: ``Workload.counters()`` accumulated over the phase.
    counts: dict
    clients: int
    tracer: object = None

    @property
    def rate(self) -> float:
        """Successful ops per second."""
        return sum(1 for r in self.records if r.ok) / self.elapsed if self.elapsed > 0 else 0.0


def traced_phases(workload, seconds, position, layers) -> dict[str, Phase]:
    """``--trace 1``: an untraced phase (40%), then a traced one (60%), both
    with the workload's own client count."""
    phases: dict[str, Phase] = {}
    for name, share in (("untraced", 0.4), ("traced", 0.6)):
        states = [workload.new_client(c, name) for c in range(workload.clients)]
        tracer = layers.LayerTracer().install() if name == "traced" else None
        workload.tracer = tracer
        before = workload.counters()
        try:
            records, elapsed, position = run_phase(
                workload, name, states, position, seconds * share, tracer
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.tracer = None
        counts = counter_delta(before, workload.counters())
        phases[name] = Phase(records, elapsed, counts, len(states), tracer)
    return phases


def untraced_phases(workload, seconds, position) -> dict[str, Phase]:
    """``--trace 0``: one-client cycles ("main"), interleaved two to one with
    cycles of the workload's contrast form ("contrast", see
    ``Workload.parallel_speedup``) when it has one.

    Interleaving cycle by cycle lets both forms see the same state of a
    shared host, which otherwise moves their throughput ratio by ±20%.
    The end-to-end metrics other than ``parallel_speedup`` come from the
    one-client cycles, where an op's latency is its service time.
    """
    deadline = time.perf_counter() + seconds
    contrast = workload.contrast_clients()
    states = {"main": [workload.new_client(0, "main")]}
    pattern = ["main"]
    if contrast is not None:
        states["contrast"] = [workload.new_client(c, "contrast") for c in range(contrast)]
        pattern = ["main", "main", "contrast"]
    phases = {name: Phase([], 0.0, {}, len(states[name])) for name in states}
    before = workload.counters()
    turn = 0
    while time.perf_counter() < deadline and position < workload.capacity:
        name = pattern[turn % len(pattern)]
        turn += 1
        records, elapsed, position = run_phase(workload, name, states[name], position, 0.0)
        phases[name].records += records
        phases[name].elapsed += elapsed
    # Counters cover both forms: the broker does not tell them apart.
    phases["main"].counts = counter_delta(before, workload.counters())
    return phases


def host_record(calibration_models) -> dict:
    import numpy

    from repro.simulator.cost_model import SimulationCostModel

    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_profile_consulted": len(calibration_models),
        "calibration_profile_loaded": any(
            model != SimulationCostModel() for model in calibration_models
        ),
    }


def watch_calibration() -> list:
    """Record every cost model ``load_calibrated_model`` hands out."""
    import repro.calibrate as calibrate

    models: list = []
    original = calibrate.load_calibrated_model

    def load_calibrated_model(*args, **kwargs):
        model = original(*args, **kwargs)
        models.append(model)
        return model

    calibrate.load_calibrated_model = load_calibrated_model
    return models


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (timed: the import is part of set-up)

    import_seconds = time.perf_counter() - started

    import numpy as np

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    calibration_models = watch_calibration()
    nproc = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[args.workload](args.seed, nproc)

    setup_times = []
    for _ in range(SETUP_REPS):
        workload.close()
        workload.prepare_setup()
        workloads.fresh_caches()
        began = time.perf_counter()
        workload.set_up()
        setup_times.append(time.perf_counter() - began)

    # Freeze what set-up left alive (imports, the service, the pregenerated
    # inputs: up to ~200k objects for cold-mix) so a full garbage
    # collection during the timed phases scans only what the phases
    # allocate, not the load generator's inputs.
    gc.collect()
    gc.freeze()
    # One untimed cycle first; the timed phases continue the op stream
    # where it stopped.
    warm_states = [workload.new_client(c, "warm-up") for c in range(workload.clients)]
    _, _, position = run_phase(workload, "warm-up", warm_states, 0, 0.0)
    if args.trace:
        phases = traced_phases(workload, args.seconds, position, layers)
    else:
        phases = untraced_phases(workload, args.seconds, position)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [r for phase in phases.values() for r in phase.records]
    errors = workload.output_errors(records, np.random.default_rng(args.seed + 7919))
    workload.close()
    failed = {p for p, r in enumerate(records) if not r.ok} | set(errors)

    first = next(iter(phases.values()))
    latencies = [r.end - r.start for r in first.records if r.ok]
    tail_percentile, tail_value = layers.tail_percentile(latencies, workload.tail_cap)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "phases": {
            name: {"clients": p.clients, "ops": len(p.records), "elapsed_s": p.elapsed}
            for name, p in phases.items()
        },
        "latency_tail_percentile": tail_percentile,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": layers.samples_beyond(len(latencies), tail_percentile),
        "failed_share": ratio(len(failed), len(records)),
        "import_s": import_seconds,
        "setup_reps_s": setup_times,
        "service_counters": first.counts,
    }
    if args.trace == 0:
        speedup = workload.parallel_speedup(first, phases.get("contrast"))
        metrics = {
            "ops_per_s": (first.rate, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "setup_s": (import_seconds + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "parallel_speedup": (speedup, "x"),
        }
    else:
        traced = phases["traced"]
        metrics = traced.tracer.metrics()
        metrics["trace.coverage"] = (
            traced.tracer.coverage(
                {r.index: (r.start, r.end) for r in traced.records if r.ok},
                single_client=traced.clients == 1,
            ),
            "ratio",
        )
        metrics["trace.overhead"] = (ratio(first.rate, traced.rate) - 1.0, "ratio")
        counts = traced.counts
        metrics["service.cache.hit_ratio"] = (
            ratio(counts["cache_hits"], counts["submitted"]),
            "ratio",
        )
        metrics["service.shots.executed_over_served"] = (
            ratio(counts["executed_shots"], counts["served_shots"]),
            "ratio",
        )
        metrics["service.batching.coalesced_share"] = (
            ratio(counts["coalesced"], counts["submitted"]),
            "ratio",
        )
        for key, value in first.counts.items():
            if key != "submitted":
                metrics[f"service.metrics.{key}"] = (value, "count")

    print("host: " + json.dumps(host_record(calibration_models), sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    for position in sorted(failed):
        record = records[position]
        reasons = errors.get(position) or [record.error]
        print(f"FAILED {record.phase} op {record.index}: {'; '.join(reasons)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
