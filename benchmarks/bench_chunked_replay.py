"""Chunked-replay benchmark — chunk-parallel plan replay + diagonal batching.

Measures the two large-state execution-plan optimisations:

* **Chunk-parallel replay**: one deep 18-qubit circuit replayed serially vs
  replayed with every kernel split across a
  :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine` worker
  pool (the path `LocalBackend`, the sharded workers and `StateVector.run`
  all use for states at or above the chunk threshold).
* **Diagonal batching**: the QFT's CPHASE ladders collapsed into combined
  product-diagonal steps — reported as the plan step-count reduction.

Acceptance: chunked amplitudes must be **bitwise identical** to the serial
replay, the QFT step count must shrink, and fixed-seed counts must be
identical with and without the tuning knobs across bell/ghz/qft/shor/vqe on
every backend (local, density, sharded) — all enforced everywhere.  The
>= 1.5x chunked-replay speedup is enforced only on hosts with >= 4 CPU
cores (recorded on smaller hosts, where there is nothing to win).

Run standalone (writes the ``BENCH_chunked_replay.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_chunked_replay.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_chunked_replay.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.exec import DensityBackend, LocalBackend, ShardedExecutor
from repro.ir.builder import CircuitBuilder
from repro.simulator.execution_plan import compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine

SPEEDUP_TARGET = 1.5
#: The 1.5x chunked-replay target only binds where threads can win.
MIN_CORES_FOR_TARGET = 4
#: The regime the paper's scaling experiments target (2^18 amplitudes).
REPLAY_QUBITS = 18


def host_cores() -> int:
    return os.cpu_count() or 1


def threshold_enforced() -> bool:
    return host_cores() >= MIN_CORES_FOR_TARGET


# ---------------------------------------------------------------------------
# Workload: one deep large-state circuit, replayed serial vs chunked
# ---------------------------------------------------------------------------


def deep_circuit(n_qubits: int, layers: int):
    """RY layers + CX ladder + CPHASE ladder: hits the single, permutation
    and diagonal kernels (the CPHASE runs also exercise batching)."""
    builder = CircuitBuilder(n_qubits, name=f"deep_{n_qubits}q")
    for layer in range(layers):
        for qubit in range(n_qubits):
            builder.ry(qubit, 0.1 + 0.2 * layer + 0.05 * qubit)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
        for qubit in range(n_qubits - 1):
            builder.cphase(qubit, qubit + 1, 0.3 + 0.02 * qubit)
    return builder.build()


def _best_of(rounds: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def bench_chunked_replay(quick: bool) -> dict:
    layers = 3 if quick else 6
    rounds = 2 if quick else 4
    workers = min(4, max(2, host_cores()))
    circuit = deep_circuit(REPLAY_QUBITS, layers)
    plan = compile_plan(circuit, REPLAY_QUBITS)

    serial_state = plan.execute(plan.new_state())
    with ParallelSimulationEngine(num_threads=workers) as engine:
        chunked_state = plan.execute(plan.new_state(), pool=engine)
        bitwise_identical = bool(np.array_equal(serial_state, chunked_state))
        serial_seconds = _best_of(
            rounds, lambda: plan.execute(plan.new_state())
        )
        chunked_seconds = _best_of(
            rounds, lambda: plan.execute(plan.new_state(), pool=engine)
        )
    return {
        "workload": "single_state_replay",
        "n_qubits": REPLAY_QUBITS,
        "layers": layers,
        "plan_steps": plan.n_steps,
        "batched_diagonals": plan.batched_diagonals,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "chunked_seconds": chunked_seconds,
        "speedup": serial_seconds / chunked_seconds,
        "amplitudes_bitwise_identical": bitwise_identical,
        "target": SPEEDUP_TARGET,
        "target_enforced": threshold_enforced(),
    }


# ---------------------------------------------------------------------------
# Diagonal batching: QFT step-count reduction
# ---------------------------------------------------------------------------


def bench_qft_step_reduction(n_qubits: int = 16) -> dict:
    circuit = qft_circuit(n_qubits)
    unbatched = compile_plan(circuit, n_qubits, batch_diagonals=False)
    batched = compile_plan(circuit, n_qubits)
    return {
        "workload": "qft_diagonal_batching",
        "n_qubits": n_qubits,
        "unbatched_steps": unbatched.n_steps,
        "batched_steps": batched.n_steps,
        "diagonals_absorbed": batched.batched_diagonals,
        "step_reduction": 1.0 - batched.n_steps / unbatched.n_steps,
    }


# ---------------------------------------------------------------------------
# Acceptance identity: tuning knobs never move a count, on any backend
# ---------------------------------------------------------------------------


def algorithm_suite():
    shor = period_finding_circuit(15, 2)
    vqe = deuteron_ansatz_circuit(0.59)
    return {
        "bell": (bell_circuit(2), 2),
        "ghz": (ghz_circuit(5), 5),
        "qft": (qft_circuit(6), 6),
        "shor": (shor, shor.n_qubits),
        "vqe": (vqe, max(vqe.n_qubits, 2)),
    }


def check_identity(shots: int = 512, seed: int = 1234) -> dict:
    """Per backend: counts with the knobs at their defaults-off extreme
    (no batching, chunking disabled) vs fully on (batching + chunking
    forced).  Chunking is bitwise-neutral and batching is bit-exact from
    |0...0> on this suite, so the histograms must be identical — local,
    sharded and density (where the knobs are ignored) alike.  The density
    lane swaps in a 9-qubit Shor instance: density evolution is O(4^n) per
    gate, so the 12-qubit period-finding circuit would take minutes for a
    check that is backend-independent anyway."""
    off = {"batch-diagonals": False, "chunk-threshold": 1 << 30}
    on = {"batch-diagonals": True, "chunk-threshold": 2}
    small_shor = period_finding_circuit(7, 3)
    results: dict[str, dict[str, bool]] = {}

    local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
    density = DensityBackend()
    with ShardedExecutor(2, name="bench-chunk-identity") as sharded:
        for name, (circuit, width) in algorithm_suite().items():
            per_backend = {}
            for backend_name, backend in (
                ("local", local),
                ("sharded", sharded),
                ("density", density),
            ):
                if backend_name == "density" and name == "shor":
                    job, job_width = small_shor, small_shor.n_qubits
                else:
                    job, job_width = circuit, width
                reference = backend.execute(
                    job, shots, n_qubits=job_width, seed=seed, options=off
                )
                tuned = backend.execute(
                    job, shots, n_qubits=job_width, seed=seed, options=on
                )
                per_backend[backend_name] = dict(reference.counts) == dict(
                    tuned.counts
                )
            results[name] = per_backend
    local.close()
    return results


def run_suite(quick: bool = False) -> dict:
    identity = check_identity()
    identity_all = all(ok for algo in identity.values() for ok in algo.values())
    replay = bench_chunked_replay(quick)
    reduction = bench_qft_step_reduction()
    return {
        "benchmark": "chunked_replay",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": host_cores(),
        "results": [replay, reduction],
        "counts_identity": identity,
        "counts_identity_all": identity_all,
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_chunked_replay_speedup_and_identity():
    """Acceptance: bitwise amplitudes, QFT step reduction and cross-backend
    counts identity everywhere; >= 1.5x chunked replay on >= 4-core hosts.
    The JSON trajectory file lands either way."""
    report = run_suite(quick=True)
    write_trajectory_file(report, Path("BENCH_chunked_replay.json"))
    replay, reduction = report["results"]
    assert replay["amplitudes_bitwise_identical"]
    assert reduction["batched_steps"] < reduction["unbatched_steps"]
    assert reduction["diagonals_absorbed"] > 0
    assert report["counts_identity_all"], report["counts_identity"]
    print(
        f"\nchunked replay {replay['speedup']:.2f}x over serial at "
        f"{replay['n_qubits']} qubits ({replay['workers']} workers, "
        f"{report['cpu_count']} cores, target {SPEEDUP_TARGET}x "
        f"{'enforced' if replay['target_enforced'] else 'recorded only'}); "
        f"QFT steps {reduction['unbatched_steps']} -> {reduction['batched_steps']}"
    )
    if replay["target_enforced"]:
        assert replay["speedup"] >= SPEEDUP_TARGET, replay


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer layers/rounds")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_chunked_replay.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    replay, reduction = report["results"]
    enforced = "enforced" if replay["target_enforced"] else "recorded only"
    print(
        f"single-state replay: {replay['speedup']:.2f}x at {replay['n_qubits']} "
        f"qubits (target {SPEEDUP_TARGET}x, {enforced}; {replay['workers']} "
        f"workers on {report['cpu_count']} core(s)); bitwise identical: "
        f"{replay['amplitudes_bitwise_identical']}"
    )
    print(
        f"qft diagonal batching: {reduction['unbatched_steps']} -> "
        f"{reduction['batched_steps']} steps "
        f"({reduction['step_reduction']:.0%} fewer, "
        f"{reduction['diagonals_absorbed']} diagonals absorbed)"
    )
    print(f"counts identity (local/sharded/density): {report['counts_identity']}")
    print(f"wrote {args.output}")
    ok = (
        report["counts_identity_all"]
        and replay["amplitudes_bitwise_identical"]
        and reduction["batched_steps"] < reduction["unbatched_steps"]
    )
    if replay["target_enforced"]:
        ok = ok and replay["speedup"] >= SPEEDUP_TARGET
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
