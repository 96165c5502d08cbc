"""Gate-by-gate reference execution for the fixed-seed identity tests.

Runs exactly what the accelerator did before compiled plans existed: the
IR pass pipeline, then ``StateVector.apply`` per instruction and
``ParallelSimulationEngine.sample_parallel`` over the measured qubits, or
``run_trajectories`` for circuits with mid-circuit ``RESET``.  Plan-based
execution must reproduce its seeded counts bit for bit.
"""

from __future__ import annotations

from repro.config import get_config
from repro.ir.transforms import default_pass_manager
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.statevector import StateVector


def gate_by_gate_counts(circuit, width, shots, threads=None, optimize=True):
    """``(counts, depth, n_gates)`` of the gate-by-gate path at the config seed."""
    seed = get_config().seed
    if optimize:
        circuit = default_pass_manager().run(circuit)
    engine = ParallelSimulationEngine(num_threads=threads)
    try:
        if any(inst.name == "RESET" for inst in circuit):
            counts = engine.run_trajectories(width, circuit, shots, seed=seed)
        else:
            state = StateVector(width)
            for instruction in circuit:
                if not instruction.is_measurement:
                    state.apply(instruction)
            measured = circuit.measured_qubits() or tuple(range(width))
            counts = engine.sample_parallel(state, shots, measured, seed=seed)
    finally:
        engine.close()
    return counts, circuit.depth(), circuit.n_gates
