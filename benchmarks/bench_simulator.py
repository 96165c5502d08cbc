"""Substrate benchmarks — raw simulator and compiler throughput.

These do not correspond to a figure in the paper; they characterise the
building blocks (the Quantum++-replacement state-vector engine, the XASM
compiler and the IR optimiser) so regressions in the substrate are visible
independently of the figure-level results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.compiler.parser import compile_xasm
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.ir.transforms import default_pass_manager
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.statevector import StateVector

_BELL_SOURCE = """
H(q[0]);
CX(q[0], q[1]);
for (int i = 0; i < q.size(); i++) {
  Measure(q[i]);
}
"""


@pytest.mark.parametrize("n_qubits", [8, 12, 16], ids=lambda n: f"{n}q")
def test_ghz_statevector_evolution(benchmark, n_qubits):
    """Dense evolution of an n-qubit GHZ preparation circuit."""
    circuit = CircuitBuilder(n_qubits).h(0).build()
    for target in range(1, n_qubits):
        circuit.add(CircuitBuilder(n_qubits).cx(target - 1, target).build())

    def run():
        state = StateVector(n_qubits)
        state.apply_circuit(circuit)
        return state

    benchmark(run)


@pytest.mark.parametrize("n_qubits", [6, 10], ids=lambda n: f"{n}q")
def test_qft_statevector_evolution(benchmark, n_qubits):
    """Dense evolution of the QFT (quadratic gate count in width)."""
    circuit = qft_circuit(n_qubits)

    def run():
        state = StateVector(n_qubits)
        state.apply_circuit(circuit)
        return state

    benchmark(run)


def test_shor_period_finding_simulation(benchmark):
    """Full SHOR(N=15, a=2) kernel: the paper's Figure 4 unit of work."""
    circuit = period_finding_circuit(15, 2)

    def run():
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit.without_measurements())
        return state.sample(10)

    benchmark(run)


@pytest.mark.parametrize("n_qubits", [6, 10], ids=lambda n: f"{n}q")
def test_qft_plan_replay(benchmark, n_qubits):
    """QFT evolution through a pre-compiled execution plan (vs the naive
    gate-by-gate numbers from test_qft_statevector_evolution)."""
    plan = compile_plan(qft_circuit(n_qubits), n_qubits)

    def run():
        return plan.execute(plan.new_state())

    benchmark(run)


def test_parametric_ansatz_plan_rebind(benchmark):
    """One optimiser iteration: re-bind the cached plan's rotations + replay."""
    n_qubits, layers = 8, 3
    builder = CircuitBuilder(n_qubits, name="hwe_ansatz")
    names = []
    for layer in range(layers):
        for qubit in range(n_qubits):
            name = f"t{layer}_{qubit}"
            names.append(name)
            builder.ry(qubit, Parameter(name))
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    circuit = builder.build()
    plan = compile_parametric_plan(circuit, n_qubits)
    values = [0.1 * i for i in range(len(names))]

    def iteration():
        bound = plan.bind(values)
        return bound.execute(bound.new_state())

    benchmark(iteration)


@pytest.mark.parametrize(
    "n_qubits, measured",
    [(16, "all"), (16, "half"), (20, "all")],
    ids=["16q-all", "16q-half", "20q-all"],
)
def test_sample_parallel(benchmark, n_qubits, measured):
    """The ``sample`` stage alone: 1024 shots from a seeded random dense
    state at the default thread count (no replay in the timed region)."""
    rng = np.random.default_rng(n_qubits)
    amplitudes = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    state = StateVector(n_qubits, data=amplitudes / np.linalg.norm(amplitudes))
    qubits = range(n_qubits) if measured == "all" else range(0, n_qubits, 2)
    with ParallelSimulationEngine() as engine:
        counts = benchmark(engine.sample_parallel, state, 1024, tuple(qubits), 7)
    assert sum(counts.values()) == 1024


def test_xasm_compilation_throughput(benchmark):
    """Compiling the Listing 1 Bell kernel from XASM text."""
    benchmark(compile_xasm, _BELL_SOURCE, "q", 2)


def test_ir_optimisation_throughput(benchmark):
    """Default pass-manager over a redundant 200-gate circuit."""
    builder = CircuitBuilder(4)
    for i in range(50):
        builder.h(i % 4).h(i % 4).rz(i % 4, 0.1).rz(i % 4, -0.1)
    circuit = builder.build()
    manager = default_pass_manager()
    out = benchmark(manager.run, circuit)
    assert out.n_instructions < circuit.n_instructions
