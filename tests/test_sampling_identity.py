"""Byte-identity of the vectorised samplers against the reference samplers.

Every sampler that draws seeded counts — ``sample_counts``, the engine's
shot-split ``sample_parallel``, ``StateVector.sample``,
``DensityMatrix.sample``, per-shot trajectory sampling and the stabilizer
tableau — must return exactly the histogram the reference implementation
in ``sampling_oracle`` returns: the same keys, the same counts and the same
dict key order.  The error contract (which inputs raise ``ExecutionError``)
is pinned here too, as is the one-marginal-per-job property of
``sample_parallel``.
"""

import numpy as np
import pytest

import repro.simulator.parallel_engine as parallel_engine
import repro.simulator.statevector as statevector
import repro.simulator.density as density
import sampling_oracle as oracle
from repro.exceptions import ExecutionError
from repro.exec.stabilizer import StabilizerBackend, StabilizerTableau
from repro.ir.builder import CircuitBuilder
from repro.simulator.density import DensityMatrix
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.sampling import (
    bitstrings,
    marginal_probabilities,
    sample_counts,
)
from repro.simulator.statevector import StateVector

_KINDS = ("dense", "sparse", "single")
_MEASURED = ("all", "half", "unsorted")


def random_amplitudes(rng, n_qubits, kind):
    """A normalised random state: dense, ~70% zero amplitudes, or one basis state."""
    dim = 1 << n_qubits
    if kind == "single":
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[int(rng.integers(dim))] = 1.0
        return amplitudes
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if kind == "sparse":
        amplitudes[rng.random(dim) < 0.7] = 0.0
        amplitudes[int(rng.integers(dim))] += 1.0
    return amplitudes / np.linalg.norm(amplitudes)


def random_measured(rng, n_qubits, mode):
    """Measure-all, a sorted half subset, or an unsorted list with duplicates."""
    if mode == "all":
        return list(range(n_qubits))
    if mode == "half":
        size = max(1, n_qubits // 2)
        return sorted(rng.choice(n_qubits, size=size, replace=False).tolist())
    return rng.integers(0, n_qubits, size=int(rng.integers(1, n_qubits + 3))).tolist()


def dense_case(case, max_qubits=14):
    """``(amplitudes, n_qubits, measured, shots)`` for one seeded scenario."""
    rng = np.random.default_rng(case)
    n_qubits = int(rng.integers(1, max_qubits + 1))
    kind = _KINDS[case % 3]
    mode = _MEASURED[(case // 3) % 3]
    amplitudes = random_amplitudes(rng, n_qubits, kind)
    return amplitudes, n_qubits, random_measured(rng, n_qubits, mode), int(rng.integers(1, 3001))


def items(counts):
    return list(counts.items())


class TestDenseIdentity:
    @pytest.mark.parametrize("case", range(36))
    def test_sample_counts(self, case):
        amplitudes, n_qubits, measured, shots = dense_case(case)
        probabilities = np.abs(amplitudes) ** 2
        got = sample_counts(probabilities, shots, measured, n_qubits, np.random.default_rng(case))
        want = oracle.sample_counts(
            probabilities, shots, measured, n_qubits, np.random.default_rng(case)
        )
        assert items(got) == items(want)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", range(12))
    def test_sample_parallel(self, case, threads):
        amplitudes, n_qubits, measured, shots = dense_case(100 + case)
        state = StateVector(n_qubits, data=amplitudes)
        with ParallelSimulationEngine(num_threads=threads) as engine:
            got = engine.sample_parallel(state, shots, measured, seed=case)
        want = oracle.sample_parallel(
            state.probabilities(), n_qubits, shots, measured, case, threads
        )
        assert items(got) == items(want)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_sample_parallel_default_measures_all(self, threads):
        amplitudes = random_amplitudes(np.random.default_rng(5), 6, "dense")
        state = StateVector(6, data=amplitudes)
        with ParallelSimulationEngine(num_threads=threads) as engine:
            got = engine.sample_parallel(state, 777, seed=9)
        want = oracle.sample_parallel(state.probabilities(), 6, 777, None, 9, threads)
        assert items(got) == items(want)

    @pytest.mark.parametrize("case", range(9))
    def test_marginal_probabilities(self, case):
        amplitudes, n_qubits, measured, _ = dense_case(200 + case, max_qubits=10)
        qubits = tuple(measured)
        probabilities = np.abs(amplitudes) ** 2
        got = marginal_probabilities(probabilities, qubits, n_qubits)
        want = oracle.marginal_probabilities(probabilities, qubits, n_qubits)
        assert items(got) == items(want)

    @pytest.mark.parametrize("case", range(9))
    def test_statevector_sample(self, case, monkeypatch):
        amplitudes, n_qubits, measured, shots = dense_case(300 + case)
        state = StateVector(n_qubits, data=amplitudes)
        got = state.sample(shots, measured, np.random.default_rng(case))
        monkeypatch.setattr(statevector, "sample_counts", oracle.sample_counts)
        want = state.sample(shots, measured, np.random.default_rng(case))
        assert items(got) == items(want)

    @pytest.mark.parametrize("case", range(9))
    def test_density_matrix_sample(self, case, monkeypatch):
        rng = np.random.default_rng(400 + case)
        n_qubits = int(rng.integers(1, 7))
        weights = rng.random(3)
        weights /= weights.sum()
        pure = [random_amplitudes(rng, n_qubits, _KINDS[case % 3]) for _ in weights]
        rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, pure))
        matrix = DensityMatrix(n_qubits, data=rho)
        measured = random_measured(rng, n_qubits, _MEASURED[(case // 3) % 3])
        shots = int(rng.integers(1, 3001))
        got = matrix.sample(shots, measured, np.random.default_rng(case))
        monkeypatch.setattr(density, "sample_counts", oracle.sample_counts)
        want = matrix.sample(shots, measured, np.random.default_rng(case))
        assert items(got) == items(want)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("case", range(4))
    def test_trajectories_with_reset(self, case, threads, monkeypatch):
        rng = np.random.default_rng(500 + case)
        n_qubits = int(rng.integers(2, 9))
        builder = CircuitBuilder(n_qubits, name=f"reset_{case}")
        for _ in range(3 * n_qubits):
            q = int(rng.integers(n_qubits))
            choice = rng.random()
            if choice < 0.3:
                builder.h(q)
            elif choice < 0.6:
                builder.rx(q, float(rng.uniform(0, np.pi)))
            elif choice < 0.9:
                builder.cx(q, (q + 1) % n_qubits)
            else:
                builder.reset(q)
        builder.reset(0).h(0)
        for q in random_measured(rng, n_qubits, _MEASURED[case % 3]):
            builder.measure(q)
        circuit = builder.build()
        shots = int(rng.integers(1, 200))
        with ParallelSimulationEngine(num_threads=threads) as engine:
            got = engine.run_trajectories(n_qubits, circuit, shots, seed=case)
            monkeypatch.setattr(parallel_engine, "sample_counts", oracle.sample_counts)
            want = engine.run_trajectories(n_qubits, circuit, shots, seed=case)
        assert items(got) == items(want)


def random_clifford(rng, n_qubits, depth, entangle=True):
    """A random Clifford circuit measuring a random subset (or everything).

    With ``entangle=False`` it applies only X/CX/SWAP gates to the zero
    state, so every outcome is deterministic.
    """
    builder = CircuitBuilder(n_qubits, name=f"clifford_{rng.integers(1 << 30)}")
    single = ("h", "s", "sdg", "x", "y", "z") if entangle else ("x",)
    pairs = ("cx", "cz", "swap") if entangle else ("cx", "swap")
    for _ in range(depth):
        if n_qubits > 1 and rng.random() < 0.4:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            getattr(builder, rng.choice(pairs))(int(a), int(b))
        else:
            getattr(builder, rng.choice(single))(int(rng.integers(n_qubits)))
    if rng.random() < 0.5:
        builder.measure_all()
    else:
        for q in random_measured(rng, n_qubits, "unsorted"):
            builder.measure(q)
    return builder.build()


class TestTableauIdentity:
    @pytest.mark.parametrize("case", range(16))
    def test_stabilizer_backend_execute(self, case, monkeypatch):
        rng = np.random.default_rng(600 + case)
        n_qubits = int(rng.integers(1, 101))
        circuit = random_clifford(rng, n_qubits, depth=2 * n_qubits, entangle=case % 4 != 3)
        shots = int(rng.integers(1, 3001))
        backend = StabilizerBackend()
        got = backend.execute(circuit, shots, n_qubits=n_qubits, seed=case).counts
        monkeypatch.setattr(StabilizerTableau, "sample", oracle.tableau_sample)
        want = backend.execute(circuit, shots, n_qubits=n_qubits, seed=case).counts
        assert items(got) == items(want)

    def test_ghz_100_has_two_keys_in_order(self):
        builder = CircuitBuilder(100, name="ghz100").h(0)
        for q in range(99):
            builder.cx(q, q + 1)
        counts = StabilizerBackend().execute(builder.measure_all().build(), 1000, seed=3).counts
        assert list(counts) == ["0" * 100, "1" * 100]
        assert sum(counts.values()) == 1000

    @pytest.mark.parametrize("width", [1, 3, 8, 64, 100])
    def test_bitstrings_sort_like_row_unique(self, width):
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, size=(500, width)) * (rng.random((500, 1)) < 0.9)
        values, counts = np.unique(bitstrings(bits), return_counts=True)
        got = dict(zip((v.decode() for v in values.tolist()), counts.tolist()))
        assert items(got) == items(oracle.tableau_counts(bits))


def _state(n_qubits, fill=None):
    state = StateVector(n_qubits)
    if fill is not None:
        state.data[:] = fill
    return state


class TestErrorContract:
    """Inputs both samplers must keep rejecting with ``ExecutionError``."""

    BAD_VECTORS = {
        "nan": [np.nan, 0.5, 0.25, 0.25],
        "inf": [np.inf, 0.0, 0.0, 0.0],
        "all-zero": [0.0, 0.0, 0.0, 0.0],
    }

    @pytest.mark.parametrize("name", sorted(BAD_VECTORS))
    @pytest.mark.parametrize("measured", [(0, 1), (1,)])
    def test_sample_counts_bad_vector(self, name, measured):
        with pytest.raises(ExecutionError):
            sample_counts(np.array(self.BAD_VECTORS[name]), 10, measured, 2)

    @pytest.mark.parametrize("name", sorted(BAD_VECTORS))
    @pytest.mark.parametrize("measured", [(0, 1), (1,)])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_sample_parallel_bad_vector(self, name, measured, threads):
        amplitudes = np.sqrt(np.array(self.BAD_VECTORS[name], dtype=complex))
        with ParallelSimulationEngine(num_threads=threads) as engine:
            with pytest.raises(ExecutionError):
                engine.sample_parallel(_state(2, amplitudes), 10, measured, seed=0)

    @pytest.mark.parametrize("measured", [(2,), (-1,), (0, 5)])
    def test_out_of_range_qubit(self, measured):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([1.0, 0.0, 0.0, 0.0]), 10, measured, 2)
        with ParallelSimulationEngine(num_threads=2) as engine:
            with pytest.raises(ExecutionError):
                engine.sample_parallel(_state(2), 10, measured, seed=0)

    def test_empty_measured_set(self):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([1.0, 0.0]), 10, (), 1)
        with ParallelSimulationEngine(num_threads=2) as engine:
            with pytest.raises(ExecutionError):
                engine.sample_parallel(_state(1), 10, (), seed=0)

    @pytest.mark.parametrize("shots", [0, -3])
    def test_non_positive_shots(self, shots):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([1.0, 0.0]), shots, (0,), 1)
        with ParallelSimulationEngine(num_threads=2) as engine:
            with pytest.raises(ExecutionError):
                engine.sample_parallel(_state(1), shots, (0,), seed=0)

    def test_length_mismatch(self):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([0.5, 0.25, 0.25]), 10, (0,), 2)


def test_sample_parallel_marginalises_once(monkeypatch):
    """The marginal is a per-job cost: four shot chunks must share one."""
    calls = []
    original = parallel_engine.marginal_distribution

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(parallel_engine, "marginal_distribution", counting)
    state = StateVector(8, data=random_amplitudes(np.random.default_rng(1), 8, "dense"))
    with ParallelSimulationEngine(num_threads=4) as engine:
        counts = engine.sample_parallel(state, 1000, (1, 3, 5), seed=2)
    assert sum(counts.values()) == 1000
    assert calls == [(1, 3, 5)]
