"""The benchmark's four workloads: seeded inputs, set-up, one op, output checks.

Every workload builds its inputs from the seed before anything is timed, and
keeps the *cost structure* of its inputs the same for every seed (the mix of
circuit sizes, the gate-count ladder, the Zipf ranks): the seed changes the
circuits' contents and the order of requests, so runs with different seeds
measure the same workload.  Workloads whose op costs differ by orders of
magnitude are laid out in *cycles* with a fixed composition, and a timed
phase ends on a cycle boundary, so every phase sees the same mix.

An op is what one client does per loop iteration: one job (``cold-mix``,
``warm-repeat``), one optimizer iteration (``vqe-loop``) or one round of the
paper's two variants (``paper-threads``).
"""

from __future__ import annotations

import math

import numpy as np

import checks

#: How long a client waits for one result before the op counts as failed.
RESULT_TIMEOUT = 60.0


def _measure(circuit, qubits) -> None:
    from repro.ir.gates import Measure

    for qubit in qubits:
        circuit.add(Measure([qubit]))


#: The always-on ``service.metrics()`` counters the benchmark records.
SERVICE_COUNTERS = (
    "cache_hits",
    "coalesced",
    "executions",
    "executed_shots",
    "served_shots",
    "stabilizer_executions",
    "submitted",
)


def fresh_caches() -> None:
    """Drop the process-wide plan and Clifford-verdict caches, so every
    set-up repetition starts from the state a new process starts from."""
    from repro.ir.transforms.clifford import clear_clifford_cache
    from repro.simulator.plan_cache import reset_plan_cache

    reset_plan_cache()
    clear_clifford_cache()


class Workload:
    """Base: a broker-backed workload (the ``paper-threads`` one overrides)."""

    name = ""
    #: Client threads of the traced run: the request pattern the workload
    #: models.  The end-to-end metrics come from one client (see run.py).
    clients = 1
    #: Ops per cycle; a timed phase only ends on a multiple of this.
    cycle = 1
    #: Ops pregenerated for all timed phases together.
    capacity = 100_000
    #: Highest percentile ``latency_tail_ms`` may report.  Fixed per
    #: workload, well inside the range its op count supports, so the
    #: reported percentile does not flip between runs.
    tail_cap = 75.0

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.rng = np.random.default_rng(seed)
        self.service = None
        self.tracer = None

    # -- set-up (timed by the runner) -------------------------------------------------
    def prepare_setup(self) -> None:
        """Untimed: build the inputs one set-up repetition consumes."""

    def set_up(self) -> None:
        """Timed: construct the service and warm it the way a user would."""
        from repro.service import QuantumJobService

        self.service = QuantumJobService()

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    # -- the closed loop ---------------------------------------------------------------
    def contrast_clients(self) -> int | None:
        """Clients of the contrast cycles (None: the workload has no contrast form)."""
        return min(2, self.nproc)

    def parallel_speedup(self, main, contrast) -> float:
        """Ops/s of the contrast form over ops/s of one client: with
        ``min(2, nproc)`` clients by default (``vqe-loop``: iterations whose
        sweep overlaps the gradient)."""
        return contrast.rate / main.rate if main.rate else 0.0

    def new_client(self, client_id: int, phase: str):
        return None

    def run_op(self, client, index: int):
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Service counters (0 without a service) and plan-cache stats."""
        from repro.simulator.plan_cache import get_plan_cache

        snapshot = self.service.metrics() if self.service is not None else None
        counters = {name: getattr(snapshot, name, 0) for name in SERVICE_COUNTERS}
        stats = get_plan_cache().stats()
        counters.update(
            plan_cache_hits=stats.hits,
            plan_cache_misses=stats.misses,
            plan_cache_evictions=stats.evictions,
        )
        return counters

    def output_errors(self, records, rng) -> dict[int, list[str]]:
        """Check outputs after the timed phases; ``{record position: errors}``."""
        raise NotImplementedError

    def _mark_submit(self) -> None:
        if self.tracer is not None:
            self.tracer.mark_submit()


def _job_errors(records, rng, job_of, max_oracle_checks: int) -> dict[int, list[str]]:
    """Structure checks on every job; oracle checks on a seeded subset."""
    errors: dict[int, list[str]] = {}
    eligible = []
    for position, record in enumerate(records):
        if not record.ok:
            continue
        circuit, shots, counts = job_of(record)
        found = checks.structure_errors(counts, shots, len(checks.measured_qubits(circuit)))
        if found:
            errors[position] = found
        elif circuit.n_qubits <= checks.ORACLE_MAX_QUBITS:
            eligible.append(position)
    chosen = rng.permutation(eligible)[:max_oracle_checks] if eligible else []
    oracles: dict[int, checks.Oracle] = {}
    for position in sorted(int(p) for p in chosen):
        circuit, shots, counts = job_of(records[position])
        oracle = oracles.get(id(circuit))
        if oracle is None:
            oracle = oracles[id(circuit)] = checks.Oracle(circuit)
        found = oracle.errors(counts, shots)
        if found:
            errors[position] = found
    return errors


class ColdMix(Workload):
    """Unique circuits, so every job misses the result cache."""

    name = "cold-mix"
    #: 18.5 of every 20 jobs: the middle of the second-costliest class, not
    #: a boundary between two classes, where the value would jump.
    tail_cap = 92.5
    cycle = 20
    capacity = 20 * 48
    #: Per cycle: every dense size once measuring all qubits and once a
    #: half subset (14 jobs), plus one Clifford job per size (6 jobs):
    #: a 70/30 mix that puts Clifford jobs on both sides of the ~15-qubit
    #: tableau/dense break-even.
    DENSE_SIZES = tuple(range(10, 17))
    CLIFFORD_SIZES = (4, 8, 12, 16, 20, 24)
    SHOTS = 1024

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        self.clients = min(2, nproc)
        slots = [("dense", n, True) for n in self.DENSE_SIZES]
        slots += [("dense", n, False) for n in self.DENSE_SIZES]
        slots += [("clifford", n, True) for n in self.CLIFFORD_SIZES]
        self.jobs = []
        for _ in range(self.capacity // self.cycle):
            for slot in self.rng.permutation(len(slots)):
                kind, n, measure_all = slots[slot]
                if kind == "dense":
                    self.jobs.append(self._dense(n, measure_all))
                else:
                    self.jobs.append(self._clifford(n))

    def _dense(self, n: int, measure_all: bool):
        from repro.algorithms.qft import qft_circuit
        from repro.ir.builder import CircuitBuilder

        builder = CircuitBuilder(n, name=f"dense{n}")
        for _ in range(int(self.rng.integers(2, 5))):
            for qubit in range(n):
                builder.ry(qubit, float(self.rng.uniform(0, 2 * math.pi)))
            for qubit in range(0, n - 1, 2):
                builder.cx(qubit, qubit + 1)
            for qubit in range(1, n - 1, 2):
                builder.cz(qubit, qubit + 1)
        circuit = builder.build()
        circuit.add(qft_circuit(n))
        measured = range(n) if measure_all else sorted(
            int(q) for q in self.rng.choice(n, n // 2, replace=False)
        )
        _measure(circuit, measured)
        return circuit

    def _clifford(self, n: int):
        from repro.ir.builder import CircuitBuilder

        builder = CircuitBuilder(n, name=f"clifford{n}")
        gates = (builder.h, builder.s, builder.sdg, builder.x, builder.y, builder.z)
        for _ in range(int(self.rng.integers(4, 13))):
            for qubit in range(n):
                gates[int(self.rng.integers(len(gates)))](qubit)
            order = self.rng.permutation(n)
            for a, b in zip(order[0::2], order[1::2]):
                (builder.cx if self.rng.random() < 0.5 else builder.cz)(int(a), int(b))
        builder.measure_all()
        return builder.build()

    def prepare_setup(self) -> None:
        self._warm_jobs = [self._dense(10, True), self._clifford(4)]

    def set_up(self) -> None:
        super().set_up()
        handles = [self.service.submit(c, shots=self.SHOTS) for c in self._warm_jobs]
        for handle in handles:
            handle.result(timeout=RESULT_TIMEOUT)

    def run_op(self, client, index: int):
        circuit = self.jobs[index]
        return self.service.submit(circuit, shots=self.SHOTS).result(timeout=RESULT_TIMEOUT).counts

    def output_errors(self, records, rng):
        return _job_errors(
            records,
            rng,
            lambda r: (self.jobs[r.index], self.SHOTS, r.output),
            max_oracle_checks=16,
        )


class WarmRepeat(Workload):
    """A hot set served from the result cache, with occasional top-ups."""

    name = "warm-repeat"
    #: The median top-up (one op in 20 is a write), past the costliest
    #: reads: top-up costs are dense there, and it sits below the rare
    #: garbage-collection pauses that decide the higher percentiles.
    tail_cap = 97.5
    #: Per cycle, every hot circuit is read its exact Zipf share of 608
    #: times and written (topped up) once: 5% writes, and the same mix in
    #: every cycle, so the median and the tail do not move with the draw.
    HOT_SET_SIZE = 32
    READS_PER_CYCLE = 608
    cycle = READS_PER_CYCLE + HOT_SET_SIZE  # one write per hot circuit
    capacity = cycle * 100
    FILL_SHOTS = 1024
    READ_SHOTS = (128, 256, 512, 1024)
    TOP_UP_SHOTS = 256
    #: Gate counts of the random members: a geometric ladder from 20 to 2000.
    LADDER = tuple(int(round(20 * 100 ** (k / 20))) for k in range(21))

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        self.clients = min(2, nproc)
        size = self.HOT_SET_SIZE
        # Zipf(1) popularity over a rank order that is the same for every
        # seed, so every seed puts the same circuits at the top.
        rank_of = np.random.default_rng(0).permutation(size)
        share = self.READS_PER_CYCLE / (1.0 + rank_of) / np.sum(1.0 / np.arange(1, size + 1))
        reads = np.floor(share).astype(int)
        reads[np.argsort(reads - share)[: self.READS_PER_CYCLE - reads.sum()]] += 1
        cycle_targets = np.concatenate([np.repeat(np.arange(size), reads), np.arange(size)])
        is_write = np.arange(self.cycle) >= self.READS_PER_CYCLE
        cycles = self.capacity // self.cycle
        order = np.argsort(self.rng.random((cycles, self.cycle)), axis=1)
        self.targets = cycle_targets[order].ravel()
        # A write asks for more shots than cached, so the broker executes a
        # top-up of only the missing shots; each circuit is written once per
        # cycle, so its cached count after cycle k is FILL + (k+1) * TOP_UP.
        top_up = self.FILL_SHOTS + self.TOP_UP_SHOTS * (np.arange(cycles)[:, None] + 1)
        reads_shots = self.rng.choice(self.READ_SHOTS, size=(cycles, self.cycle))
        self.shots = np.where(is_write[order], top_up, reads_shots).ravel()

    def _hot_set(self, rng):
        from repro.algorithms.bell import bell_circuit
        from repro.algorithms.ghz import ghz_circuit
        from repro.algorithms.qft import qft_circuit
        from repro.algorithms.shor import period_finding_circuit
        from repro.ir.builder import CircuitBuilder

        hot = [bell_circuit(2)] + [ghz_circuit(n) for n in (4, 8, 12)]
        for n in (6, 8, 10, 12):
            builder = CircuitBuilder(n, name=f"qft{n}")
            for qubit in range(n):
                if rng.random() < 0.5:
                    builder.x(qubit)
            circuit = builder.build()
            circuit.add(qft_circuit(n))
            _measure(circuit, range(n))
            hot.append(circuit)
        hot += [period_finding_circuit(15, a) for a in (2, 7, 4)]
        for k, gates in enumerate(self.LADDER):
            n = 6 + k % 7
            builder = CircuitBuilder(n, name=f"random{gates}")
            for _ in range(gates):
                choice = rng.random()
                if choice < 0.6:
                    qubit = int(rng.integers(n))
                    (builder.ry, builder.rz)[int(rng.integers(2))](
                        qubit, float(rng.uniform(0, 2 * math.pi))
                    )
                else:
                    a, b = rng.choice(n, 2, replace=False)
                    (builder.cx if choice < 0.8 else builder.cz)(int(a), int(b))
            builder.measure_all()
            hot.append(builder.build())
        return hot

    def prepare_setup(self) -> None:
        # Same seed, fresh objects: nothing memoised on a circuit object by
        # an earlier repetition can speed up a later one.
        self.hot = self._hot_set(np.random.default_rng(self.seed))

    def set_up(self) -> None:
        super().set_up()
        handles = [self.service.submit(c, shots=self.FILL_SHOTS) for c in self.hot]
        for handle in handles:
            handle.result(timeout=RESULT_TIMEOUT)

    def run_op(self, client, index: int):
        circuit = self.hot[self.targets[index]]
        shots = int(self.shots[index])
        return self.service.submit(circuit, shots=shots).result(timeout=RESULT_TIMEOUT).counts

    def output_errors(self, records, rng):
        return _job_errors(
            records,
            rng,
            lambda r: (self.hot[self.targets[r.index]], int(self.shots[r.index]), r.output),
            max_oracle_checks=24,
        )


class VqeLoop(Workload):
    """Optimizer iterations: an exact gradient sweep plus a shot-based sweep."""

    name = "vqe-loop"
    capacity = 4000
    N_QUBITS = 12
    LAYERS = 2
    SWEEP_BINDINGS = 4
    SWEEP_SHOTS = 1024
    MEASURED = (0, 1, 2, 3)
    LEARNING_RATE = 0.05

    def __init__(self, seed: int, nproc: int):
        from repro.ir.builder import CircuitBuilder
        from repro.ir.parameter import Parameter
        from repro.operators import X, Z

        super().__init__(seed, nproc)
        self.clients = 1
        n = self.N_QUBITS
        builder = CircuitBuilder(n, name="hea")
        for layer in range(self.LAYERS):
            for qubit in range(n):
                builder.ry(qubit, Parameter(f"theta_{layer:02d}_{qubit:02d}"))
            for qubit in range(n - 1):
                builder.cx(qubit, qubit + 1)
        self.ansatz = builder.build()
        self.names = sorted(p.name for p in self.ansatz.free_parameters)
        self.measured = self.ansatz.copy()
        _measure(self.measured, self.MEASURED)
        couplings = self.rng.uniform(0.5, 1.5, n)
        fields = self.rng.uniform(0.5, 1.5, n)
        hamiltonian = None
        for qubit in range(n):
            term = float(couplings[qubit]) * Z(qubit) * Z((qubit + 1) % n) + float(
                fields[qubit]
            ) * X(qubit)
            hamiltonian = term if hamiltonian is None else hamiltonian + term
        self.hamiltonian = hamiltonian
        self.initial = self.rng.uniform(-math.pi, math.pi, (8, len(self.names)))
        self.jitter = self.rng.normal(0.0, 0.05, (self.capacity, self.SWEEP_BINDINGS, len(self.names)))

    def set_up(self) -> None:
        super().set_up()
        theta = self.initial[-1]
        self.service.gradient(self.ansatz, self.hamiltonian, theta)
        self.service.submit_sweep(
            self.measured, [self._binding(theta)], shots=self.SWEEP_SHOTS
        ).result(timeout=RESULT_TIMEOUT)

    def _binding(self, values) -> dict[str, float]:
        return dict(zip(self.names, (float(v) for v in values)))

    def contrast_clients(self) -> int | None:
        # Two concurrent optimizers contend for the GIL chaotically (their
        # throughput ratio spread ±35% between runs); the concurrency this
        # workload offers is inside one iteration instead: the contrast
        # form overlaps the iteration's two halves.
        return 1

    def new_client(self, client_id: int, phase: str):
        return {
            "theta": np.array(self.initial[client_id % len(self.initial)]),
            "overlap": phase == "contrast",
        }

    def run_op(self, client, index: int):
        theta = client["theta"]
        bindings = [self._binding(theta + jitter) for jitter in self.jitter[index]]
        overlap = client["overlap"]
        if overlap:
            self._mark_submit()
            sweep = self.service.submit_sweep(self.measured, bindings, shots=self.SWEEP_SHOTS)
            gradient = self.service.gradient(self.ansatz, self.hamiltonian, theta)
        else:
            gradient = self.service.gradient(self.ansatz, self.hamiltonian, theta)
            self._mark_submit()
            sweep = self.service.submit_sweep(self.measured, bindings, shots=self.SWEEP_SHOTS)
        counts = sweep.counts(timeout=RESULT_TIMEOUT)
        client["theta"] = theta - self.LEARNING_RATE * gradient
        return theta, gradient, bindings, counts, overlap

    def output_errors(self, records, rng):
        errors: dict[int, list[str]] = {}
        width = len(self.MEASURED)
        candidates = []
        for position, record in enumerate(records):
            if not record.ok:
                continue
            _, gradient, bindings, counts, _ = record.output
            found = [] if len(gradient) == len(self.names) else ["gradient has the wrong length"]
            for histogram in counts:
                found += checks.structure_errors(histogram, self.SWEEP_SHOTS, width)
            if found:
                errors[position] = found
            else:
                candidates += [(position, k) for k in range(len(bindings))]
        first = next((p for p, r in enumerate(records) if r.ok), None)
        if first is not None:
            theta, gradient = records[first].output[:2]
            found = checks.gradient_errors(
                self.service, self.ansatz, self.hamiltonian, theta, gradient
            )
            if found:
                errors.setdefault(first, []).extend(found)
        picked = rng.permutation(len(candidates))[:8] if candidates else []
        for pick in picked:
            position, k = candidates[int(pick)]
            _, _, bindings, counts, _ = records[position].output
            found = checks.Oracle(self.measured.bind(bindings[k])).errors(
                counts[k], self.SWEEP_SHOTS
            )
            if found:
                errors.setdefault(position, []).extend(found)
        return errors


class PaperThreads(Workload):
    """The paper's Fig. 4/5 pattern: concurrent kernels vs one by one."""

    name = "paper-threads"
    KERNELS = ((33, 5), (35, 2))
    SHOTS = 64

    def __init__(self, seed: int, nproc: int):
        from repro.algorithms.shor import period_finding_circuit
        from repro.core.executor import KernelTask

        super().__init__(seed, nproc)
        self.clients = 1
        self.circuits = [period_finding_circuit(N, a) for N, a in self.KERNELS]
        self.tasks = [
            KernelTask(
                name=f"shor_N{N}_a{a}",
                circuit_factory=lambda circuit=circuit: circuit,
                n_qubits=circuit.n_qubits,
                shots=self.SHOTS,
            )
            for (N, a), circuit in zip(self.KERNELS, self.circuits)
        ]
        self.first_variant = int(seed) % 2

    def set_up(self) -> None:
        from repro.core.executor import run_one_by_one

        run_one_by_one(self.tasks, total_threads=self.nproc)

    def contrast_clients(self) -> int | None:
        return None

    def parallel_speedup(self, main, contrast) -> float:
        """Median one-by-one part of a round over its median concurrent part."""
        rounds = [r.output for r in main.records if r.ok]
        if not rounds:
            return 0.0
        return float(
            np.median([v["one-by-one"][0] for v in rounds])
            / np.median([v["parallel"][0] for v in rounds])
        )

    def run_op(self, client, index: int):
        from repro.core.executor import run_one_by_one, run_parallel

        variants = [("parallel", run_parallel), ("one-by-one", run_one_by_one)]
        if (index + self.first_variant) % 2:
            variants.reverse()
        reports = {name: fn(self.tasks, total_threads=self.nproc) for name, fn in variants}
        return {
            name: (report.wall_time_seconds, [r.counts for r in report.results])
            for name, report in reports.items()
        }

    def output_errors(self, records, rng):
        errors: dict[int, list[str]] = {}
        widths = [len(checks.measured_qubits(c)) for c in self.circuits]
        eligible = []
        for position, record in enumerate(records):
            if not record.ok:
                continue
            found = []
            for _, histograms in record.output.values():
                for counts, width in zip(histograms, widths):
                    found += checks.structure_errors(counts, self.SHOTS, width)
            if found:
                errors[position] = found
            else:
                eligible.append(position)
        oracles = [checks.Oracle(c) for c in self.circuits]
        for position in rng.permutation(eligible)[:6] if eligible else []:
            found = []
            for _, histograms in records[int(position)].output.values():
                for counts, oracle in zip(histograms, oracles):
                    found += oracle.errors(counts, self.SHOTS)
            if found:
                errors[int(position)] = found
        return errors


WORKLOADS = {w.name: w for w in (ColdMix, WarmRepeat, VqeLoop, PaperThreads)}
