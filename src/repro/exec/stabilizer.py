"""Stabilizer (CHP tableau) execution behind the common backend protocol.

Every other lane in the repo replays a dense statevector, so cost grows as
O(2^n) regardless of how well the replay parallelises.  Clifford circuits
— bell/GHZ chains, error-correction cycles, randomized benchmarking — admit
the Aaronson–Gottesman tableau representation instead: the state is the
abelian group stabilising it, tracked as 2n binary Pauli rows, and every
Clifford gate is an O(n) column update.  A 500-qubit GHZ circuit is a few
thousand boolean vector ops, not a 2^500-amplitude impossibility.

Layout (CHP convention): rows ``0..n-1`` are destabilizers, rows
``n..2n-1`` stabilizers; row ``i`` encodes the Pauli
``(-1)^{r_i} · ∏_q W_q`` with ``W`` read off the ``(x, z)`` bit pair —
``(0,0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z``.

The one departure from textbook CHP is the **symbolic phase matrix**: each
row's phase is an affine form over GF(2) in fresh random bits
``(1, u₁..u_R)`` minted by random-outcome measurements and resets, not a
single bit.  Unitary gates only ever flip the constant column; measurement
outcomes come out as affine forms in the ``u``'s.  Terminal sampling is
then a single GF(2) matrix product over ``shots`` uniform draws of the
``u`` vector — the whole histogram in one vectorised pass, and circuits
whose outcomes involve no ``u`` (deterministic outcomes) yield the exact
single bitstring the dense lanes produce, bit for bit, independent of the
sampler seed.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.transforms.clifford import CliffordClassification, classify_clifford
from ..obs.trace import get_tracer
from ..simulator.sampling import bitstrings, measured_set
from ..testing import faults
from .backend import ExecutionBackend, Params, _resolve_width
from .options import OptionsLike
from .result import ExecutionResult

__all__ = ["StabilizerTableau", "StabilizerBackend", "estimate_tableau_bytes"]


def estimate_tableau_bytes(n_qubits: int, shots: int = 0) -> int:
    """Peak bytes for a tableau execution: O(n²) bits, not O(2^n) amplitudes.

    Two ``(2n, n)`` boolean matrices plus the phase matrix (one constant
    column plus at most one fresh random column per measured qubit) and the
    sampled bit matrix.  The admission controller uses this instead of the
    amplitude estimate when the classifier routes a job to the tableau.
    """
    n = max(1, int(n_qubits))
    rows = 2 * n
    tableau = 2 * rows * n  # x and z boolean matrices
    phase = rows * (1 + n)  # worst case: every qubit measured randomly
    samples = max(0, int(shots)) * (n + 8)  # bit matrix + histogram keys
    return tableau + phase + samples


def _carry_rows(x1, z1, x2, z2, total: bool = False):
    """Phase carries of pairwise Pauli products ``left · right``.

    Aaronson–Gottesman's per-qubit exponent ``g`` is +1 exactly for the
    (left, right) letter pairs (Y,Z), (X,Y), (Z,X) and -1 for the reversed
    pairs, so the row sums reduce to six boolean popcounts — no integer
    temporaries.  For Hermitian products every row's Σg is even mod 4 and
    the carry is ``((pos - neg) mod 4) / 2``.  With ``total=True`` all rows
    are collapsed into one carry bit (valid because per-step carries XOR to
    the carry of the total when every prefix is Hermitian).
    """
    y1 = x1 & z1
    xo1 = x1 & ~z1
    zo1 = ~x1 & z1
    y2 = x2 & z2
    xo2 = x2 & ~z2
    zo2 = ~x2 & z2
    if total:
        pos = (
            int(np.count_nonzero(y1 & zo2))
            + int(np.count_nonzero(xo1 & y2))
            + int(np.count_nonzero(zo1 & xo2))
        )
        neg = (
            int(np.count_nonzero(y1 & xo2))
            + int(np.count_nonzero(xo1 & zo2))
            + int(np.count_nonzero(zo1 & y2))
        )
        return ((pos - neg) % 4) // 2
    pos = (
        np.count_nonzero(y1 & zo2, axis=1)
        + np.count_nonzero(xo1 & y2, axis=1)
        + np.count_nonzero(zo1 & xo2, axis=1)
    )
    neg = (
        np.count_nonzero(y1 & xo2, axis=1)
        + np.count_nonzero(xo1 & zo2, axis=1)
        + np.count_nonzero(zo1 & y2, axis=1)
    )
    return ((((pos - neg) % 4) // 2) > 0)


class StabilizerTableau:
    """A 2n-row binary Pauli tableau with symbolic (affine) phases."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ExecutionError(f"tableau width must be positive, got {n_qubits}")
        self.n = int(n_qubits)
        rows = 2 * self.n
        idx = np.arange(self.n)
        self.x = np.zeros((rows, self.n), dtype=bool)
        self.z = np.zeros((rows, self.n), dtype=bool)
        self.x[idx, idx] = True  # destabilizer i = X_i
        self.z[self.n + idx, idx] = True  # stabilizer i = Z_i
        #: Affine phases over (1, u₁..u_R): column 0 is the constant bit,
        #: later columns are random bits minted by measurements/resets.
        self.phase = np.zeros((rows, 1), dtype=bool)

    @property
    def n_random_bits(self) -> int:
        return self.phase.shape[1] - 1

    def copy(self) -> "StabilizerTableau":
        dup = StabilizerTableau.__new__(StabilizerTableau)
        dup.n = self.n
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.phase = self.phase.copy()
        return dup

    # -- gates (phase flips touch only the constant column) -------------------
    def h(self, q: int) -> None:
        self.phase[:, 0] ^= self.x[:, q] & self.z[:, q]
        tmp = self.x[:, q].copy()
        self.x[:, q] = self.z[:, q]
        self.z[:, q] = tmp

    def s(self, q: int) -> None:
        self.phase[:, 0] ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.phase[:, 0] ^= self.x[:, q] & ~self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def x_gate(self, q: int) -> None:
        self.phase[:, 0] ^= self.z[:, q]

    def y_gate(self, q: int) -> None:
        self.phase[:, 0] ^= self.x[:, q] ^ self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.phase[:, 0] ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        xa, zb = self.x[:, control], self.z[:, target]
        self.phase[:, 0] ^= xa & zb & ~(self.x[:, target] ^ self.z[:, control])
        self.x[:, target] ^= xa
        self.z[:, control] ^= zb

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    # -- symbolic measurement --------------------------------------------------
    def _rowsum_batch(self, targets: np.ndarray, i: int) -> None:
        """Row ``t`` := row ``i`` · row ``t`` for every target, vectorized.

        One phase-carry evaluation over a ``(k, n)`` block instead of ``k``
        Python-level rowsums — the difference between O(n²) numpy calls and
        O(n) per measurement cascade.
        """
        x1, z1 = self.x[i], self.z[i]
        x2, z2 = self.x[targets], self.z[targets]
        carries = _carry_rows(x1, z1, x2, z2)
        self.phase[targets] ^= self.phase[i][None, :]
        self.phase[targets, 0] ^= carries
        self.x[targets] ^= x1
        self.z[targets] ^= z1

    def _product(self, rows: np.ndarray):
        """``(x, z, phase)`` of the ordered product of the given rows.

        All callers multiply pairwise-commuting rows, so every prefix of
        the product is Hermitian and the per-step carries
        ``((Σg) mod 4)/2`` XOR to the carry of the *total* g-sum — which
        lets the whole cascade collapse to one exclusive cumulative XOR
        plus a single block g-evaluation.
        """
        xs_rows = self.x[rows]
        zs_rows = self.z[rows]
        px = np.zeros_like(xs_rows)
        pz = np.zeros_like(zs_rows)
        if rows.size > 1:
            np.bitwise_xor.accumulate(
                xs_rows[:-1].view(np.uint8), axis=0, out=px[1:].view(np.uint8)
            )
            np.bitwise_xor.accumulate(
                zs_rows[:-1].view(np.uint8), axis=0, out=pz[1:].view(np.uint8)
            )
        carry = bool(_carry_rows(xs_rows, zs_rows, px, pz, total=True))
        xs = np.logical_xor.reduce(xs_rows, axis=0)
        zs = np.logical_xor.reduce(zs_rows, axis=0)
        ps = np.logical_xor.reduce(self.phase[rows], axis=0)
        if carry:
            ps[0] ^= True
        return xs, zs, ps

    def _new_random_column(self) -> int:
        rows = self.phase.shape[0]
        self.phase = np.hstack([self.phase, np.zeros((rows, 1), dtype=bool)])
        return self.phase.shape[1] - 1

    def measure(self, q: int) -> np.ndarray:
        """Measure qubit ``q`` (collapsing) and return the outcome.

        The outcome is an affine form over ``(1, u₁..u_R)``: a boolean
        vector of the current phase width whose GF(2) inner product with a
        concrete assignment of the ``u``'s gives the measured bit.  A
        random outcome mints a fresh ``u`` column and returns exactly that
        coordinate; a deterministic outcome returns the accumulated phase
        of the stabilizer product fixing ``Z_q``.
        """
        if not 0 <= q < self.n:
            raise ExecutionError(f"measured qubit {q} out of range")
        n = self.n
        candidates = np.nonzero(self.x[n:, q])[0]
        if candidates.size:
            # Random outcome: some stabilizer anticommutes with Z_q.
            p = int(candidates[0]) + n
            targets = np.nonzero(self.x[:, q])[0]
            targets = targets[targets != p]
            if targets.size:
                self._rowsum_batch(targets, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.phase[p - n] = self.phase[p]
            column = self._new_random_column()
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            self.phase[p] = False
            self.phase[p, column] = True
            outcome = np.zeros(self.phase.shape[1], dtype=bool)
            outcome[column] = True
            return outcome
        # Deterministic outcome: Z_q ∈ ±S; the product of the stabilizers
        # selected by the destabilizers that anticommute with Z_q has the
        # measured bit as its phase.
        selected = np.nonzero(self.x[:n, q])[0] + n
        if not selected.size:
            return np.zeros(self.phase.shape[1], dtype=bool)
        _, _, ps = self._product(selected)
        return ps

    def reset(self, q: int) -> None:
        """Measure ``q`` then conditionally flip it back to |0⟩.

        The conditional X^m is exact even for symbolic ``m``: X on ``q``
        flips each row's phase by its ``z`` column, so the affine form
        ``m`` is XORed into every row with ``z[·, q]`` set.
        """
        outcome = self.measure(q)
        self.phase[self.z[:, q]] ^= outcome

    # -- terminal sampling -----------------------------------------------------
    def sample(
        self,
        shots: int,
        measured_qubits: Iterable[int],
        rng: np.random.Generator | None = None,
    ) -> dict[str, int]:
        """Histogram ``shots`` joint samples of ``measured_qubits``.

        Matches :func:`repro.simulator.sampling.sample_counts` format:
        measured qubits sorted ascending, character ``i`` of a key is the
        value of the ``i``-th measured qubit.  Measuring sequentially on a
        scratch copy yields *correlated* affine forms in shared ``u``'s —
        the exact joint distribution — then one GF(2) matmul over uniform
        ``u`` draws produces every shot at once.
        """
        if shots <= 0:
            raise ExecutionError(f"shots must be positive, got {shots}")
        qubits = measured_set(measured_qubits)
        scratch = self.copy()
        forms = [scratch.measure(q) for q in qubits]
        width = scratch.phase.shape[1]
        affine = np.zeros((len(qubits), width), dtype=np.uint8)
        for row, form in enumerate(forms):
            affine[row, : form.size] = form.astype(np.uint8)
        constant = affine[:, 0]
        coeffs = affine[:, 1:]
        if coeffs.shape[1] == 0 or not coeffs.any():
            # Deterministic outcomes: the single bitstring every dense lane
            # produces at any seed — bitwise identical by construction.
            return {bitstrings(constant[None, :])[0].decode(): int(shots)}
        rng = rng or np.random.default_rng()
        draws = rng.integers(0, 2, size=(shots, coeffs.shape[1]), dtype=np.uint8)
        bits = (draws.astype(np.int64) @ coeffs.T.astype(np.int64) + constant) % 2
        # One '0'/'1' byte string per shot; byte order is lexicographic, so
        # the 1-D unique yields the same keys in the same order as a
        # row-wise unique over the bit matrix.
        values, counts = np.unique(bitstrings(bits), return_counts=True)
        return dict(zip((value.decode() for value in values.tolist()), counts.tolist()))

    # -- exact expectations ----------------------------------------------------
    def expectation_sign(self, paulis: Mapping[int, str]) -> float:
        """⟨P⟩ for a Pauli product ``P`` — exactly -1, 0 or +1.

        A pure stabilizer state's group is maximal abelian: ``P`` has
        non-zero expectation iff it commutes with every stabilizer, in
        which case ``P ∈ ±S`` and the sign is the phase of the stabilizer
        product selected by the destabilizers anticommuting with ``P``.
        """
        n = self.n
        xp = np.zeros(n, dtype=bool)
        zp = np.zeros(n, dtype=bool)
        for qubit, label in paulis.items():
            if not 0 <= qubit < n:
                raise ExecutionError(f"observable qubit {qubit} out of range")
            if label in ("X", "Y"):
                xp[qubit] = True
            if label in ("Z", "Y"):
                zp[qubit] = True
        stab_x, stab_z = self.x[n:], self.z[n:]
        anticommutes = ((stab_x & zp).sum(axis=1) + (stab_z & xp).sum(axis=1)) % 2
        if anticommutes.any():
            return 0.0
        destab_x, destab_z = self.x[:n], self.z[:n]
        selection = ((destab_x & zp).sum(axis=1) + (destab_z & xp).sum(axis=1)) % 2
        selected = np.nonzero(selection)[0] + n
        if not selected.size:
            # P commutes with every generator yet selects no stabilizer:
            # only the identity does that (⟨I⟩ = 1 handled by the caller).
            return 1.0
        _, _, ps = self._product(selected)
        return -1.0 if ps[0] else 1.0


class StabilizerBackend(ExecutionBackend):
    """Tableau execution behind :class:`ExecutionBackend`.

    ``compile`` returns the cached :class:`CliffordClassification` (the
    lowered primitive op list *is* the executable artefact — there is no
    amplitude plan form).  Non-Clifford circuits fail loudly with the
    classifier's obstruction: routing layers are expected to consult
    :func:`classify_clifford` first, so reaching this error means an
    explicit ``method: "stabilizer"`` request on an ineligible circuit.

    ``options`` are accepted for protocol uniformity and ignored — the
    tableau is exact over GF(2) at every precision tier and has no plan
    form, so no execution option can change the sampling law here.
    """

    backend_name = "stabilizer"

    def compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        options: OptionsLike = None,
    ) -> CliffordClassification:
        return classify_clifford(circuit)

    def _classified(self, circuit: CompositeInstruction) -> CliffordClassification:
        classification = classify_clifford(circuit)
        if not classification.is_clifford:
            raise ExecutionError(
                "the stabilizer backend requires a Clifford circuit: "
                f"{classification.reason}"
            )
        return classification

    @staticmethod
    def _evolve(tableau: StabilizerTableau, ops) -> None:
        for op in ops:
            kind = op[0]
            if kind == "h":
                tableau.h(op[1])
            elif kind == "s":
                tableau.s(op[1])
            elif kind == "sdg":
                tableau.sdg(op[1])
            elif kind == "x":
                tableau.x_gate(op[1])
            elif kind == "y":
                tableau.y_gate(op[1])
            elif kind == "z":
                tableau.z_gate(op[1])
            elif kind == "cx":
                tableau.cx(op[1], op[2])
            elif kind == "cz":
                tableau.cz(op[1], op[2])
            elif kind == "swap":
                tableau.swap(op[1], op[2])
            elif kind == "reset":
                tableau.reset(op[1])
            else:  # pragma: no cover - the classifier only emits the above
                raise ExecutionError(f"unknown tableau op {op!r}")

    def execute(
        self,
        circuit: CompositeInstruction,
        shots: int,
        *,
        n_qubits: int | None = None,
        seed: int | None = None,
        params: Params = None,
        options: OptionsLike = None,
    ) -> ExecutionResult:
        tracer = get_tracer()
        token = active_cancel_token()
        if token is not None:
            # Pre-evolution boundary, mirroring every other lane: a job
            # past its deadline must not pay for classification.
            token.check()
        faults.fire("stabilizer.execute")
        if params is not None:
            circuit = circuit.bind(params)
        elif circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        started = time.perf_counter()
        with tracer.span("classify", attrs={"circuit": circuit.name}):
            classification = self._classified(circuit)
        width = _resolve_width(circuit, n_qubits)
        with tracer.span(
            "tableau", attrs={"n_qubits": width, "n_ops": len(classification.ops)}
        ):
            tableau = StabilizerTableau(width)
            self._evolve(tableau, classification.ops)
        if token is not None:
            # Post-evolution boundary: sampling is the other large phase.
            token.check()
        measured = classification.measured_qubits or tuple(range(width))
        rng = np.random.default_rng(seed)
        with tracer.span("sample", attrs={"shots": shots}):
            counts = tableau.sample(shots, measured, rng)
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            counts=counts,
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            shards=1,
            depth=circuit.depth(),
            n_gates=classification.n_gates,
            extra={"n_random_bits": tableau.n_random_bits},
        )

    def expectation(
        self,
        circuit: CompositeInstruction,
        observable,
        *,
        n_qubits: int | None = None,
        params: Params = None,
        options: OptionsLike = None,
    ) -> float:
        from ..operators.pauli import PauliOperator, PauliTerm

        if isinstance(observable, PauliTerm):
            observable = PauliOperator([observable])
        if not isinstance(observable, PauliOperator):
            raise ExecutionError(
                f"expected a PauliOperator/PauliTerm, got {type(observable).__name__}"
            )
        if params is not None:
            circuit = circuit.bind(params)
        elif circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        classification = self._classified(circuit)
        if classification.has_reset:
            raise ExecutionError(
                "exact expectations are undefined for circuits with mid-circuit resets"
            )
        width = _resolve_width(circuit, n_qubits)
        tableau = StabilizerTableau(width)
        self._evolve(tableau, classification.ops)
        total = 0.0
        for term in observable.terms:
            if term.is_identity:
                total += term.coefficient.real
                continue
            total += term.coefficient.real * tableau.expectation_sign(term.paulis)
        return float(total)

    def __repr__(self) -> str:
        return "StabilizerBackend()"
