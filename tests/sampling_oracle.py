"""Reference samplers for the byte-identity tests.

Holds, verbatim, the samplers the vectorised measurement path replaced: the
dict-based marginal that formatted a key for every nonzero outcome, the
multinomial draw over it, the per-chunk shot split of
``ParallelSimulationEngine.sample_parallel`` (one marginal per chunk,
merged chunk by chunk) and the tableau's row-wise ``np.unique``.  The
production samplers must reproduce their seeded counts byte for byte,
dict key order included.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ExecutionError
from repro.simulator.gate_application import _local_index_map
from repro.simulator.parallel_engine import merge_counts, split_shots


def marginal_probabilities(probabilities, qubits, n_qubits):
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    if probabilities.size != (1 << n_qubits):
        raise ExecutionError(
            f"probability vector of length {probabilities.size} does not match "
            f"{n_qubits} qubit(s)"
        )
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ExecutionError(f"measured qubit {qubit} out of range")
    reduced = _local_index_map(probabilities.size, tuple(qubits))
    sums = np.bincount(reduced, weights=probabilities, minlength=1 << len(qubits))
    result = {}
    for local_index, p in enumerate(sums):
        if p <= 0.0:
            continue
        bits = "".join("1" if (local_index >> i) & 1 else "0" for i in range(len(qubits)))
        result[bits] = float(p)
    return result


def sample_counts(probabilities, shots, measured_qubits, n_qubits, rng=None):
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    rng = rng or np.random.default_rng()
    marginals = marginal_probabilities(probabilities, qubits, n_qubits)
    keys = list(marginals.keys())
    probs = np.array([marginals[k] for k in keys], dtype=float)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ExecutionError(f"probability vector sums to {total}, cannot sample")
    probs = probs / total
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    draws = rng.multinomial(shots, probs)
    return {key: int(count) for key, count in zip(keys, draws) if count > 0}


def sample_parallel(probabilities, n_qubits, shots, measured_qubits, seed, threads):
    """The engine's shot split: every chunk re-marginalises and draws."""
    qubits = tuple(measured_qubits) if measured_qubits is not None else tuple(range(n_qubits))
    chunks = split_shots(shots, threads)
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    return merge_counts(
        sample_counts(probabilities, chunk, qubits, n_qubits, np.random.default_rng(seq))
        for chunk, seq in zip(chunks, seeds)
    )


def tableau_counts(bits):
    """Histogram a ``(shots, width)`` 0/1 matrix the way the tableau did."""
    values, counts = np.unique(bits, axis=0, return_counts=True)
    return {
        "".join("1" if b else "0" for b in row): int(count)
        for row, count in zip(values, counts)
    }


def tableau_sample(tableau, shots, measured_qubits, rng=None):
    """``StabilizerTableau.sample`` with the row-wise ``np.unique`` formatter."""
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    scratch = tableau.copy()
    forms = [scratch.measure(q) for q in qubits]
    width = scratch.phase.shape[1]
    affine = np.zeros((len(qubits), width), dtype=np.uint8)
    for row, form in enumerate(forms):
        affine[row, : form.size] = form.astype(np.uint8)
    constant = affine[:, 0]
    coeffs = affine[:, 1:]
    if coeffs.shape[1] == 0 or not coeffs.any():
        key = "".join("1" if b else "0" for b in constant)
        return {key: int(shots)}
    rng = rng or np.random.default_rng()
    draws = rng.integers(0, 2, size=(shots, coeffs.shape[1]), dtype=np.uint8)
    bits = (draws.astype(np.int64) @ coeffs.T.astype(np.int64) + constant) % 2
    return tableau_counts(bits)
