"""Measurement sampling into count histograms.

The output format mirrors the paper's Listing 2 (``"00": 513, "11": 511``):
keys are bitstrings whose character ``i`` is the measured value of qubit
``i`` (qubit 0 leftmost), restricted to the measured qubits in ascending
qubit order.

A job computes its marginal once (:func:`marginal_distribution`: the
nonzero outcomes of the measured qubits and their normalised
probabilities), then draws every shot with one multinomial per RNG stream
(:func:`counts_from_draws`).  Only outcomes that were actually drawn are
formatted, all at once: at most ``shots`` keys instead of one per nonzero
marginal outcome.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import ExecutionError

__all__ = [
    "bitstrings",
    "counts_from_draws",
    "counts_from_statevector",
    "format_bitstring",
    "marginal_distribution",
    "marginal_probabilities",
    "measured_set",
    "sample_counts",
]


def format_bitstring(index: int, qubits: tuple[int, ...]) -> str:
    """Format the basis ``index`` restricted to ``qubits`` (first qubit leftmost)."""
    return "".join("1" if (index >> q) & 1 else "0" for q in qubits)


def bitstrings(bits: np.ndarray) -> np.ndarray:
    """View a ``(k, width)`` 0/1 matrix as ``k`` ``'0'``/``'1'`` byte strings.

    Byte strings compare lexicographically, so sorting them orders the
    rows exactly as a row-wise lexicographic sort of ``bits`` would.
    """
    rows = np.array(bits, dtype=np.uint8, order="C")
    rows += ord("0")
    return rows.view(f"S{rows.shape[1]}").reshape(-1)


def _local_bitstrings(indices: np.ndarray, width: int) -> list[str]:
    """Keys of the marginal outcomes ``indices`` (local bit ``i`` is character ``i``)."""
    rows = bitstrings((indices[:, None] >> np.arange(width)) & 1)
    return [row.decode() for row in rows.tolist()]


def measured_set(measured_qubits: Iterable[int]) -> tuple[int, ...]:
    """The measured qubits sorted ascending without duplicates (never empty)."""
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    return qubits


def _marginal_support(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(support, weights)``: the marginal's nonzero local indices, ascending,
    and their unnormalised probabilities."""
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    if probabilities.size != (1 << n_qubits):
        raise ExecutionError(
            f"probability vector of length {probabilities.size} does not match "
            f"{n_qubits} qubit(s)"
        )
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ExecutionError(f"measured qubit {qubit} out of range")
    if qubits == tuple(range(n_qubits)):
        # Measuring every qubit in order: the marginal *is* the vector
        # (a bincount over the identity map adds each p to 0.0, bit-equal).
        sums = probabilities
    else:
        # The reduced-index map only depends on (size, qubits); share the
        # memoised map used by the diagonal gate kernel.
        from .gate_application import _local_index_map

        reduced = _local_index_map(probabilities.size, qubits)
        sums = np.bincount(reduced, weights=probabilities, minlength=1 << len(qubits))
    # ``~(p <= 0)`` rather than ``p > 0``: NaN survives, so the sum check in
    # marginal_distribution rejects it instead of silently dropping it.
    support = np.flatnonzero(~(sums <= 0.0))
    return support, sums[support]


def marginal_probabilities(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> dict[str, float]:
    """Marginalise a full probability vector onto ``qubits`` (nonzero outcomes only)."""
    qubits = tuple(qubits)
    support, weights = _marginal_support(probabilities, qubits, n_qubits)
    return dict(zip(_local_bitstrings(support, len(qubits)), weights.tolist()))


def marginal_distribution(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(support, probs)`` ready for :func:`counts_from_draws`.

    ``support`` holds the nonzero local indices of the marginal on
    ``qubits`` (ascending) and ``probs`` their probabilities, normalised so
    that ``numpy``'s multinomial accepts them.
    """
    support, probs = _marginal_support(probabilities, tuple(qubits), n_qubits)
    total = probs.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ExecutionError(f"probability vector sums to {total}, cannot sample")
    # Float drift can leave the total a few ulp away from 1 after long gate
    # sequences; multinomial rejects even one-ulp violations, so renormalise
    # and let the last bin absorb the residual exactly.
    probs = probs / total
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    return support, probs


def counts_from_draws(support: np.ndarray, width: int, draws: np.ndarray) -> dict[str, int]:
    """Histogram multinomial ``draws`` over ``support`` (``width`` measured qubits).

    ``draws`` is one row per RNG stream (shape ``(streams, len(support))``).
    Keys appear in the order a stream-by-stream merge inserts them: the
    first stream's drawn outcomes ascending, then each later stream's new
    outcomes ascending.  Only drawn outcomes are formatted.
    """
    draws = np.atleast_2d(draws)
    totals = draws.sum(axis=0)
    order = np.flatnonzero(totals)
    if len(draws) > 1:
        first_stream = (draws[:, order] > 0).argmax(axis=0)
        order = order[np.argsort(first_stream, kind="stable")]
    return dict(zip(_local_bitstrings(support[order], width), totals[order].tolist()))


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    measured_qubits: Iterable[int],
    n_qubits: int,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Draw ``shots`` samples from ``probabilities`` and histogram them.

    Sampling is done over the *marginal* distribution of the measured qubits
    (a multinomial draw), which is both exact and much cheaper than sampling
    full basis states when only a few qubits are measured.
    """
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    qubits = measured_set(measured_qubits)
    rng = rng or np.random.default_rng()
    support, probs = marginal_distribution(probabilities, qubits, n_qubits)
    return counts_from_draws(support, len(qubits), rng.multinomial(shots, probs))


def counts_from_statevector(
    state, shots: int, measured_qubits: Iterable[int] | None = None, rng=None
) -> dict[str, int]:
    """Convenience wrapper sampling directly from a :class:`StateVector`."""
    qubits = (
        tuple(measured_qubits) if measured_qubits is not None else tuple(range(state.n_qubits))
    )
    return sample_counts(state.probabilities(), shots, qubits, state.n_qubits, rng)
