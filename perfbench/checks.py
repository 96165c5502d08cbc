"""Output checks, run after the timed phase on the outputs it produced.

The checks are distributional, not bit-exact, so they hold for any correct
sampler and any seeding scheme:

* every histogram totals the requested shots, and every key is a bitstring
  exactly as wide as the set of measured qubits;
* each measured qubit's observed count of ``1`` is consistent with the
  probability the reference oracle gives: an exact binomial test fails it
  only when a deviation at least as large has two-sided probability below
  ``1e-9``, about six standard errors (five would flag a correct run every
  few hundred runs, given the hundreds of tests a run makes and the
  slightly wider spread of histograms subsampled from the cache); a qubit
  the oracle makes deterministic must be observed deterministic;
* no outcome is observed that the oracle gives probability zero;
* the number of shots on the oracle's *heavy set* (its most probable
  outcomes, taken until they hold half the probability) passes the same
  test against that set's probability.  This catches outcomes moved
  to the wrong place when every single-qubit marginal is ~1/2, as in Shor's
  period finding.

The oracle is ``StateVector.apply`` run gate by gate over the circuit, the
simulator's unoptimised reference path, so a fault in plan compilation,
plan replay, sampling, the stabilizer tableau or the result cache shows.
"""

from __future__ import annotations

import numpy as np

#: Oracle state vectors above this width cost too much memory and time.
ORACLE_MAX_QUBITS = 18

#: Probabilities below this are treated as exact zeros (float residue).
_ZERO = 1e-10
#: Two-sided binomial tail probability below which a count fails.
_TAIL = 1e-9


def _implausible(count: int, shots: int, p: float) -> bool:
    """Whether ``count`` successes in ``shots`` draws at probability ``p``
    is too far from ``shots * p`` (exact two-sided binomial tail)."""
    from scipy.stats import binom

    tail = min(binom.cdf(count, shots, p), binom.sf(count - 1, shots, p))
    return 2 * tail < _TAIL


def measured_qubits(circuit) -> tuple[int, ...]:
    return tuple(sorted(set(circuit.measured_qubits()))) or tuple(
        range(max(circuit.n_qubits, 1))
    )


def structure_errors(counts, shots: int, width: int) -> list[str]:
    """Histogram totals ``shots`` and every key has ``width`` bits."""
    errors = []
    total = sum(counts.values())
    if total != shots:
        errors.append(f"histogram totals {total} shots, expected {shots}")
    bad = [key for key in counts if len(key) != width or set(key) - {"0", "1"}]
    if bad:
        errors.append(f"{len(bad)} key(s) not {width}-bit bitstrings, e.g. {bad[0]!r}")
    return errors


class Oracle:
    """Marginal distribution of one circuit's measured qubits."""

    def __init__(self, circuit):
        from repro.simulator.statevector import StateVector

        n = max(circuit.n_qubits, 1)
        state = StateVector(n)
        for instruction in circuit:
            state.apply(instruction)
        probabilities = state.probabilities()
        self.qubits = measured_qubits(circuit)
        index = np.arange(probabilities.size)
        local = np.zeros(probabilities.size, dtype=np.int64)
        for position, qubit in enumerate(self.qubits):
            local |= ((index >> qubit) & 1) << position
        #: Probability of each measured outcome, indexed by its local index
        #: (bit ``k`` = value of the ``k``-th measured qubit).
        self.marginal = np.bincount(
            local, weights=probabilities, minlength=1 << len(self.qubits)
        )
        order = np.argsort(self.marginal)[::-1]
        cut = int(np.searchsorted(np.cumsum(self.marginal[order]), 0.5)) + 1
        self.heavy = np.zeros(self.marginal.size, dtype=bool)
        self.heavy[order[:cut]] = True
        self.heavy_mass = float(self.marginal[self.heavy].sum())
        outcomes = np.arange(self.marginal.size)
        #: Probability that each measured qubit reads 1.
        self.p_one = np.array(
            [self.marginal[(outcomes >> k) & 1 == 1].sum() for k in range(len(self.qubits))]
        )

    def errors(self, counts, shots: int) -> list[str]:
        errors = []
        width = len(self.qubits)
        ones = np.zeros(width)
        heavy = 0
        for key, count in counts.items():
            local = sum(1 << k for k, bit in enumerate(key) if bit == "1")
            if self.marginal[local] < _ZERO:
                errors.append(f"outcome {key!r} has oracle probability 0")
            heavy += count if self.heavy[local] else 0
            for k, bit in enumerate(key):
                if bit == "1":
                    ones[k] += count
        shares = [(f"qubit {q} P(1)", float(self.p_one[k]), ones[k]) for k, q in enumerate(self.qubits)]
        shares.append(("heavy-set share", self.heavy_mass, heavy))
        for what, p, count in shares:
            if p < _ZERO or p > 1 - _ZERO:
                implausible = count != round(p) * shots
            else:
                implausible = _implausible(int(count), shots, p)
            if implausible:
                errors.append(f"{what}={p:.4f}, observed {count / shots:.4f} of {shots} shots")
        return errors


def gradient_errors(service, ansatz, observable, theta, gradient, step: float = 1e-4):
    """Parameter-shift gradient vs central finite differences of ``expectations``."""
    bindings = []
    for i in range(len(theta)):
        for sign in (1.0, -1.0):
            shifted = np.array(theta, dtype=float)
            shifted[i] += sign * step
            bindings.append([float(v) for v in shifted])
    energies = service.expectations(ansatz, observable, bindings)
    finite = np.array(
        [(energies[2 * i] - energies[2 * i + 1]) / (2 * step) for i in range(len(theta))]
    )
    worst = float(np.max(np.abs(finite - np.asarray(gradient))))
    tolerance = 1e-6 + 1e-5 * float(np.max(np.abs(finite)))
    if worst > tolerance:
        return [f"gradient differs from finite differences by {worst:.2e} (> {tolerance:.1e})"]
    return []
