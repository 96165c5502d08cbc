"""The one wire format for worker processes: :class:`ReplayRequest`.

Shard workers (:mod:`repro.exec.sharded`) and shared-memory pool workers
(:mod:`repro.exec.shm`) both receive their work as a single picklable
:class:`ReplayRequest`: the circuit by canonical JSON + content hash, the
parsed :class:`~repro.exec.options.ExecutionOptions`, and whichever of the
per-kind fields (shots and seed, binding range, observable, segment names)
the work needs, plus the caller's observability and deadline envelope.

Each worker process compiles into its own
:class:`~repro.simulator.plan_cache.PlanCache`, keyed exactly like the
parent's — ``(digest, width, options.compile_key)`` — through the
digest-keyed entry point, so a cache hit deserialises nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..ir.composite import CompositeInstruction
from ..ir.serialization import circuit_from_json, circuit_to_json
from ..obs.profiler import active_profiler
from ..obs.trace import get_tracer
from ..simulator.plan_cache import PlanCache, cached_content_hash
from .options import ExecutionOptions

__all__ = ["ReplayRequest", "circuit_payload", "worker_plan_cache"]


def circuit_payload(circuit: CompositeInstruction) -> tuple[str, str]:
    """``(canonical_json, content_hash)`` for ``circuit``, memoised on it.

    The memo follows the same invalidation rule as
    :func:`~repro.simulator.plan_cache.cached_content_hash`: it is keyed by
    the instruction count, the only thing ``CompositeInstruction.add`` can
    change.
    """
    n = circuit.n_instructions
    memo = circuit.__dict__.get("_exec_payload")
    if memo is not None and memo[0] == n:
        return memo[1], memo[2]
    payload = circuit_to_json(circuit)
    digest = cached_content_hash(circuit)
    circuit.__dict__["_exec_payload"] = (n, payload, digest)
    return payload, digest


@dataclass(frozen=True)
class ReplayRequest:
    """One unit of work for a shard or shm worker process."""

    #: Canonical circuit JSON (deserialised only on a worker plan-cache miss).
    payload: str
    #: Content hash of the circuit: the worker plan-cache key.
    digest: str
    width: int
    options: ExecutionOptions
    #: Shots of a shot chunk, or per binding of a sweep range.
    shots: int = 0
    #: ``SeedSequence`` of a shot chunk; the job seed (``int``/``None``) of a
    #: sweep range, from which every binding derives its own stream.
    seed: object = None
    params: Mapping[str, float] | Sequence[float] | None = None
    #: The binding range of a sweep chunk.
    bindings: tuple = ()
    #: Observable of an expectation sweep (``None``: sample counts).
    observable: object = None
    #: Replay one trajectory per shot even without mid-circuit resets.
    trajectories: bool = False
    #: Observability request: serialised trace context and profile flag.
    obs: dict | None = None
    #: Wall-clock deadline installed as the worker's ambient cancel token.
    deadline: float | None = None
    #: Shared-memory segment names (state, ping-pong scratch, cancel guard).
    state: str | None = None
    scratch: str | None = None
    control: str | None = None

    @classmethod
    def for_circuit(
        cls, circuit: CompositeInstruction, width: int, options, **fields
    ) -> "ReplayRequest":
        payload, digest = circuit_payload(circuit)
        return cls(payload, digest, width, ExecutionOptions.parse(options), **fields)

    def plan(self, fault_site: str):
        """``(plan, cached)`` from this worker process's own plan cache."""
        return worker_plan_cache().lookup_digest(
            self.digest, self.width, self.options, self._load, fault_site
        )

    def _load(self) -> CompositeInstruction:
        return circuit_from_json(self.payload)


_worker_cache: tuple[int, PlanCache] | None = None


def worker_plan_cache() -> PlanCache:
    """The plan cache of the calling worker process (created on first use).

    Keyed by PID so a forked worker never shares — or inherits the lock
    state of — its parent's cache.
    """
    global _worker_cache
    pid = os.getpid()
    if _worker_cache is None or _worker_cache[0] != pid:
        _worker_cache = (pid, PlanCache())
    return _worker_cache[1]


def obs_request() -> dict | None:
    """The caller's observability request for a worker, or ``None`` when
    neither a trace nor a replay profiler is active (the common case keeps
    workers on their branch-free path)."""
    ctx = get_tracer().current_context()
    profiler = active_profiler()
    if ctx is None and profiler is None:
        return None
    return {
        "trace": ctx.to_wire() if ctx is not None else None,
        "profile": profiler is not None,
    }


def ingest_obs(payloads) -> None:
    """Stitch worker-side observations into this process: spans join the
    parent trace (and any active capture sink, for two-hop shipping) and
    per-kernel timings merge into the active profiler."""
    tracer = get_tracer()
    profiler = active_profiler()
    for payload in payloads:
        if not payload:
            continue
        spans = payload.get("spans")
        if spans:
            tracer.ingest(spans)
        profile = payload.get("profile")
        if profiler is not None and profile:
            profiler.merge_wire(profile)
