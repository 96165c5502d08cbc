"""One execution-options value, parsed once and carried to every lane.

The paper's runtime configures each thread's accelerator clone from an
XACC-style options map (``get_accelerator("qpp", {"threads": n})``,
``initialize(options=...)``, ``update_configuration``).  That surface stays
a kebab-case mapping, but it is parsed exactly once — at the accelerator
and broker boundaries — into a frozen, hashable, picklable
:class:`ExecutionOptions`.  Everything downstream (the broker, the
accelerators, every :class:`~repro.exec.backend.ExecutionBackend`, the plan
caches and the worker wire format) carries the parsed value, so no layer
re-reads a string key and a misspelled key fails loudly at the boundary
instead of being silently ignored.

Each field records its option key and whether it is **semantic**: whether
it can change the histogram a successful job returns.  Semantic fields form
the job identity (:func:`repro.service.keys.config_fingerprint`);
non-semantic fields tune speed, routing or lifecycle and never split the
result cache.  Only semantic fields that differ from their defaults enter
the fingerprint, so an explicit default keys the same as an omitted one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from ..exceptions import ExecutionError
from ..simulator.cost_model import SIMULATION_METHODS
from ..simulator.execution_plan import (
    DEFAULT_CHUNK_THRESHOLD,
    DEFAULT_PRECISION,
    resolve_precision,
)

__all__ = ["ExecutionOptions", "OptionsLike", "ACCEPTED_KEYS", "DEFAULT_OPTIONS"]


def _option(default, key: str, convert, semantic: bool):
    metadata = {"key": key, "convert": convert, "semantic": semantic}
    return dataclasses.field(default=default, metadata=metadata)


def _semantic(default, key: str, convert):
    """A field that can change the histogram a job returns (keys the cache)."""
    return _option(default, key, convert, semantic=True)


def _nonsemantic(default, key: str, convert):
    """A field that tunes speed, routing or lifecycle (never keys the cache)."""
    return _option(default, key, convert, semantic=False)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _method(value) -> str:
    method = str(value).strip().lower()
    if method not in SIMULATION_METHODS:
        raise ExecutionError(
            f"unknown simulation method {value!r}; expected one of {SIMULATION_METHODS}"
        )
    return method


@dataclass(frozen=True)
class ExecutionOptions:
    """Validated, normalised execution configuration (see the module docs)."""

    #: Simulator worker threads (the ``OMP_NUM_THREADS`` analogue; ``None`` =
    #: the process-wide default).  Non-semantic: threads change speed, and
    #: sampling reduces to the same distribution at any thread count.
    threads: int | None = _nonsemantic(None, "threads", _optional(int))
    #: Default shot count when a caller passes none.  Non-semantic: shots are
    #: reconciled per request (subsample / top-up), never part of a key.
    shots: int | None = _nonsemantic(None, "shots", _optional(int))
    #: Run the IR pass pipeline before lowering.  Semantic: the optimised
    #: circuit replays different kernels, so per-seed streams may differ.
    optimize: bool = _semantic(True, "optimize", bool)
    #: Amplitude tier, ``"double"`` (complex128) or ``"single"`` (complex64);
    #: the aliases ``complex128``/``fp64`` and ``complex64``/``fp32`` are
    #: normalised.  Semantic: complex64 replay changes the evolved amplitudes
    #: within the documented fidelity bound, so a single-precision
    #: submission must never be served a complex128 histogram or vice versa.
    precision: str = _semantic(DEFAULT_PRECISION, "precision", resolve_precision)
    #: Simulation method, ``auto`` / ``statevector`` / ``stabilizer``
    #: (case-insensitive).  An explicit method is semantic: the tableau draws
    #: its randomness from GF(2) affine forms, the statevector from a
    #: multinomial over amplitudes — same distribution, different per-seed
    #: streams.  The default ``auto`` is the broker's routing decision and,
    #: being the default, never enters the fingerprint: callers who did not
    #: ask for a method get the fast path without their job identity moving.
    method: str = _semantic("auto", "method", _method)
    #: Depolarizing probability of the noisy backend's default channels.
    #: Semantic: it is the noise model.
    depolarizing_probability: float = _semantic(0.0, "depolarizing-probability", float)
    #: Collapse adjacent diagonal runs at compile time.  Non-semantic: it
    #: reassociates floating-point products (ulp-level amplitude shifts,
    #: identical distributions).  Consequence: the result cache may serve a
    #: batched-plan histogram to a ``batch-diagonals: False`` submission;
    #: callers who need bit-exact unbatched reproduction should disable the
    #: result cache rather than rely on this option splitting it.
    batch_diagonals: bool = _nonsemantic(True, "batch-diagonals", bool)
    #: Minimum state size (amplitudes) for chunk-parallel replay (``None`` =
    #: the compiled default).  Non-semantic: chunked replay is bitwise
    #: identical to serial replay.
    chunk_threshold: int | None = _nonsemantic(None, "chunk-threshold", _optional(int))
    #: Process shards for shot/key-affine sharding (0/1 = in-process).
    #: Non-semantic: its reductions are deterministic routing.
    processes: int = _nonsemantic(0, "processes", int)
    #: Shared-memory replay workers for large states (0/1 = off).
    #: Non-semantic: shm replay is bitwise identical to serial replay.
    shm_processes: int = _nonsemantic(0, "shm-processes", int)
    #: Resident shm states (gangs).  Non-semantic: residency only.
    shm_states: int = _nonsemantic(1, "shm-states", int)
    #: Route each replay to the lane the calibrated cost model predicts
    #: cheapest.  Non-semantic: every lane is bit-identical at a precision.
    adaptive_lane: bool = _nonsemantic(False, "adaptive-lane", bool)
    #: Synthetic submission latency of the remote backend.  Non-semantic.
    latency_seconds: float = _nonsemantic(0.01, "latency-seconds", float)
    #: Default relative job deadline of the broker.  Non-semantic: a deadline
    #: decides *whether* a result arrives, never what it is, so a result
    #: produced under a tight deadline is reusable by a loose one.
    deadline_seconds: float | None = _nonsemantic(None, "deadline-seconds", _optional(float))
    #: Memory budget for broker admission and the shm pool.  Non-semantic
    #: for the same reason as the deadline.
    memory_budget_bytes: int | None = _nonsemantic(None, "memory-budget-bytes", _optional(int))

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            try:
                normalised = field.metadata["convert"](value)
            except (TypeError, ValueError) as exc:
                raise ExecutionError(
                    f"invalid value {value!r} for option {field.metadata['key']!r}: {exc}"
                ) from None
            object.__setattr__(self, field.name, normalised)
        fingerprint = tuple(
            (field.metadata["key"], getattr(self, field.name))
            for field in dataclasses.fields(self)
            if field.metadata["semantic"] and getattr(self, field.name) != field.default
        )
        object.__setattr__(self, "_semantic", fingerprint)

    # -- parsing ------------------------------------------------------------------
    @classmethod
    def parse(cls, options: "OptionsLike") -> "ExecutionOptions":
        """The parsed value of ``options``; idempotent on parsed values."""
        if isinstance(options, ExecutionOptions):
            return options
        if not options:
            return DEFAULT_OPTIONS
        return DEFAULT_OPTIONS.merged(options)

    def merged(self, overrides: "OptionsLike") -> "ExecutionOptions":
        """A copy with ``overrides`` applied (XACC's ``updateConfiguration``).

        A mapping overrides only the keys it names; a parsed value replaces
        the whole configuration.  Raises
        :class:`~repro.exceptions.ExecutionError` naming any key that is not
        an accepted option, so a typo fails here instead of being silently
        ignored by execution while still splitting the result cache.
        """
        if isinstance(overrides, ExecutionOptions):
            return overrides
        if not overrides:
            return self
        changes = {}
        for key, value in overrides.items():
            name = _FIELD_FOR_KEY.get(key)
            if name is None:
                raise ExecutionError(
                    f"unknown execution option {key!r}; accepted keys: "
                    f"{', '.join(ACCEPTED_KEYS)}"
                )
            if value is not None:
                changes[name] = value
        return dataclasses.replace(self, **changes) if changes else self

    # -- derived views ------------------------------------------------------------
    @property
    def semantic_items(self) -> tuple[tuple[str, object], ...]:
        """``(key, value)`` of every semantic field that differs from its default."""
        return self._semantic  # type: ignore[attr-defined]

    @property
    def compile_key(self) -> tuple:
        """The part of a plan-cache key these options contribute."""
        threshold = self.chunk_threshold
        if threshold is None:
            threshold = DEFAULT_CHUNK_THRESHOLD
        return (self.optimize, self.batch_diagonals, threshold, self.precision)

    @property
    def compile_kwargs(self) -> dict[str, object]:
        """Keyword arguments for ``compile_plan`` / ``compile_parametric_plan``."""
        return {
            "optimize": self.optimize,
            "batch_diagonals": self.batch_diagonals,
            "chunk_threshold": self.chunk_threshold,
            "precision": self.precision,
        }

    def __repr__(self) -> str:
        changed = {
            field.metadata["key"]: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != field.default
        }
        return f"ExecutionOptions({changed!r})"


_FIELD_FOR_KEY = {
    field.metadata["key"]: field.name for field in dataclasses.fields(ExecutionOptions)
}

#: Every option key the accelerators and the broker accept.
ACCEPTED_KEYS = tuple(_FIELD_FOR_KEY)

#: The all-defaults value (what an empty or missing options mapping parses to).
DEFAULT_OPTIONS = ExecutionOptions()

#: What the option boundaries accept: a parsed value, a mapping, or ``None``.
OptionsLike = ExecutionOptions | Mapping[str, object] | None
