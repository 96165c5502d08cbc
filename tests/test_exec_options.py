"""ExecutionOptions: one parsed, immutable options value at every boundary."""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.bell import bell_circuit
from repro.exceptions import ExecutionError
from repro.exec.options import ACCEPTED_KEYS, DEFAULT_OPTIONS, ExecutionOptions
from repro.exec.request import ReplayRequest
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.noisy_accelerator import NoisyAccelerator
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.service import QuantumJobService
from repro.simulator.execution_plan import DEFAULT_CHUNK_THRESHOLD


class TestParsing:
    def test_accepted_keys(self):
        assert sorted(ACCEPTED_KEYS) == sorted(
            [
                "threads",
                "shots",
                "optimize",
                "precision",
                "method",
                "depolarizing-probability",
                "batch-diagonals",
                "chunk-threshold",
                "processes",
                "shm-processes",
                "shm-states",
                "adaptive-lane",
                "latency-seconds",
                "deadline-seconds",
                "memory-budget-bytes",
            ]
        )

    def test_parse_is_idempotent(self):
        options = ExecutionOptions.parse({"threads": 2, "precision": "fp32"})
        assert ExecutionOptions.parse(options) is options
        assert ExecutionOptions.parse(None) is DEFAULT_OPTIONS
        assert ExecutionOptions.parse({}) is DEFAULT_OPTIONS

    def test_values_are_normalised_once(self):
        options = ExecutionOptions.parse(
            {"precision": "Complex64", "method": "StateVector", "threads": "3"}
        )
        assert options.precision == "single"
        assert options.method == "statevector"
        assert options.threads == 3

    def test_hashable_and_picklable(self):
        options = ExecutionOptions.parse({"precision": "single", "chunk-threshold": 8})
        alias = ExecutionOptions.parse({"precision": "complex64", "chunk-threshold": 8})
        assert hash(options) == hash(alias)
        restored = pickle.loads(pickle.dumps(options))
        assert restored == options
        assert restored.semantic_items == options.semantic_items

    def test_merged_overrides_only_named_keys(self):
        base = ExecutionOptions.parse({"threads": 2, "optimize": False})
        merged = base.merged({"threads": 4})
        assert (merged.threads, merged.optimize) == (4, False)
        assert base.threads == 2

    def test_compile_key_resolves_the_default_threshold(self):
        expected = (True, True, DEFAULT_CHUNK_THRESHOLD, "double")
        assert DEFAULT_OPTIONS.compile_key == expected
        explicit = ExecutionOptions(chunk_threshold=DEFAULT_CHUNK_THRESHOLD)
        assert explicit.compile_key == DEFAULT_OPTIONS.compile_key

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"threads": "not-a-number"}, "'threads'"),
            ({"precision": "half"}, "unknown precision"),
            ({"method": "tensor"}, "unknown simulation method"),
        ],
    )
    def test_invalid_values_raise(self, options, match):
        with pytest.raises(ExecutionError, match=match):
            ExecutionOptions.parse(options)

    def test_replay_request_carries_parsed_options(self):
        request = ReplayRequest.for_circuit(bell_circuit(), 2, {"precision": "single"})
        assert request.options.precision == "single"
        restored = pickle.loads(pickle.dumps(request))
        assert restored.options == request.options
        assert restored.digest == request.digest


class TestUnknownKeysAreRejected:
    """A misspelled key must fail loudly at every entry point, naming the
    bad key and listing the accepted ones."""

    @staticmethod
    def _assert_names_key_and_lists_accepted(excinfo, key):
        message = str(excinfo.value)
        assert repr(key) in message
        for accepted in ACCEPTED_KEYS:
            assert accepted in message

    def test_accelerator_constructor(self):
        with pytest.raises(ExecutionError) as excinfo:
            QppAccelerator({"chunk_threshold": 2})
        self._assert_names_key_and_lists_accepted(excinfo, "chunk_threshold")

    def test_update_configuration(self):
        qpu = QppAccelerator({"threads": 1})
        with pytest.raises(ExecutionError) as excinfo:
            qpu.update_configuration({"use-plans": False})
        self._assert_names_key_and_lists_accepted(excinfo, "use-plans")
        assert qpu.options.threads == 1  # the failed update changed nothing

    def test_service_constructor(self):
        with pytest.raises(ExecutionError) as excinfo:
            QuantumJobService(workers=1, backend_options={"retry-max-attempts": 4})
        self._assert_names_key_and_lists_accepted(excinfo, "retry-max-attempts")

    def test_noisy_accelerator_constructor(self):
        with pytest.raises(ExecutionError, match="'p1'"):
            NoisyAccelerator({"p1": 0.01})


class TestCarriedValue:
    def test_clones_share_the_parsed_value(self):
        qpu = QppAccelerator({"threads": 2, "precision": "single"})
        assert qpu.clone().options is qpu.options

    def test_service_specs_carry_the_service_options(self):
        with QuantumJobService(
            workers=1, backend_options={"threads": 1, "precision": "single"}
        ) as service:
            handle = service.submit(bell_circuit(), shots=32)
            assert handle.spec.options is service.options
            assert handle.result(timeout=30).total_counts() == 32

    def test_accelerator_executes_with_parsed_options(self):
        qpu = QppAccelerator(ExecutionOptions(threads=1, precision="single"))
        buffer = AcceleratorBuffer(2)
        qpu.execute(buffer, bell_circuit(), shots=16)
        assert set(buffer.get_measurement_counts()) <= {"00", "11"}
