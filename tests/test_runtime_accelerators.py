"""Tests for the accelerator backends (qpp, noisy, remote)."""

import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.config import set_config
from repro.exceptions import AcceleratorError
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.noisy_accelerator import NoisyAccelerator
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.runtime.remote_accelerator import RemoteAccelerator
from repro.simulator.noise import NoiseModel, bit_flip_channel


class TestQppAccelerator:
    def test_bell_execution_fills_buffer(self):
        accelerator = QppAccelerator({"threads": 2})
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2), shots=512)
        counts = buffer.get_measurement_counts()
        assert sum(counts.values()) == 512
        assert set(counts) <= {"00", "11"}

    def test_information_recorded(self):
        accelerator = QppAccelerator()
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2), shots=16)
        assert buffer.information["backend"] == "qpp"
        assert buffer.information["shots"] == 16
        assert buffer.information["circuit-gates"] == 2

    def test_shots_default_from_config(self):
        set_config(shots=64)
        accelerator = QppAccelerator()
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2))
        assert buffer.total_shots() == 64

    def test_unmeasured_circuit_samples_all_qubits(self):
        accelerator = QppAccelerator()
        buffer = AcceleratorBuffer(2)
        circuit = CircuitBuilder(2).x(0).build()
        accelerator.execute(buffer, circuit, shots=10)
        assert buffer.get_measurement_counts() == {"10": 10}

    def test_parameterized_circuit_rejected(self):
        accelerator = QppAccelerator()
        circuit = CircuitBuilder(1).rx(0, Parameter("t")).build()
        with pytest.raises(AcceleratorError):
            accelerator.execute(AcceleratorBuffer(1), circuit, shots=1)

    def test_circuit_wider_than_buffer_rejected(self):
        accelerator = QppAccelerator()
        with pytest.raises(AcceleratorError):
            accelerator.execute(AcceleratorBuffer(1), bell_circuit(2), shots=1)

    def test_clone_is_independent_instance_with_same_options(self):
        accelerator = QppAccelerator({"threads": 3, "optimize": False})
        clone = accelerator.clone()
        assert clone is not accelerator
        assert clone.options.threads == 3
        assert clone.num_threads == 3

    def test_update_configuration_changes_threads(self):
        accelerator = QppAccelerator({"threads": 1})
        accelerator.update_configuration({"threads": 5})
        assert accelerator.num_threads == 5

    def test_reset_circuit_uses_trajectories(self):
        accelerator = QppAccelerator({"threads": 2})
        buffer = AcceleratorBuffer(1)
        circuit = CircuitBuilder(1).h(0).reset(0).measure(0).build()
        accelerator.execute(buffer, circuit, shots=32)
        assert buffer.get_measurement_counts() == {"0": 32}

    def test_execute_batch_accumulates(self):
        accelerator = QppAccelerator()
        buffer = AcceleratorBuffer(3)
        results = accelerator.execute_batch(
            buffer, [bell_circuit(2), ghz_circuit(3)], shots=8
        )
        assert len(results) == 2
        assert buffer.total_shots() == 16
        assert "batch" in buffer.information


class TestNoisyAccelerator:
    def test_noiseless_model_matches_ideal_support(self):
        accelerator = NoisyAccelerator()
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2), shots=128)
        assert set(buffer.get_measurement_counts()) <= {"00", "11"}
        assert buffer.information["purity"] == pytest.approx(1.0)

    def test_depolarizing_option_reduces_purity(self):
        accelerator = NoisyAccelerator({"depolarizing-probability": 0.05})
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2), shots=128)
        assert buffer.information["purity"] < 1.0

    def test_custom_noise_model_produces_error_outcomes(self):
        model = NoiseModel(default_single_qubit=bit_flip_channel(1.0))
        accelerator = NoisyAccelerator(noise_model=model)
        buffer = AcceleratorBuffer(1)
        circuit = CircuitBuilder(1).x(0).measure(0).build()
        accelerator.execute(buffer, circuit, shots=16)
        # X followed by a certain flip lands back in |0>.
        assert buffer.get_measurement_counts() == {"0": 16}

    def test_max_qubits_limit(self):
        accelerator = NoisyAccelerator()
        assert accelerator.max_qubits() == 13
        with pytest.raises(AcceleratorError):
            accelerator.execute(AcceleratorBuffer(14), bell_circuit(2), shots=1)

    def test_clone_preserves_noise_model(self):
        model = NoiseModel(default_single_qubit=bit_flip_channel(0.25))
        accelerator = NoisyAccelerator(noise_model=model)
        assert accelerator.clone().noise_model is model


class TestRemoteAccelerator:
    def test_synchronous_execution(self):
        accelerator = RemoteAccelerator({"latency-seconds": 0.0})
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, bell_circuit(2), shots=64)
        assert buffer.total_shots() == 64
        accelerator.shutdown()

    def test_submit_returns_job_handle(self):
        accelerator = RemoteAccelerator({"latency-seconds": 0.01})
        buffer = AcceleratorBuffer(2)
        job = accelerator.submit(buffer, bell_circuit(2), shots=32)
        result = job.result(timeout=10.0)
        assert job.done()
        assert result.total_shots() == 32
        accelerator.shutdown()

    def test_jobs_are_processed_in_fifo_order(self):
        accelerator = RemoteAccelerator({"latency-seconds": 0.0})
        buffers = [AcceleratorBuffer(2) for _ in range(3)]
        jobs = [accelerator.submit(b, bell_circuit(2), shots=4) for b in buffers]
        for index, job in enumerate(jobs):
            job.result(timeout=10.0)
            assert job.job_id == index + 1
        accelerator.shutdown()

    def test_is_remote_flag(self):
        accelerator = RemoteAccelerator({"latency-seconds": 0.0})
        assert accelerator.is_remote
        assert not QppAccelerator().is_remote
        accelerator.shutdown()
