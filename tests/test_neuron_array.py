"""Vectorised neuron array vs the bit-accurate scalar neuron."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.neuron.array import NeuronArray
from repro.neuron.if_neuron import IFNeuron


class TestEquivalenceWithScalarNeuron:
    @given(st.integers(min_value=0, max_value=2**30), st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_matches_if_neuron(self, bit_seed, valid_seed):
        """Every neuron of the array behaves like an IFNeuron."""
        ports, n, cycles = 4, 6, 3
        rng_bits = np.random.default_rng(bit_seed)
        rng_valid = np.random.default_rng(valid_seed)
        thresholds = np.arange(-2, n - 2)
        array = NeuronArray(thresholds.copy(), ports=ports)
        scalars = [IFNeuron(int(t), ports=ports) for t in thresholds]
        for _ in range(cycles):
            bits = rng_bits.integers(0, 2, (ports, n))
            valid = rng_valid.integers(0, 2, ports).astype(bool)
            array.accumulate(bits, valid)
            for j, neuron in enumerate(scalars):
                neuron.accumulate(bits[:, j], valid)
        vm_array = array.membrane_potentials()
        assert vm_array.tolist() == [s.vmem for s in scalars]
        fired_array = array.fire_check()
        fired_scalar = [s.fire_check() for s in scalars]
        assert fired_array.tolist() == fired_scalar


class TestArrayBehaviour:
    def test_fire_sets_requests_and_resets(self):
        arr = NeuronArray(np.array([1, 3]), ports=2)
        arr.accumulate(np.array([[1, 1], [1, 1]]), np.array([1, 1]))
        fired = arr.fire_check()
        assert fired.tolist() == [True, False]
        assert (arr.membrane_potentials() == 0).all()
        assert arr.take_requests().tolist() == [True, False]
        assert not arr.spike_requests.any()

    def test_partial_rows_allowed(self):
        """Fewer granted spikes than ports is the common case."""
        arr = NeuronArray(np.zeros(3), ports=4)
        arr.accumulate(np.array([[1, 0, 1]]), np.array([1]))
        assert arr.membrane_potentials().tolist() == [1, -1, 1]

    def test_no_valid_rows_is_noop(self):
        arr = NeuronArray(np.zeros(3), ports=4)
        arr.accumulate(np.array([[1, 0, 1]]), np.array([1]))
        arr.accumulate(np.zeros((2, 3)), np.array([0, 0]))
        assert arr.membrane_potentials().tolist() == [1, -1, 1]

    def test_energy_ledger(self):
        """Energy is a function of the accumulate and fire-check counts,
        growing with each and scaling with the neuron count."""
        arr = NeuronArray(np.zeros(8), ports=4)
        assert arr.dynamic_energy_pj(0, 0) == 0.0
        assert 0.0 < arr.dynamic_energy_pj(2, 0) < arr.dynamic_energy_pj(2, 1)
        assert arr.dynamic_energy_pj(0, 1) > 0.0
        wide = NeuronArray(np.zeros(16), ports=4)
        assert wide.dynamic_energy_pj(2, 1) == pytest.approx(
            2 * arr.dynamic_energy_pj(2, 1)
        )

    def test_reset(self):
        arr = NeuronArray(np.zeros(4), ports=2)
        arr.accumulate(np.ones((1, 4)), np.array([1]))
        arr.fire_check(reset_all=False)
        arr.accumulate(np.zeros((1, 4)), np.array([1]))
        arr.reset()
        assert (arr.membrane_potentials() == 0).all()
        assert not arr.take_requests().any()


class TestValidation:
    def test_too_many_rows(self):
        arr = NeuronArray(np.zeros(4), ports=2)
        with pytest.raises(SimulationError):
            arr.accumulate(np.ones((3, 4)), np.ones(3, dtype=bool))

    def test_wrong_neuron_count(self):
        arr = NeuronArray(np.zeros(4), ports=2)
        with pytest.raises(SimulationError):
            arr.accumulate(np.ones((1, 5)), np.ones(1, dtype=bool))

    def test_valid_shape(self):
        arr = NeuronArray(np.zeros(4), ports=2)
        with pytest.raises(SimulationError):
            arr.accumulate(np.ones((2, 4)), np.ones(3, dtype=bool))

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            NeuronArray(np.array([]))

    def test_bad_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            NeuronArray(np.zeros(4), ports=0)
