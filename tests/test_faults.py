"""Unit tests for stuck-at fault injection and coverage analysis."""

import numpy as np
import pytest

from repro.rtl.faults import Fault, enumerate_faults, fault_simulation, inject_fault
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_bus
from repro.spec.catalog import exact_spec, gear_spec


class TestFaultList:
    def test_two_faults_per_net(self):
        nl = exact_spec(4).to_netlist()
        faults = enumerate_faults(nl)
        nets = {f.net for f in faults}
        assert len(faults) == 2 * len(nets)

    def test_constants_excluded(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 1)
        nl.set_output_bus("S", [nl.or_(a[0], nl.const(0))])
        faults = enumerate_faults(nl)
        assert all(not f.net.startswith("const") for f in faults)

    def test_inputs_optional(self):
        nl = exact_spec(4).to_netlist()
        with_inputs = enumerate_faults(nl, include_inputs=True)
        without = enumerate_faults(nl, include_inputs=False)
        assert len(with_inputs) == len(without) + 2 * 8

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("x", 2)


class TestInjectFault:
    def test_stuck_input_changes_behaviour(self):
        nl = exact_spec(4).to_netlist()
        faulty = inject_fault(nl, Fault("A[0]", 1))
        # With A[0] stuck at 1, adding 0 + 0 yields 1.
        assert int(simulate_bus(faulty, {"A": 0, "B": 0}, "S")) == 1
        # ...and A=1,B=0 is unaffected.
        assert int(simulate_bus(faulty, {"A": 1, "B": 0}, "S")) == 1

    def test_stuck_gate_output(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 2)
        x = nl.and_(a[0], a[1])
        nl.set_output_bus("S", [x])
        faulty = inject_fault(nl, Fault(x, 1))
        for word in range(4):
            assert int(simulate_bus(faulty, {"A": word}, "S")) == 1

    def test_golden_behaviour_preserved_elsewhere(self):
        nl = exact_spec(6).to_netlist()
        fault = enumerate_faults(nl, include_inputs=False)[5]
        faulty = inject_fault(nl, fault)
        # The faulty netlist still simulates (no structural breakage) and
        # has the same interface.
        rng = np.random.default_rng(0)
        a = rng.integers(0, 64, 100, dtype=np.int64)
        b = rng.integers(0, 64, 100, dtype=np.int64)
        out = simulate_bus(faulty, {"A": a, "B": b}, "S")
        assert out.shape == (100,)

    def test_unknown_net_rejected(self):
        with pytest.raises(KeyError):
            inject_fault(exact_spec(2).to_netlist(), Fault("ghost", 0))


class TestFaultSimulation:
    def test_rca_full_coverage(self):
        # RCA has no redundancy: every stuck-at fault is detectable.
        report = fault_simulation(exact_spec(4).to_netlist(), vectors=64, seed=1)
        assert report.coverage == 1.0
        assert not report.undetected

    def test_gear_has_redundancy(self):
        # Speculative windows recompute overlapping bits; some faults in
        # the discarded low results are invisible.
        report = fault_simulation(gear_spec(8, 2, 2).to_netlist(), vectors=256, seed=2)
        assert report.coverage < 1.0
        assert report.undetected

    def test_err_observability_positive(self):
        report = fault_simulation(gear_spec(8, 2, 2).to_netlist(), vectors=256, seed=3)
        assert 0.0 < report.err_observability <= 1.0

    def test_fault_subset(self):
        nl = exact_spec(4).to_netlist()
        subset = enumerate_faults(nl)[:6]
        report = fault_simulation(nl, vectors=64, faults=subset)
        assert report.total == 6

    def test_more_vectors_never_lower_coverage(self):
        nl = gear_spec(8, 2, 2).to_netlist()
        few = fault_simulation(nl, vectors=8, seed=4)
        many = fault_simulation(nl, vectors=512, seed=4)
        assert many.coverage >= few.coverage
