"""Fault-campaign parity: fault-parallel compiled forcing vs netlist rewriting.

:func:`repro.rtl.faults.fault_simulation` defaults to ``simulator="compiled"``,
which replays one bit-sliced kernel per *batch* of faults — each fault
forcing its net in its own lane row — instead of rebuilding a faulty
netlist per fault.  These tests pin that the two machineries are
*observationally identical*: every stuck-at fault is either killed or
proven masked by both, with the same coverage, ERR observability and
undetected-fault list — on every catalog family, across batch boundaries,
for awkward fault lists, and when the vector count is not a multiple of
the 64-lane word (padding lanes must never count as detections).
"""

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.rtl.builders import build_gear, build_rca
from repro.rtl.compile import compile_netlist, pack_operands
from repro.rtl.faults import (
    MAX_INPUT_BITS, Fault, enumerate_faults, fault_simulation, inject_fault)
from repro.rtl.sim import simulate_bus
from repro.spec import SPEC_CATALOG, catalog_spec, gear_spec

SIMULATORS = ("interpreted", "compiled")


def _assert_reports_identical(interp, comp):
    assert comp.total == interp.total
    assert comp.detected_any_output == interp.detected_any_output
    assert comp.flagged_by_err == interp.flagged_by_err
    assert comp.undetected == interp.undetected
    assert comp.coverage == interp.coverage
    assert comp.err_observability == interp.err_observability


class TestCampaignParity:
    def test_gear_n8_every_fault_agrees(self):
        # The full fault universe of GeAr(8, 2, 2): each fault must be
        # killed by both simulators or masked by both.
        netlist = build_gear(8, 2, 2)
        interp = fault_simulation(netlist, vectors=256, seed=2,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=256, seed=2,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)
        # GeAr's discarded speculative low bits leave genuine redundancy,
        # so the parity above is exercised on both outcomes.
        assert comp.undetected
        assert comp.detected_any_output

    def test_rca_full_coverage_parity(self):
        netlist = build_rca(6)
        interp = fault_simulation(netlist, vectors=128, seed=5,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=128, seed=5,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)
        assert comp.coverage == 1.0

    def test_partial_word_vector_count(self):
        # 60 vectors leave 4 padding lanes in the packed word; a forced
        # net can flip outputs there, which must not count as detection.
        netlist = build_gear(8, 2, 2)
        interp = fault_simulation(netlist, vectors=60, seed=9,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=60, seed=9,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)

    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_padding_lanes_never_detect(self, simulator):
        # Seed 7 draws the single vector A=15: A[0]/SA1 changes nothing on
        # it, but would flip the sum in the 63 all-zero padding lanes.
        rng = np.random.default_rng(7)
        assert rng.integers(0, 16, size=1, dtype=np.int64)[0] == 15
        faults = [Fault("A[0]", 1), Fault("A[0]", 0)]
        report = fault_simulation(build_rca(4), vectors=1, seed=7,
                                  faults=faults, simulator=simulator)
        assert report.undetected == [Fault("A[0]", 1)]

    def test_fault_subset_parity(self):
        netlist = build_gear(8, 2, 2)
        subset = enumerate_faults(netlist)[::7]
        interp = fault_simulation(netlist, vectors=200, seed=3, faults=subset,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=200, seed=3, faults=subset,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)

    def test_unknown_simulator_rejected(self):
        with pytest.raises(ValueError, match="simulator"):
            fault_simulation(build_rca(2), vectors=8, simulator="hdl")

    @pytest.mark.parametrize("family", sorted(SPEC_CATALOG))
    def test_every_catalog_family_agrees(self, family):
        netlist = catalog_spec(family, 8).to_netlist()
        interp = fault_simulation(netlist, vectors=100, seed=1,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=100, seed=1,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)

    def test_many_batches_with_partial_last(self):
        # 10 000 vectors are 157 lane words, so a batch holds only a few
        # fault rows: the campaign spans dozens of replays and the last
        # one is short.
        netlist = catalog_spec("gear_r2p2", 8).to_netlist()
        faults = enumerate_faults(netlist)
        nwords = -(-10_000 // 64)
        batch = max(1, 512 // nwords)
        assert len(faults) // batch > 2 and len(faults) % batch
        interp = fault_simulation(netlist, vectors=10_000, seed=3,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=10_000, seed=3,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)


class TestFaultLists:
    def _both(self, faults):
        netlist = build_gear(8, 2, 2)
        interp = fault_simulation(netlist, vectors=96, seed=6, faults=faults,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=96, seed=6, faults=faults,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)
        return comp

    def test_duplicates(self):
        faults = enumerate_faults(build_gear(8, 2, 2))[::5]
        report = self._both(faults + faults[::-1] + faults[:3])
        assert report.total == 2 * len(faults) + 3

    def test_sa0_and_sa1_on_one_net(self):
        # Adjacent rows force the same slot to opposite constants.
        netlist = build_gear(8, 2, 2)
        nets = list(dict.fromkeys(
            f.net for f in enumerate_faults(netlist, include_inputs=False)))
        faults = [Fault(net, v) for net in nets[::3] for v in (1, 0)]
        self._both(faults)

    def test_input_net_faults(self):
        netlist = build_gear(8, 2, 2)
        inputs = [net for bus in netlist.input_buses
                  for net in netlist.input_nets(bus)]
        report = self._both([Fault(net, v) for net in inputs
                             for v in (0, 1)])
        assert report.total == 2 * len(inputs)

    def test_empty_list(self):
        report = self._both([])
        assert report.total == 0
        assert report.undetected == []

    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_unknown_net_rejected(self, simulator):
        netlist = build_gear(8, 2, 2)
        faults = enumerate_faults(netlist)[:4] + [Fault("ghost", 1)]
        with pytest.raises(KeyError, match="ghost"):
            fault_simulation(netlist, vectors=32, faults=faults,
                             simulator=simulator)


class TestGoldenReports:
    # sha256 of the full default-simulator FaultReport at 256 vectors,
    # seed 7, recorded with the per-fault replay loop this sweep replaced
    # (the interpreted sweep gives the same hashes).
    SPECS = {
        "cla@16": lambda: catalog_spec("cla", 16),
        "gear_r1p3@16": lambda: catalog_spec("gear_r1p3", 16),
        "gear(16,8,7)": lambda: gear_spec(16, 8, 7, allow_partial=True),
    }
    PINS = {
        "cla@16":
            "74e44360748458011dc9702f976e8397dee3cc2b68c834eb75bcef4251951098",
        "gear_r1p3@16":
            "d7149e026a131a899a17cd5bb5037570042c3c2ea6c716863222fe4a213564b6",
        "gear(16,8,7)":
            "e2a40a3f4401e4cb93abde016b2a1283bf1bf7dc48489563ddfd211d62c54ea2",
    }

    @pytest.mark.parametrize("label", sorted(PINS))
    def test_report_pinned(self, label):
        netlist = self.SPECS[label]().to_netlist()
        report = fault_simulation(netlist, vectors=256, seed=7)
        doc = {"total": report.total,
               "detected_any_output": report.detected_any_output,
               "flagged_by_err": report.flagged_by_err,
               "undetected": [str(fault) for fault in report.undetected]}
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[label]


class TestInputWidthLimit:
    @pytest.mark.parametrize("simulator", SIMULATORS)
    def test_64_bit_bus_rejected(self, simulator):
        with pytest.raises(ValueError, match=f"{MAX_INPUT_BITS} bits"):
            fault_simulation(build_rca(64), vectors=8, simulator=simulator)

    def test_63_bit_bus_simulates(self):
        netlist = build_rca(63)
        subset = enumerate_faults(netlist)[::40]
        interp = fault_simulation(netlist, vectors=8, faults=subset,
                                  simulator="interpreted")
        comp = fault_simulation(netlist, vectors=8, faults=subset,
                                simulator="compiled")
        _assert_reports_identical(interp, comp)
        assert comp.detected_any_output


class TestCampaignTelemetry:
    def test_counters_account_for_every_fault_row(self):
        # The default simulator is the compiled one: one golden replay
        # plus one per batch, and word_ops still charge every gate once
        # per (fault row, lane word).
        netlist = build_gear(8, 2, 2)
        faults = enumerate_faults(netlist)
        vectors = 20_000
        nwords = -(-vectors // 64)
        batches = -(-len(faults) // max(1, 512 // nwords))
        gates = compile_netlist(netlist).gate_count
        with obs.collecting() as col:
            fault_simulation(netlist, vectors=vectors, seed=1)
        frame = col.snapshot()
        assert frame.spans["rtl.faults.simulate"].count == 1
        assert frame.counters["rtl.faults.faults"] == len(faults)
        assert frame.counters["rtl.compile.runs"] == 1 + batches
        assert frame.counters["rtl.compile.word_ops"] == \
            gates * nwords * (1 + len(faults))


class TestForcedKernelSemantics:
    def test_force_bit_equal_to_inject_fault(self):
        # Forcing a net in the compiled kernel must reproduce the
        # rewritten netlist bit for bit on every output bus.
        netlist = build_gear(8, 2, 2)
        kernel = compile_netlist(netlist)
        rng = np.random.default_rng(4)
        stimulus = {
            bus: rng.integers(0, 1 << width, size=333, dtype=np.int64)
            for bus, width in netlist.input_buses.items()
        }
        for fault in enumerate_faults(netlist)[::13]:
            forced = kernel.run(stimulus,
                                force={fault.net: fault.stuck_at})
            faulty = inject_fault(netlist, fault)
            for bus in netlist.output_buses:
                np.testing.assert_array_equal(
                    forced[bus], simulate_bus(faulty, stimulus, bus),
                    err_msg=f"fault {fault} diverges on bus {bus}")

    def test_force_unknown_net_rejected(self):
        kernel = compile_netlist(build_rca(4))
        with pytest.raises(KeyError):
            kernel.run({"A": 1, "B": 2}, force={"ghost": 1})

    def test_force_value_validated(self):
        netlist = build_rca(4)
        kernel = compile_netlist(netlist)
        net = enumerate_faults(netlist)[0].net
        with pytest.raises(ValueError):
            kernel.run({"A": 1, "B": 2}, force={net: 2})

    def test_batch_rows_match_single_forced_replays(self):
        # Row r of one batched replay equals run_packed with row r's
        # forcing, including multi-net rows, unforced rows and a net
        # forced in several rows.
        netlist = build_gear(8, 2, 2)
        kernel = compile_netlist(netlist)
        rng = np.random.default_rng(8)
        packed = {
            bus: pack_operands(rng.integers(0, 1 << width, size=150),
                               width)
            for bus, width in netlist.input_buses.items()
        }
        faults = enumerate_faults(netlist)
        rows = [{f.net: f.stuck_at} for f in faults[::9]]
        rows += [{}, {faults[3].net: 1, faults[20].net: 0}, rows[0]]
        batched = kernel.run_packed_batch(packed, rows)
        for r, force in enumerate(rows):
            single = kernel.run_packed(packed, force=force)
            for bus in kernel.output_buses:
                assert batched[bus].shape == (len(kernel.output_buses[bus]),
                                              len(rows), 3)
                np.testing.assert_array_equal(batched[bus][:, r],
                                              single[bus])

    def test_batch_validates_like_single_forcing(self):
        kernel = compile_netlist(build_rca(4))
        packed = {"A": pack_operands(np.arange(4), 4),
                  "B": pack_operands(np.arange(4), 4)}
        net = enumerate_faults(build_rca(4))[0].net
        with pytest.raises(KeyError):
            kernel.run_packed_batch(packed, [{net: 1}, {"ghost": 0}])
        with pytest.raises(ValueError):
            kernel.run_packed_batch(packed, [{net: 2}])

    def test_forcing_leaves_kernel_reusable(self):
        # A forced run must not contaminate subsequent clean runs.
        netlist = build_rca(4)
        kernel = compile_netlist(netlist)
        fault = enumerate_faults(netlist, include_inputs=True)[0]
        clean_before = kernel.run({"A": 5, "B": 9})["S"].copy()
        kernel.run({"A": 5, "B": 9}, force={fault.net: 1})
        clean_after = kernel.run({"A": 5, "B": 9})["S"]
        np.testing.assert_array_equal(clean_before, clean_after)
        assert int(clean_after) == 14
