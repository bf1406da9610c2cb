"""Unit tests for sweeps, Pareto analysis and table rendering."""

import math

import pytest

from repro.adders import (
    ErrorTolerantAdderII,
    GracefullyDegradingAdder,
    RippleCarryAdder,
)
from repro.analysis.pareto import dominates, pareto_front, select_config
from repro.analysis.sweep import SweepResult, sweep_adder_family, sweep_gear_configs
from repro.analysis.tables import Table, format_table
from repro.core.error_model import paper_error_probability
from repro.core.gear import GeArAdder, GeArConfig


def _point(name, err, delay, luts):
    return SweepResult(
        name=name, r=1, p=1, k=2, error_probability=err,
        accuracy_pct=(1 - err) * 100, med=0.0, ned=err,
        delay_ns=delay, luts=luts,
    )


class TestSweep:
    def test_gear_sweep_without_hardware(self):
        results = sweep_gear_configs(12, r_values=[4], with_hardware=False)
        assert len(results) == 7  # P = 1..7 (P=8 is exact)
        assert all(r.delay_ns is None for r in results)
        accs = [r.accuracy_pct for r in sorted(results, key=lambda r: r.p)]
        assert accs == sorted(accs)

    def test_gear_sweep_with_hardware(self):
        results = sweep_gear_configs(8, r_values=[2], with_hardware=True)
        assert all(r.delay_ns is not None and r.luts is not None
                   for r in results)
        assert all(r.delay_ned_product is not None for r in results)

    def test_family_sweep(self):
        adders = [RippleCarryAdder(8), GeArAdder(GeArConfig(8, 2, 2)),
                  GracefullyDegradingAdder(8, 2, 2)]
        rows = sweep_adder_family(adders)
        assert [r.name for r in rows] == [a.name for a in adders]
        assert rows[0].error_probability == 0.0
        assert rows[1].med > 0

    def test_family_sweep_gda_matching_its_gear_point(self):
        # GDA(8,2,2) adds exactly like GeAr(8,2,2): analytic columns, but
        # k counts GDA's own four blocks.
        gda = GracefullyDegradingAdder(8, 2, 2)
        gear = GeArAdder(GeArConfig(8, 2, 2))
        row, ref = sweep_adder_family([gda, gear], med_fn=lambda a: -1.0)
        assert (row.r, row.p, row.k) == (2, 2, 4)
        assert (ref.r, ref.p, ref.k) == (2, 2, 3)
        assert row.med == ref.med > 0
        assert row.ned == ref.ned
        assert row.error_probability == ref.error_probability

    def test_family_sweep_etaii_matching_its_gear_point(self):
        etaii = ErrorTolerantAdderII(16, 8)
        row, ref = sweep_adder_family(
            [etaii, GeArAdder(GeArConfig(16, 4, 4))])
        assert (row.r, row.p, row.k) == (4, 4, len(etaii.windows))
        assert row.med == ref.med
        assert row.error_probability == ref.error_probability

    def test_family_sweep_gda_off_its_gear_layout(self):
        # GDA(20,4,6)'s blocks are not GeAr(20,4,6)'s windows: MED comes
        # from med_fn (NaN without one); the EP is still §4.4's model.
        gda = GracefullyDegradingAdder(20, 4, 6, enforce_multiple=False)
        row, = sweep_adder_family([gda], med_fn=lambda a: 7.0)
        assert (row.r, row.p, row.k) == (0, 0, 1)
        assert row.med == 7.0
        assert row.error_probability == paper_error_probability(gda)
        bare, = sweep_adder_family([gda])
        assert math.isnan(bare.med) and math.isnan(bare.ned)

    def test_family_sweep_med_fallback(self):
        from repro.adders.etai import ErrorTolerantAdderI

        rows = sweep_adder_family(
            [ErrorTolerantAdderI(8, 4)],
            med_fn=lambda adder: 5.0,
        )
        assert rows[0].med == 5.0
        assert rows[0].ned == pytest.approx(5.0 / 31)


class TestPareto:
    def test_dominates(self):
        good = _point("good", 0.01, 1.0, 10)
        bad = _point("bad", 0.02, 1.1, 11)
        assert dominates(good, bad)
        assert not dominates(bad, good)

    def test_incomparable(self):
        fast = _point("fast", 0.10, 0.5, 10)
        accurate = _point("accurate", 0.01, 2.0, 20)
        assert not dominates(fast, accurate)
        assert not dominates(accurate, fast)

    def test_front_extraction(self):
        pts = [
            _point("a", 0.01, 2.0, 20),
            _point("b", 0.10, 0.5, 10),
            _point("c", 0.10, 2.5, 25),  # dominated by both
        ]
        front = pareto_front(pts)
        assert [p.name for p in front] == ["a", "b"]

    def test_front_of_real_sweep_nonempty(self):
        results = sweep_gear_configs(8, with_hardware=False,
                                     r_values=[1, 2])
        front = pareto_front(
            results, objectives=[lambda r: r.error_probability,
                                 lambda r: -r.p]
        )
        assert front

    def test_select_config_thresholds(self):
        pts = [
            _point("coarse", 0.20, 0.5, 5),
            _point("fine", 0.001, 1.5, 15),
        ]
        assert select_config(pts, 99.0).name == "fine"
        assert select_config(pts, 50.0).name == "coarse"
        assert select_config(pts, 99.99) is None

    def test_select_config_validation(self):
        with pytest.raises(ValueError):
            select_config([], 120.0)


class TestTables:
    def test_render_alignment(self):
        table = Table(["a", "long_header"], title="T")
        table.add_row(1, 2.5)
        table.add_row("xx", None)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        assert "-" in lines[2]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header/sep/rows aligned

    def test_cell_formatting(self):
        table = Table(["x"])
        table.add_row(0.00001)
        table.add_row(True)
        table.add_row(None)
        text = table.render()
        assert "1.0000e-05" in text
        assert "yes" in text
        assert "-" in text

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_table_helper(self):
        text = format_table(["h"], [(1,), (2,)])
        assert text.count("\n") == 3

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])
