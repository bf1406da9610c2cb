"""Property-style checks tying the optimiser to lint and to equivalence.

For every architecture the builder registry can construct (at width 8, so
the joint input space stays within the exhaustive-equivalence bound):

* ``optimize`` must preserve functionality — proven, not sampled,
* ``sweep`` output must carry no dead-logic lint findings,
* ``strash`` output must carry no duplicate-gate lint findings.

This is the executable form of the contract that the ``dead-logic`` and
``duplicate-gate`` rules share their definitions (``opt.live_nets`` /
``opt.strash_key``) with the optimiser itself.
"""

import pytest

from repro.rtl.builders import build_named
from repro.rtl.equivalence import check_equivalence
from repro.rtl.lint import lint_netlist
from repro.rtl.opt import optimize, strash, sweep

#: Width-8 instances of every registered architecture: 16 joint input bits,
#: comfortably below check_equivalence's exhaustive threshold (22).
LOCAL_MATRIX = [
    ("rca", (8,)),
    ("cla", (8,)),
    ("ksa", (8,)),
    ("csla", (8, 4)),
    ("cska", (8, 4)),
    ("gear", (8, 2, 2)),
    ("gear_cla", (8, 2, 2)),
    ("gear_corrected", (8, 2, 2)),
    ("aca1", (8, 4)),
    ("aca2", (8, 4)),
    ("etaii", (8, 4)),
    ("gda", (8, 4, 4)),
    ("loa", (8, 4)),
]

_IDS = [" ".join([name, *map(str, params)]) for name, params in LOCAL_MATRIX]


@pytest.fixture(params=LOCAL_MATRIX, ids=_IDS)
def netlist(request):
    name, params = request.param
    return build_named(name, *params)


def test_optimize_preserves_function(netlist):
    report = check_equivalence(netlist, optimize(netlist))
    assert report.exhaustive, "width-8 adders must be checked exhaustively"
    assert report.equivalent, report.counterexample


def test_sweep_output_has_no_dead_logic(netlist):
    report = lint_netlist(sweep(netlist), rules=["dead-logic"])
    assert not report.diagnostics, report.format_text()


def test_strash_output_has_no_duplicates(netlist):
    report = lint_netlist(strash(netlist), rules=["duplicate-gate"])
    assert not report.diagnostics, report.format_text()


def test_optimized_output_stays_error_free(netlist):
    report = lint_netlist(optimize(netlist))
    assert report.ok(), report.format_text()


def test_build_named_rejects_unknown():
    with pytest.raises(ValueError, match="unknown builder"):
        build_named("carry-save", 8)


@pytest.mark.parametrize("name,params", [
    ("gear", (12, 4)),
    ("gear", (12, 4, 4, 1)),   # would otherwise set allow_partial
    ("gda", (16, 4, 4, 0)),
    ("hetero", (16, 2)),
])
def test_build_named_rejects_wrong_parameter_count(name, params):
    with pytest.raises(TypeError, match="parameter"):
        build_named(name, *params)
