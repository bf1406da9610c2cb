"""Byte pins of the CLI outputs that read a GeAr window layout.

``gear info``, ``gear verilog --hierarchical`` and ``gear sweep --json``
report window geometry, exact EP/MED/max-ED and NED of GeAr points.
Those facts have one source, the point's ``AdderSpec``; these literals
were recorded from the CLI while the layout still had a second
derivation on ``GeArConfig``, so any drift between the two shows here.
"""

import hashlib
import json

import pytest

from repro.cli import main

INFO = {
    ("12", "4", "4"): (
        "GeAr(N=12, R=4, P=4), L=8, k=2\n"
        "covers: ACA-II, ETAII, GDA\n"
        "error probability (paper model): 0.02929688\n"
        "error probability (exact DP)   : 0.02929688\n"
        "mean error distance (analytic) : 7.5000\n"
        "max error distance             : 256\n"
        "windows (low..high -> result bits):\n"
        "  sub-adder 1: [7:0] -> S[7:0] (P=0)\n"
        "  sub-adder 2: [11:4] -> S[11:8] (P=4)\n"
        "FPGA model: delay=1.118 ns, LUTs=13, gates=65, depth=15\n"
    ),
    # Partial: the last window is anchored at the top of the word.
    ("20", "3", "7"): (
        "GeAr(N=20, R=3, P=7), L=10, k=5\n"
        "covers: GeAr-only\n"
        "error probability (paper model): 0.01366186\n"
        "error probability (exact DP)   : 0.01074219\n"
        "mean error distance (analytic) : 511.5000\n"
        "max error distance             : 599040\n"
        "windows (low..high -> result bits):\n"
        "  sub-adder 1: [9:0] -> S[9:0] (P=0)\n"
        "  sub-adder 2: [12:3] -> S[12:10] (P=7)\n"
        "  sub-adder 3: [15:6] -> S[15:13] (P=7)\n"
        "  sub-adder 4: [18:9] -> S[18:16] (P=7)\n"
        "  sub-adder 5: [19:10] -> S[19:19] (P=9)\n"
        "FPGA model: delay=1.166 ns, LUTs=29, gates=165, depth=19\n"
    ),
    # Exact: one window spanning the word.
    ("8", "4", "4"): (
        "GeAr(N=8, R=4, P=4), L=8, k=1\n"
        "covers: ACA-II, ETAII, GDA\n"
        "error probability (paper model): 0.00000000\n"
        "error probability (exact DP)   : 0.00000000\n"
        "mean error distance (analytic) : 0.0000\n"
        "max error distance             : 0\n"
        "windows (low..high -> result bits):\n"
        "  sub-adder 1: [7:0] -> S[7:0] (P=0)\n"
        "FPGA model: delay=1.118 ns, LUTs=8, gates=37, depth=15\n"
    ),
}

#: SHA-256 and length of ``gear verilog 12 4 4 --hierarchical``.
HIERARCHICAL_SHA256 = (
    "dfa882f9ae9219b55dbc869cb478fd4d0d1c16a1fbc67904dbaeaf3448f14dd0")
HIERARCHICAL_BYTES = 2721

#: SHA-256 and length of ``gear sweep 12 --r 4 --no-hardware --json``.
SWEEP_SHA256 = (
    "b2120a3f8f3391cf4d5f426ac4f1f8ee2c8ec6d12a4af3f610cd505186be8f4e")
SWEEP_BYTES = 2682


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("params", sorted(INFO), ids="_".join)
def test_info_output_pinned(capsys, params):
    assert _stdout(capsys, ["info", *params]) == INFO[params]


def test_hierarchical_verilog_pinned(capsys):
    out = _stdout(capsys, ["verilog", "12", "4", "4", "--hierarchical"])
    assert len(out.encode()) == HIERARCHICAL_BYTES
    assert hashlib.sha256(out.encode()).hexdigest() == HIERARCHICAL_SHA256


def test_sweep_json_pinned(capsys):
    out = _stdout(capsys, ["sweep", "12", "--r", "4", "--no-hardware",
                           "--json"])
    rows = json.loads(out)["rows"]
    # Readable spot checks first, so a drift names the column that moved.
    assert [(row["p"], row["k"]) for row in rows] == [
        (1, 3), (2, 3), (3, 3), (4, 2), (5, 2), (6, 2), (7, 2)]
    assert rows[0]["med"] == 63.5
    assert rows[0]["ned"] == 0.11672794117647059
    assert rows[3]["error_probability"] == 0.029296875
    assert len(out.encode()) == SWEEP_BYTES
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256
