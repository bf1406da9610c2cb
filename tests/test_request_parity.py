"""One request path for the CLI and the wire.

``gear verify`` and ``gear experiment`` turn argv into the body the
service's ``/verify`` and ``/experiment`` take and call the same
:mod:`repro.serve.protocol` builders.  Each invalid input below is
given both ways and must be refused with the same message: the CLI
exits 2 with ``error: <msg>``, the builder raises ``ProtocolError(<msg>)``
and a served request answers HTTP 400 with ``<msg>``.  The count and
seed rules are argparse types on the CLI, which name the flag
(``argument --seed: ...``) where the wire names the field
(``field 'seed' ...``); the rule's own words match.

Also pins the width limit of ``gear verify``: its stimulus and sums are
int64, so width 62 runs and widths 63 and 64 are refused up front.
"""

import json

import pytest

from repro.cli import main
from repro.serve import (
    ServeClient,
    ServeDaemon,
    ServeError,
    protocol,
    start_background,
)

BUILDERS = {"verify": protocol.build_verify_options,
            "experiment": protocol.build_experiment}

WIDTH_LIMIT = ("width must be at most 62: verify operands and their sums "
               "are int64, got {}")
BACKENDS = "registered backends: analytic, compiled, sampling, auto"

# (argv, endpoint, wire body, the message both sides print)
REFUSALS = [
    (["verify", "--width", "300"], "verify", {"width": 300},
     "'width' must be at most 256, got 300"),
    (["verify", "--adder", "rca", "--width", "63", "--layer", "vector"],
     "verify", {"adders": ["rca"], "width": 63, "layers": ["vector"]},
     WIDTH_LIMIT.format(63)),
    (["verify", "--width", "64"], "verify", {"width": 64},
     WIDTH_LIMIT.format(64)),
    (["verify", "--seed", "-1"], "verify", {"seed": -1},
     "must be a non-negative integer, got -1"),
    (["experiment", "table3", "--seed", "-1"], "experiment",
     {"name": "table3", "seed": -1}, "must be a non-negative integer, got -1"),
    (["verify", "--samples", "0"], "verify", {"samples": 0},
     "must be a positive integer, got 0"),
    (["experiment", "table3", "--samples", "0"], "experiment",
     {"name": "table3", "samples": 0}, "must be a positive integer, got 0"),
    (["verify", "--backend", "typo"], "verify", {"backend": "typo"},
     f"unknown backend 'typo'; {BACKENDS}"),
    (["experiment", "sweep", "--backend", "typo"], "experiment",
     {"name": "sweep", "backend": "typo"},
     f"unknown backend 'typo'; {BACKENDS}"),
    (["verify", "--adder", "nonesuch"], "verify", {"adders": ["nonesuch"]},
     "unknown adders ['nonesuch']"),
    (["verify", "--layer", "stats", "--layer", "stats"], "verify",
     {"layers": ["stats", "stats"]},
     "'layers' must be a non-empty list of distinct layer names from "
     "['behavioural', 'verilog', 'stats', 'analytic', 'compiled', 'vector']"),
    (["verify", "--adder", "gear_r2p4", "--width", "6"], "verify",
     {"adders": ["gear_r2p4"], "width": 6},
     "no registered adder supports width 6"),
]


@pytest.fixture(scope="module")
def daemon():
    instance = ServeDaemon(port=0, workers=0)
    thread = start_background(instance)
    yield instance
    instance.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def client(daemon):
    with ServeClient(port=daemon.port) as instance:
        yield instance


def _cli_refusal(capsys, argv):
    """The last stderr line of a CLI run that must exit 2 printing nothing."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err.strip().splitlines()[-1]


def _wire_message(endpoint, wire):
    message = None
    try:
        BUILDERS[endpoint](wire)
    except protocol.ProtocolError as exc:
        message = str(exc)
    assert message is not None, f"{wire} was accepted"
    return message


@pytest.mark.parametrize("argv, endpoint, wire, message", REFUSALS)
def test_cli_and_wire_refuse_with_one_message(capsys, client, argv,
                                              endpoint, wire, message):
    line = _cli_refusal(capsys, argv)
    wire_message = _wire_message(endpoint, wire)
    assert message in line
    assert message in wire_message
    if not line.startswith("gear "):  # refused by the builder itself
        assert line == f"error: {wire_message}"

    with pytest.raises(ServeError) as excinfo:
        getattr(client, endpoint)(wire)
    assert excinfo.value.status == 400
    assert excinfo.value.message == wire_message


def test_width_62_verifies_on_the_cli_and_the_wire(capsys, client):
    argv = ["verify", "--adder", "rca", "--width", "62", "--layer", "vector",
            "--json"]
    assert main(argv) == 0
    cli = json.loads(capsys.readouterr().out)
    served = client.verify({"adders": ["rca"], "width": 62,
                            "layers": ["vector"]})
    assert served["ok"] is True
    assert served["reports"] == cli
    assert [report["width"] for report in cli] == [62]


@pytest.mark.parametrize("width", [63, 64])
def test_wider_than_62_bits_is_refused_before_any_layer_runs(capsys, client,
                                                             width):
    # Width 63 used to fail exact adders in the vector layer (wrapped
    # int64 sums), and width 64 died with an OverflowError in every
    # layer: a traceback on the CLI and HTTP 500 on the wire.
    for layers in (["vector"], ["behavioural"]):
        argv = ["verify", "--adder", "rca", "--width", str(width)]
        for layer in layers:
            argv += ["--layer", layer]
        line = _cli_refusal(capsys, argv)
        assert line == f"error: {WIDTH_LIMIT.format(width)}"
        with pytest.raises(ServeError) as excinfo:
            client.verify({"adders": ["rca"], "width": width,
                           "layers": layers})
        assert excinfo.value.status == 400
        assert excinfo.value.message == WIDTH_LIMIT.format(width)
