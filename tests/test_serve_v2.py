"""Serve-tier resolution and coalescing for IR v2 adders.

The wire protocol predates IR v2, so these tests pin the two things a
v2 rollout must not break: references to the new catalog families (and
full v2 spec documents) resolve to the right models, and the in-flight
coalescing key inherits the fingerprint split — a rectified spec and
its unrectified twin describe *different* computations and must never
share an ``/eval`` leader, even when every other wire field matches.
"""

import pytest

from repro.serve import protocol
from repro.spec import SpecAdder
from repro.spec.catalog import (
    catalog_spec,
    cesa_rect_spec,
    gear_spec,
    hoeraa_spec,
    loa_static_spec,
)


# ---------------------------------------------------------------------------
# adder-reference resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["cesa_rect", "hoeraa", "loa_static"])
def test_new_families_resolve_by_reference(family):
    adder = protocol.resolve_adder({"family": family, "width": 8})
    assert type(adder) is SpecAdder
    assert adder.spec == catalog_spec(family, 8)
    assert adder.width == 8
    assert adder.fingerprint() == catalog_spec(family, 8).to_model().fingerprint()


@pytest.mark.parametrize("spec", [
    cesa_rect_spec(8), hoeraa_spec(8, 4), loa_static_spec(8, 4),
], ids=lambda s: s.name)
def test_v2_spec_documents_resolve(spec):
    via_wire = protocol.resolve_adder({"spec": spec.to_dict()})
    assert via_wire.fingerprint() == spec.to_model().fingerprint()


def test_v1_spec_documents_still_resolve():
    spec = catalog_spec("gear_r2p2", 8)
    assert spec.to_dict()["version"] == 1
    via_wire = protocol.resolve_adder({"spec": spec.to_dict()})
    assert via_wire.fingerprint() == spec.to_model().fingerprint()


def test_malformed_v2_document_is_a_protocol_error():
    document = cesa_rect_spec(8).to_dict()
    document["rectify"] = {"kind": "oracle"}
    with pytest.raises(protocol.ProtocolError, match="rectify"):
        protocol.resolve_adder({"spec": document})


# ---------------------------------------------------------------------------
# coalescing: rectified vs unrectified twins never share a leader
# ---------------------------------------------------------------------------

def _eval_key(spec):
    request = protocol.build_request({
        "adder": {"spec": spec.to_dict()},
        "mode": "exhaustive",
    })
    return protocol.eval_coalesce_key(request)


def test_rectified_twin_never_coalesces_with_base():
    rect = cesa_rect_spec(8, 2, 2)
    twin = gear_spec(8, 2, 2, allow_partial=True, error_detect=True,
                     name=rect.name)
    # Identical name, width and window geometry; only the declared
    # rectify stage differs — and so must the request digest.
    assert twin.windows == rect.windows
    rect_key, twin_key = _eval_key(rect), _eval_key(twin)
    assert rect_key is not None and twin_key is not None
    assert rect_key != twin_key


def test_static_approx_split_reaches_the_coalescer():
    assert _eval_key(hoeraa_spec(8, 4)) != _eval_key(loa_static_spec(8, 4))


def test_same_document_coalesces_with_itself():
    spec = cesa_rect_spec(8)
    assert _eval_key(spec) == _eval_key(spec)
    # ... and with an independently constructed equal spec.
    assert _eval_key(spec) == _eval_key(cesa_rect_spec(8))
