"""Golden pin of the served verify document, and the vector-probe counter.

The sha256 covers the canonical bytes of the behavioural, compiled and
vector layers over the whole registry at N=8 — the bytes a served
``/verify`` returns for that body.  It was recorded before the scalar
model path was compiled into a per-adder window table, so any change to
a verdict, a vector count, a detail or a shrunk counterexample moves it.
``VERILOG_GOLDEN`` pins the verilog layer the same way at two widths.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.serve.protocol import canonical_bytes
from repro.verify import (
    VerifyOptions,
    check_vector,
    operand_vectors,
    registry_adder,
    verify_payload,
)

GOLDEN = "a45fc591b117eff51546f55bce7ae32153a08142b18ea9137bfa5fba08e0ac36"

# The verilog layer alone: N=8 is an exhaustive proof per adder, N=12 runs
# check_equivalence's corner and random regime.  Recorded before the gate
# interpreter moved to bit-packed lanes.
VERILOG_GOLDEN = {
    8: "c6a290ecddf3bdf76e44b23151f97f61d73700fcc65c0dd337edadd655ddac3d",
    12: "8e5cb098ad1c9f90320cd3074ea63a3498256b6352eec2a4594a11a67bb815e5",
}


def test_verify_payload_bytes_are_pinned():
    payload = verify_payload(None, VerifyOptions(
        width=8, layers=("behavioural", "compiled", "vector")))
    assert payload["ok"] is True
    assert hashlib.sha256(canonical_bytes(payload)).hexdigest() == GOLDEN


@pytest.mark.parametrize("width", sorted(VERILOG_GOLDEN))
def test_verilog_layer_bytes_are_pinned(width):
    payload = verify_payload(None, VerifyOptions(width=width, layers=("verilog",)))
    assert payload["ok"] is True
    assert hashlib.sha256(canonical_bytes(payload)).hexdigest() == VERILOG_GOLDEN[width]


def test_vector_probes_are_counted():
    with obs.collecting() as col:
        result = check_vector(registry_adder("gear_r2p2", 8),
                              operand_vectors(8), max_scalar=512)
    assert result.vectors == 512
    assert col.snapshot().counters["verify.vector.probes"] == 512


def test_failed_probe_run_counts_up_to_the_mismatch():
    class _SkewFrom:
        """Scalar add off by one once ``a`` reaches 8."""

        def __init__(self, model):
            self._model = model

        def __getattr__(self, name):
            return getattr(self._model, name)

        def add(self, a, b):
            result = self._model.add(a, b)
            if isinstance(result, np.ndarray):
                return result
            return result + (a >= 8)

    vectors = operand_vectors(4)  # a-major: pair j is (j // 16, j % 16)
    with obs.collecting() as col:
        result = check_vector(_SkewFrom(registry_adder("rca", 4)), vectors)
    assert result.details == {"method": "add"}
    assert col.snapshot().counters["verify.vector.probes"] == 8 * 16 + 1
