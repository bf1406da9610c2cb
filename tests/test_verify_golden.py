"""Golden pin of the served verify document, and the vector-probe counter.

The sha256 covers the canonical bytes of the behavioural, compiled and
vector layers over the whole registry at N=8 — the bytes a served
``/verify`` returns for that body.  It was recorded before the scalar
model path was compiled into a per-adder window table, so any change to
a verdict, a vector count, a detail or a shrunk counterexample moves it.
"""

import hashlib

import numpy as np

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


def test_verify_payload_bytes_are_pinned():
    payload = verify_payload(None, VerifyOptions(
        width=8, layers=("behavioural", "compiled", "vector")))
    assert payload["ok"] is True
    assert hashlib.sha256(canonical_bytes(payload)).hexdigest() == GOLDEN


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
