"""Golden identity pin for the behavioural models compiled from specs.

One sha256 covers, for every ``SPEC_CATALOG`` family at N in {8, 16},
the RCA/CLA/KSA factories at N in {1, 8, 32} and GeAr(32, 4, 24):

* the fingerprint and the model name,
* ``repr`` of the closed-form or PMF-reduced EP and MED, and max-ED,
* sha256 of ``add`` over every operand pair (N <= 8) or over a fixed
  seeded sample of 4096 pairs (wider models), plus a scalar-path probe.

The digest was recorded before the model classes were merged into one
``SpecAdder``; the exact wrappers of that time had no MED or max-ED
method, and their pinned values are the exact adder's 0.0 and 0.  Any
change to a model's identity, name, error statistics or sums moves it.
"""

import hashlib

import numpy as np

from repro.adders import (
    CarryLookaheadAdder,
    KoggeStoneAdder,
    RippleCarryAdder,
)
from repro.core.gear import GeArAdder, GeArConfig
from repro.spec.catalog import SPEC_CATALOG

GOLDEN = "5ee8fc6152ce2a8889630e93d57daf517b87a5f718e59d79ceab2a0d83b5ce4f"

SAMPLE = 4096
SCALAR_PROBES = 16


def _operands(width):
    if width <= 8:
        values = np.arange(1 << width, dtype=np.int64)
        return np.repeat(values, 1 << width), np.tile(values, 1 << width)
    rng = np.random.default_rng(2015)
    high = 1 << width
    return (rng.integers(0, high, SAMPLE, dtype=np.int64),
            rng.integers(0, high, SAMPLE, dtype=np.int64))


def _models():
    for key, family in SPEC_CATALOG.items():
        for width in (8, 16):
            yield f"{key}@{width}", family(width).to_model()
    for label, factory in (("RCA", RippleCarryAdder),
                           ("CLA", CarryLookaheadAdder),
                           ("KSA", KoggeStoneAdder)):
        for width in (1, 8, 32):
            yield f"{label}@{width}", factory(width)
    yield "GeAr(32,4,24)", GeArAdder(GeArConfig(32, 4, 24))


def _record(label, adder):
    a, b = _operands(adder.width)
    sums = np.asarray(adder.add(a, b), dtype=np.int64)
    scalars = [int(adder.add(int(x), int(y)))
               for x, y in zip(a[:SCALAR_PROBES], b[:SCALAR_PROBES])]
    return "|".join([
        label,
        adder.fingerprint(),
        adder.name,
        repr(adder.error_probability()),
        repr(adder.mean_error_distance()),
        str(adder.max_error_distance()),
        hashlib.sha256(sums.tobytes()).hexdigest(),
        ",".join(map(str, scalars)),
    ])


def identity_digest():
    text = "\n".join(_record(label, adder) for label, adder in _models())
    return hashlib.sha256(text.encode()).hexdigest()


def test_model_identity_matches_golden():
    assert identity_digest() == GOLDEN
