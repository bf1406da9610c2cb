"""Hypothesis fuzz of the serve wire protocol.

Arbitrary JSON goes through every function the daemon runs on its event
loop before a request reaches a worker: ``build_request``,
``build_verify_options``, ``build_experiment`` and
``ServeDaemon._coalesce_key``.  The only allowed outcomes are a request
or a ``ValueError`` (``ProtocolError`` is one), which the daemon answers
with HTTP 400 — and a 400 is never remembered.

Fields are drawn either as arbitrary JSON or as near-valid values
(registry keys, widths, GeAr triples, catalog spec documents with one
field replaced by arbitrary JSON), so the fuzz reaches the deep
resolution paths and not only the unknown-field check.
"""

import asyncio
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import protocol
from repro.serve.daemon import ServeDaemon
from repro.spec import cesa_rect_spec
from repro.spec.catalog import catalog_spec
from repro.verify import LAYERS, default_registry

REGISTRY_KEYS = sorted(default_registry())
EXPERIMENT_NAMES = ["table3", "fig1", "table4", "sweep"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=10),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=10), inner,
                                     max_size=4)),
    max_leaves=10)

widths = st.integers(min_value=-2, max_value=40) | st.integers()
ints = widths | json_values

BASE_DOCS = [catalog_spec("gear_r2p2", 8).to_dict(),
             cesa_rect_spec(8, 2, 2).to_dict()]


def _mutated(doc, field, window, value):
    doc = json.loads(json.dumps(doc))
    if window is None:
        doc[field] = value
    else:
        target = doc["windows"][window % len(doc["windows"])]
        target[field] = value
    return doc


spec_docs = st.builds(
    _mutated, st.sampled_from(BASE_DOCS),
    st.sampled_from(["version", "name", "width", "truncation",
                     "error_detect", "windows", "rectify", "low", "high",
                     "result_low", "kind", "approx", "pred", "extra"]),
    st.none() | st.integers(min_value=0, max_value=8), json_values)

adder_refs = st.one_of(
    json_values,
    st.sampled_from(REGISTRY_KEYS),
    st.fixed_dictionaries(
        {"family": st.sampled_from(REGISTRY_KEYS) | json_values},
        optional={"width": ints}),
    st.fixed_dictionaries(
        {"gear": st.lists(ints, max_size=4) | json_values}),
    st.fixed_dictionaries({"spec": spec_docs | json_values}),
)

backends = st.sampled_from(["sampling", "analytic", "compiled", "auto",
                            "nope"]) | json_values


def _bodies(fields):
    """A dict body with any subset of ``fields``, sometimes one unknown."""
    body = st.fixed_dictionaries({}, optional=fields)
    return (body | body.map(lambda b: dict(b, bogus=1))
            | json_values)


eval_bodies = _bodies({
    "adder": adder_refs,
    "mode": st.sampled_from(["monte_carlo", "exhaustive", "fixed"])
    | json_values,
    "samples": ints,
    "seed": ints,
    "backend": backends,
    "thresholds": st.lists(st.floats() | json_values, max_size=3)
    | json_values,
})

verify_bodies = _bodies({
    "adders": st.lists(st.sampled_from(REGISTRY_KEYS) | json_values,
                       max_size=3) | json_values,
    "width": ints,
    "layers": st.lists(st.sampled_from(list(LAYERS)) | json_values,
                       max_size=4) | json_values,
    "samples": ints,
    "seed": ints,
    "backend": backends,
})

experiment_bodies = _bodies({
    "name": st.sampled_from(EXPERIMENT_NAMES) | json_values,
    "samples": ints,
    "seed": ints,
    "backend": backends,
})

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _refused(build, wire) -> bool:
    """True when ``build`` refuses ``wire`` with a 400-class error."""
    try:
        build(wire)
    except ValueError:
        return True
    return False


def _check_daemon(endpoint, wire):
    """The daemon's validation: a refusal answers 400 and stores nothing."""
    daemon = ServeDaemon(port=0)
    if not _refused(lambda w: daemon._coalesce_key(endpoint, w), wire):
        return
    body = json.dumps(wire).encode()
    status, payload = asyncio.run(
        daemon._dispatch("POST", f"/{endpoint}", body))
    assert status == 400, payload
    assert len(daemon.memo) == 0 and daemon.memo.bytes == 0


@FUZZ
@given(eval_bodies)
def test_eval_bodies_build_or_are_refused(wire):
    _refused(protocol.build_request, wire)
    _check_daemon("eval", wire)


@FUZZ
@given(verify_bodies)
def test_verify_bodies_build_or_are_refused(wire):
    _refused(protocol.build_verify_options, wire)
    _check_daemon("verify", wire)


@FUZZ
@given(experiment_bodies)
def test_experiment_bodies_build_or_are_refused(wire):
    _refused(protocol.build_experiment, wire)
    _check_daemon("experiment", wire)
