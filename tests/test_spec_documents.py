"""Spec documents are parsed strictly: a field of the wrong type is refused.

``AdderSpec.from_dict`` takes one integer rule for every integer field
(a bool or a non-integral number is a ``ValueError``; an integral float
such as ``8.0`` reads as 8), and string and boolean fields must carry
exactly that JSON type.  The property test mutates one field of a
catalog spec document into another JSON type or spelling; the only
allowed outcomes are the unmutated spec or a ``ValueError``, which the
CLI reports as exit 2 and the service as HTTP 400.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import ProtocolError, build_request
from repro.spec import AdderSpec
from repro.spec.catalog import SPEC_CATALOG, catalog_spec, gear_spec

#: Fields whose ``null`` spelling is a valid document meaning something
#: else (no rectify stage; every window rectified), so a null there is
#: not a type mutation.
_NULLABLE = ("rectify", "enabled")


def _slots(doc):
    """Every ``(container, key)`` of a spec document, nested ones included."""
    slots = [(doc, key) for key in doc]
    for window in doc["windows"]:
        slots.extend((window, key) for key in window)
    rectify = doc.get("rectify")
    if rectify is not None:
        slots.extend((rectify, key) for key in rectify)
        enabled = rectify.get("enabled") or []
        slots.extend((enabled, i) for i in range(len(enabled)))
    return slots


def _mutations(key, value):
    """Other JSON types and spellings of ``value``."""
    out = [str(value), [value], {"value": value}]
    if not isinstance(value, bool):
        out.append(True)
    if isinstance(value, bool):
        out.append(int(value))
    elif isinstance(value, int):
        out.extend([float(value), value + 0.5])
    if key not in _NULLABLE:
        out.append(None)
    return out


@st.composite
def mutated_documents(draw):
    key = draw(st.sampled_from(sorted(SPEC_CATALOG)))
    # Every catalog family is defined at these widths.
    spec = catalog_spec(key, draw(st.sampled_from([8, 10, 12, 16])))
    doc = copy.deepcopy(spec.to_dict())
    container, field = draw(st.sampled_from(_slots(doc)))
    container[field] = draw(st.sampled_from(
        _mutations(field, container[field])))
    return spec, doc


class TestMutatedDocuments:
    @given(mutated_documents())
    @settings(max_examples=400, deadline=None)
    def test_mutation_is_refused_or_harmless(self, case):
        spec, doc = case
        try:
            parsed = AdderSpec.from_dict(doc)
        except ValueError:
            return
        assert parsed == spec, doc


def _gear_doc(**fields):
    doc = gear_spec(8, 2, 2).to_dict()
    doc.update(fields)
    return doc


class TestFieldTypes:
    @pytest.mark.parametrize("width", [8.5, "8", True, None, float("inf")])
    def test_non_integer_width_refused(self, width):
        with pytest.raises(ValueError, match="field 'width' must be an integer"):
            AdderSpec.from_dict(_gear_doc(width=width))

    def test_integral_float_reads_as_int(self):
        assert AdderSpec.from_dict(_gear_doc(width=8.0)) == gear_spec(8, 2, 2)

    @pytest.mark.parametrize("field,value,fragment", [
        ("name", None, "field 'name' must be a str"),
        ("name", 7, "field 'name' must be a str"),
        ("error_detect", "yes", "field 'error_detect' must be a bool"),
        ("error_detect", 1, "field 'error_detect' must be a bool"),
        ("truncation", False, "field 'truncation' must be an integer"),
        ("version", "1", "field 'version' must be an integer"),
    ])
    def test_mistyped_top_level_field_refused(self, field, value, fragment):
        with pytest.raises(ValueError, match=fragment):
            AdderSpec.from_dict(_gear_doc(**{field: value}))

    @pytest.mark.parametrize("field,value,fragment", [
        ("low", "0", "window 0: field 'low' must be an integer"),
        ("high", 7.5, "window 0: field 'high' must be an integer"),
        ("arch", ["rca"], "window 0: field 'arch' must be a str"),
        ("pred", None, "window 0: field 'pred' must be a str"),
    ])
    def test_mistyped_window_field_refused(self, field, value, fragment):
        doc = _gear_doc()
        doc["windows"][0][field] = value
        with pytest.raises(ValueError, match=fragment):
            AdderSpec.from_dict(doc)

    def test_mistyped_static_window_fields_refused(self):
        doc = catalog_spec("hoeraa", 8).to_dict()
        doc["windows"][0]["approx"] = 1
        with pytest.raises(ValueError, match="field 'approx' must be a str"):
            AdderSpec.from_dict(doc)
        doc = catalog_spec("hoeraa", 8).to_dict()
        doc["windows"][0]["kind"] = True
        with pytest.raises(ValueError, match="field 'kind' must be a str"):
            AdderSpec.from_dict(doc)

    @pytest.mark.parametrize("enabled,fragment", [
        (["1"], "field 'enabled' must be an integer"),
        ([True], "field 'enabled' must be an integer"),
        ([1.5], "field 'enabled' must be an integer"),
        ("1", "field 'enabled' must be a list"),
    ])
    def test_mistyped_rectify_enabled_refused(self, enabled, fragment):
        doc = catalog_spec("cesa_rect", 8).to_dict()
        doc["rectify"]["enabled"] = enabled
        with pytest.raises(ValueError, match=f"rectify: {fragment}"):
            AdderSpec.from_dict(doc)


class TestServedDocuments:
    @pytest.mark.parametrize("width", [8.5, "8", True])
    def test_served_spec_with_non_integer_width_is_a_400(self, width):
        wire = {"adder": {"spec": _gear_doc(width=width)}, "samples": 100}
        with pytest.raises(ProtocolError, match="'width' must be an integer"):
            build_request(wire)
