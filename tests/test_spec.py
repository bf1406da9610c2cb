"""Property tests for the AdderSpec IR: round-trips and fingerprints.

The ISSUE acceptance for the spec layer is a *proof-shaped* guarantee:
``AdderSpec.from_json(spec.to_json()) == spec`` for arbitrary valid
specs, and the fingerprint is a total, stable function of the geometry
(equal specs → equal fingerprints; renames change the fingerprint but
never the sums).  Hypothesis sweeps the catalog generators over random
geometries so the properties hold for every family at once.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import AdderSpec, WindowSpec
from repro.spec.catalog import (
    SPEC_CATALOG,
    aca1_spec,
    aca2_spec,
    etaii_spec,
    etaiim_spec,
    exact_spec,
    gda_spec,
    gear_spec,
    hetero_spec,
    loa_spec,
)


@st.composite
def gear_geometries(draw):
    """Random (n, r, p) with at least one speculative sub-adder."""
    n = draw(st.sampled_from([8, 12, 16]))
    r = draw(st.integers(1, n // 2))
    p = draw(st.integers(1, n - r - 1))
    strict = (n - r - p) % r == 0
    return n, r, p, not strict


@st.composite
def catalog_specs(draw):
    """A random spec from a random family's generator."""
    kind = draw(st.sampled_from(
        ["gear", "aca1", "aca2", "etaii", "etaiim", "gda", "loa", "exact",
         "hetero"]))
    n = draw(st.sampled_from([8, 12, 16]))
    if kind == "gear":
        n, r, p, partial = draw(gear_geometries())
        return gear_spec(n, r, p, allow_partial=partial)
    if kind == "aca1":
        return aca1_spec(n, draw(st.integers(2, n - 1)))
    if kind == "aca2":
        l = draw(st.sampled_from([l for l in range(2, n, 2)
                                  if (n - l) % (l // 2) == 0]))
        return aca2_spec(n, l)
    if kind == "etaii":
        l = draw(st.sampled_from([l for l in range(2, n, 2)
                                  if (n - l) % (l // 2) == 0]))
        return etaii_spec(n, l)
    if kind == "etaiim":
        return etaiim_spec(n, 4, connected=draw(st.integers(2, 3)))
    if kind == "gda":
        mb = draw(st.sampled_from([m for m in (1, 2, 4) if n % m == 0]))
        mc = draw(st.sampled_from([c for c in (mb, 2 * mb, 4 * mb)
                                   if c < n]))
        return gda_spec(n, mb, mc)
    if kind == "loa":
        return loa_spec(n, draw(st.integers(0, n - 1)))
    if kind == "hetero":
        return hetero_spec(n)
    return exact_spec(n, draw(st.sampled_from(["rca", "cla", "ksa"])))


class TestJsonRoundTrip:
    @given(catalog_specs())
    @settings(max_examples=200, deadline=None)
    def test_from_json_inverts_to_json(self, spec):
        assert AdderSpec.from_json(spec.to_json()) == spec

    @given(catalog_specs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_fingerprint(self, spec):
        assert AdderSpec.from_json(spec.to_json()).fingerprint() == \
            spec.fingerprint()

    @given(catalog_specs())
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip_is_plain_json(self, spec):
        # to_dict must be JSON-serialisable with stdlib json alone.
        data = json.loads(json.dumps(spec.to_dict()))
        assert AdderSpec.from_dict(data) == spec

    def test_unknown_fields_rejected(self):
        data = exact_spec(8).to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ValueError, match="unknown spec fields"):
            AdderSpec.from_dict(data)

    def test_future_version_rejected(self):
        data = exact_spec(8).to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="unsupported spec version"):
            AdderSpec.from_dict(data)

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            AdderSpec.from_json("[1, 2, 3]")

    @pytest.mark.parametrize("field,value,fragment", [
        ("windows", None, "'windows' must be a list"),
        ("windows", [[]], "window 0: a window must be an object"),
        ("width", float("inf"), "field 'width'"),
        ("width", None, "field 'width'"),
        ("version", [2], "field 'version'"),
        ("rectify", ["kind"], "rectify: rectify must be an object"),
    ])
    def test_malformed_fields_raise_value_error(self, field, value,
                                                fragment):
        data = exact_spec(8).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=fragment):
            AdderSpec.from_dict(data)

    def test_malformed_window_fields_raise_value_error(self):
        data = exact_spec(8).to_dict()
        data["windows"][0]["low"] = float("inf")
        with pytest.raises(ValueError, match="window 0: field 'low'"):
            AdderSpec.from_dict(data)
        del data["windows"][0]["low"]
        with pytest.raises(ValueError, match="window 0: missing field 'low'"):
            AdderSpec.from_dict(data)
        data = exact_spec(8).to_dict()
        del data["name"]
        with pytest.raises(ValueError, match="missing field 'name'"):
            AdderSpec.from_dict(data)


class TestFingerprint:
    @given(gear_geometries())
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_is_deterministic(self, geom):
        n, r, p, partial = geom
        one = gear_spec(n, r, p, allow_partial=partial)
        two = gear_spec(n, r, p, allow_partial=partial)
        assert one == two
        assert one.fingerprint() == two.fingerprint()

    @given(catalog_specs())
    @settings(max_examples=50, deadline=None)
    def test_rename_changes_fingerprint_not_geometry(self, spec):
        other = spec.renamed(spec.name + "_alias")
        assert other.fingerprint() != spec.fingerprint()
        assert other.windows == spec.windows

    def test_catalog_fingerprints_distinct_at_common_width(self):
        width = 16
        prints = {}
        for key, family in SPEC_CATALOG.items():
            fp = family(width).fingerprint()
            assert fp not in prints, f"{key} collides with {prints[fp]}"
            prints[fp] = key

    def test_fingerprint_encodes_every_window_field(self):
        base = hetero_spec(8)
        # Perturbing the sub-adder architecture or the detect flag must
        # perturb the fingerprint even though name/width/coverage agree.
        w = base.windows[0]
        rearched = AdderSpec(
            name=base.name, width=base.width,
            windows=(WindowSpec(w.low, w.high, w.result_low, w.result_high,
                                "rca", w.pred),) + base.windows[1:],
            truncation=base.truncation, error_detect=base.error_detect)
        gear = gear_spec(8, 2, 2)
        undetected = AdderSpec(
            name=gear.name, width=gear.width, windows=gear.windows,
            truncation=gear.truncation, error_detect=False)
        prints = {base.fingerprint(), rearched.fingerprint(),
                  gear.fingerprint(), undetected.fingerprint()}
        assert len(prints) == 4


class TestValidation:
    def test_windows_must_cover_the_word(self):
        with pytest.raises(ValueError):
            AdderSpec(name="gap", width=8, windows=(
                WindowSpec(0, 3, 0, 3, "rca", "fused"),
                WindowSpec(5, 7, 5, 7, "rca", "fused"),
            ))

    def test_generator_predictors_require_rca(self):
        with pytest.raises(ValueError, match="rca"):
            AdderSpec(name="bad", width=8, windows=(
                WindowSpec(0, 3, 0, 3, "rca", "fused"),
                WindowSpec(2, 7, 4, 7, "cla", "gen_rca"),
            ))

    def test_truncation_below_first_window(self):
        with pytest.raises(ValueError):
            AdderSpec(name="bad", width=8, truncation=6, windows=(
                WindowSpec(4, 7, 4, 7, "rca", "fused"),
            ))
