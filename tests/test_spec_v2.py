"""Spec IR v2: static windows, rectification stages, and migration.

The v2 contract has three proof-shaped halves:

* **Backward compatibility** — version-1 documents load (migrated
  forward, not rejected), round-trip back to ``"version": 1``, and
  every spec expressible in v1 keeps its exact ``spec/v1:`` fingerprint
  byte for byte, so no engine cache entry or registry identity moves.
* **Forward semantics** — static windows (LOA ``or`` / HOERAA) and
  ``rectify`` stages validate strictly, fingerprint under a disjoint
  ``spec/v2:`` prefix, and behave exactly as their closed-form
  references at every operand pair.
* **Six-layer conformance** — the three new catalog families pass the
  whole oracle stack exhaustively at N=8 with zero family-specific
  oracle code (the ISSUE payoff criterion, as a test).
"""

import itertools
import json
from dataclasses import replace

import pytest

from repro.engine.analytic import adder_error_pmf
from repro.spec import (
    AdderSpec,
    RectifySpec,
    SpecAdder,
    WindowSpec,
)
from repro.spec.catalog import (
    catalog_spec,
    cesa_rect_spec,
    gear_spec,
    hoeraa_spec,
    loa_static_spec,
)
from repro.verify import VerifyOptions, verify_registry


def exhaustive_pairs(width):
    return itertools.product(range(1 << width), repeat=2)


# ---------------------------------------------------------------------------
# backward compatibility: v1 documents and fingerprints are frozen
# ---------------------------------------------------------------------------

#: Byte-for-byte fingerprint pins.  A v2 code change that moves any of
#: these silently invalidates engine caches and registry identities for
#: every pre-existing spec; fail loudly instead.
V1_FINGERPRINT_PINS = {
    "gear_r2p2": ("spec/v1:gear_8_2_2:w8:t0:d1:"
                  "[0.3.0.3.rca.fused;2.5.4.5.rca.fused;4.7.6.7.rca.fused]"),
    "loa_half": "spec/v1:loa_8_4:w8:t4:d0:[4.7.4.7.rca.fused]",
    "rca": "spec/v1:rca_8:w8:t0:d0:[0.7.0.7.rca.fused]",
    "hetero": ("spec/v1:hetero_8:w8:t0:d0:"
               "[0.2.0.2.ksa.fused;1.4.3.4.cla.fused;3.7.5.7.rca.gen_rca]"),
}


class TestV1Compatibility:
    @pytest.mark.parametrize("key", sorted(V1_FINGERPRINT_PINS))
    def test_v1_fingerprints_are_byte_identical(self, key):
        assert catalog_spec(key, 8).fingerprint() == V1_FINGERPRINT_PINS[key]

    def test_v1_document_migrates_forward(self):
        # A pinned pre-v2 wire document: loads without error, compares
        # equal to the generator's spec, and does NOT get rewritten to
        # version 2 on the way back out.
        document = {
            "version": 1,
            "name": "gear_8_2_2",
            "width": 8,
            "truncation": 0,
            "error_detect": True,
            "windows": [
                {"low": 0, "high": 3, "result_low": 0, "result_high": 3,
                 "arch": "rca", "pred": "fused"},
                {"low": 2, "high": 5, "result_low": 4, "result_high": 5,
                 "arch": "rca", "pred": "fused"},
                {"low": 4, "high": 7, "result_low": 6, "result_high": 7,
                 "arch": "rca", "pred": "fused"},
            ],
        }
        spec = AdderSpec.from_dict(document)
        assert spec == gear_spec(8, 2, 2, allow_partial=True,
                                 error_detect=True)
        assert spec.to_dict()["version"] == 1
        assert spec.fingerprint().startswith("spec/v1:")
        assert AdderSpec.from_json(spec.to_json()) == spec

    def test_v1_shapes_never_emit_v2_documents(self):
        for key in ("gear_r2p2", "loa_half", "rca", "hetero"):
            spec = catalog_spec(key, 8)
            assert not spec.uses_v2
            assert spec.to_dict()["version"] == 1
            assert "rectify" not in spec.to_dict()

    def test_unsupported_version_names_the_known_set(self):
        document = catalog_spec("rca", 8).to_dict()
        document["version"] = 99
        with pytest.raises(ValueError,
                           match="unsupported spec version 99.*1 and 2"):
            AdderSpec.from_dict(document)

    def test_v1_document_cannot_smuggle_v2_features(self):
        document = hoeraa_spec(8, 4).to_dict()
        assert document["version"] == 2
        document["version"] = 1
        with pytest.raises(ValueError, match="version 1 documents cannot"):
            AdderSpec.from_dict(document)
        rect = cesa_rect_spec(8).to_dict()
        rect["version"] = 1
        with pytest.raises(ValueError, match="version 1 documents cannot"):
            AdderSpec.from_dict(rect)


# ---------------------------------------------------------------------------
# v2 round-trips and fingerprint disjointness
# ---------------------------------------------------------------------------

class TestV2Identity:
    @pytest.mark.parametrize("spec", [
        cesa_rect_spec(8), cesa_rect_spec(12, 2, 4),
        hoeraa_spec(8, 4), hoeraa_spec(12, 5),
        loa_static_spec(8, 4), loa_static_spec(16, 6),
    ], ids=lambda s: s.name)
    def test_v2_round_trip(self, spec):
        document = spec.to_dict()
        assert document["version"] == 2
        again = AdderSpec.from_dict(json.loads(json.dumps(document)))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        assert spec.fingerprint().startswith("spec/v2:")

    def test_rectified_twin_fingerprints_differ(self):
        base = gear_spec(8, 2, 2, allow_partial=True, error_detect=True)
        rect = cesa_rect_spec(8, 2, 2)
        assert base.fingerprint().startswith("spec/v1:")
        assert rect.fingerprint().startswith("spec/v2:")
        # Same geometry; only the declared rectify stage separates them.
        assert base.windows == rect.windows

    def test_rectify_tap_choice_is_part_of_the_identity(self):
        base = gear_spec(8, 2, 2, allow_partial=True, error_detect=True)
        full = replace(base, rectify=RectifySpec())
        partial = replace(base, rectify=RectifySpec(enabled=(1,)))
        assert full.fingerprint() != partial.fingerprint()

    def test_static_approx_is_part_of_the_identity(self):
        assert (hoeraa_spec(8, 4).fingerprint()
                != loa_static_spec(8, 4).fingerprint())


# ---------------------------------------------------------------------------
# v2 validation diagnostics
# ---------------------------------------------------------------------------

def _rect_document(**overrides):
    document = cesa_rect_spec(8).to_dict()
    document["rectify"] = {**document["rectify"], **overrides}
    return document


class TestV2Validation:
    def test_unknown_window_kind(self):
        with pytest.raises(ValueError, match="unknown window kind 'frob'"):
            WindowSpec(0, 3, 0, 3, kind="frob")

    def test_unknown_static_approx(self):
        with pytest.raises(ValueError, match="approx"):
            WindowSpec(0, 3, 0, 3, kind="static", approx="sota")

    def test_speculative_window_rejects_approx(self):
        with pytest.raises(ValueError, match="approx"):
            WindowSpec(0, 3, 0, 3, approx="or")

    def test_static_window_must_come_first(self):
        good = loa_static_spec(8, 4)
        bad_windows = (good.windows[1],
                       WindowSpec(4, 7, 4, 7, kind="static", approx="or"))
        with pytest.raises(ValueError):
            AdderSpec(name="bad", width=8,
                      windows=(WindowSpec(0, 3, 0, 3),) + bad_windows[1:])

    def test_static_window_excludes_truncation(self):
        good = loa_static_spec(8, 4)
        with pytest.raises(ValueError, match="truncation"):
            AdderSpec(name="bad", width=8, truncation=2,
                      windows=good.windows)

    def test_rectify_requires_error_detect(self):
        base = gear_spec(8, 2, 2, allow_partial=True, error_detect=False)
        with pytest.raises(ValueError, match="error_detect"):
            replace(base, rectify=RectifySpec())

    def test_unknown_rectify_kind(self):
        with pytest.raises(ValueError, match="rectify"):
            AdderSpec.from_dict(_rect_document(kind="oracle"))

    @pytest.mark.parametrize("enabled", [[0], [3], [2, 2], [2, 1]])
    def test_bad_rectify_taps(self, enabled):
        with pytest.raises(ValueError):
            AdderSpec.from_dict(_rect_document(enabled=enabled))

    def test_unknown_rectify_field(self):
        with pytest.raises(ValueError, match="rectify"):
            AdderSpec.from_dict(_rect_document(latency=3))


# ---------------------------------------------------------------------------
# behaviour: closed-form references, exhaustively at N=8
# ---------------------------------------------------------------------------

def hoeraa_reference(a, b, width, k):
    """HOERAA closed form: OR bits [0, k-2], half-adder at k-1, its
    AND feeds the accurate upper adder as carry-in."""
    low_mask = (1 << (k - 1)) - 1
    low = (a | b) & low_mask
    top = ((a ^ b) >> (k - 1)) & 1
    cin = ((a & b) >> (k - 1)) & 1
    high = ((a >> k) + (b >> k) + cin) << k
    return high | (top << (k - 1)) | low


class TestV2Behaviour:
    def test_hoeraa_matches_closed_form(self):
        model = hoeraa_spec(8, 4).to_model()
        assert type(model) is SpecAdder
        for a, b in exhaustive_pairs(8):
            assert model.add(a, b) == hoeraa_reference(a, b, 8, 4)

    def test_loa_static_twin_matches_v1_truncation(self):
        # The same LOA written two ways — v1 truncation field, v2 static
        # window — must be the same function.
        v2 = loa_static_spec(8, 4).to_model()
        v1 = catalog_spec("loa_half", 8).to_model()
        for a, b in exhaustive_pairs(8):
            assert v2.add(a, b) == v1.add(a, b)

    def test_full_rectification_is_exact(self):
        base = gear_spec(8, 2, 2, allow_partial=True, error_detect=True)
        spec = replace(base, rectify=RectifySpec())
        model = spec.to_model()
        assert type(model) is SpecAdder
        for a, b in exhaustive_pairs(8):
            assert model.add(a, b) == a + b
        pmf = adder_error_pmf(model)
        assert pmf.support == (0,)
        assert pmf.probabilities == (1.0,)

    def test_partial_rectification_never_hurts(self):
        spec = cesa_rect_spec(8, 2, 2)
        rect = spec.to_model()
        plain = SpecAdder(gear_spec(8, 2, 2, allow_partial=True,
                                    error_detect=True))
        for a, b in exhaustive_pairs(8):
            exact = a + b
            assert abs(exact - rect.add(a, b)) <= abs(exact - plain.add(a, b))


# ---------------------------------------------------------------------------
# analytic backend: exact against brute-force enumeration
# ---------------------------------------------------------------------------

def brute_force_pmf(model, width):
    counts = {}
    for a, b in exhaustive_pairs(width):
        err = model.add(a, b) - (a + b)
        counts[err] = counts.get(err, 0) + 1
    total = float(1 << (2 * width))
    return {err: n / total for err, n in sorted(counts.items())}


@pytest.mark.parametrize("spec", [
    cesa_rect_spec(8), hoeraa_spec(8, 4), loa_static_spec(8, 4),
    cesa_rect_spec(10, 2, 2), hoeraa_spec(6, 3),
], ids=lambda s: s.name)
def test_analytic_pmf_is_exact(spec):
    model = spec.to_model()
    pmf = adder_error_pmf(model)
    analytic = dict(zip(pmf.support, pmf.probabilities))
    observed = brute_force_pmf(model, spec.width)
    assert set(analytic) == set(observed)
    for err, p in observed.items():
        assert analytic[err] == pytest.approx(p, abs=1e-9)
    assert max(abs(e) for e in analytic) <= spec.max_error_distance()


# ---------------------------------------------------------------------------
# the payoff criterion: six oracles, zero family-specific oracle code
# ---------------------------------------------------------------------------

class TestSixLayerConformance:
    def test_new_families_pass_every_layer_exhaustively(self):
        reports = verify_registry(
            ["cesa_rect", "hoeraa", "loa_static"],
            options=VerifyOptions(width=8))
        assert len(reports) == 3
        for report in reports:
            assert len(report.layers) == 6
            assert report.ok, (
                f"{report.key}: "
                f"{[(r.layer, r.message) for r in report.layers]}")
            behavioural = report.layer("behavioural")
            assert behavioural.exhaustive
            assert behavioural.vectors == 1 << 16


# ---------------------------------------------------------------------------
# CLI: kind columns and sourced lint diagnostics
# ---------------------------------------------------------------------------

class TestCliV2:
    def test_spec_list_shows_stage_column(self, capsys):
        from repro.cli import main

        assert main(["spec", "list"]) == 0
        out = capsys.readouterr().out
        for needle in ("windowed+err+rect", "static:or", "static:hoeraa"):
            assert needle in out

    def test_verify_list_adders_shows_kind_column(self, capsys):
        from repro.cli import main

        assert main(["verify", "--list-adders"]) == 0
        out = capsys.readouterr().out
        assert "bespoke" in out            # hand-written models
        assert "windowed+err+rect" in out  # cesa_rect

    def test_spec_lint_accepts_a_file_path(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "good.json"
        path.write_text(cesa_rect_spec(8).to_json())
        assert main(["spec", "lint", str(path)]) == 0
        assert "cesa_rect_8_2_2" in capsys.readouterr().out

    def test_spec_lint_bad_kind_is_a_sourced_diagnostic(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        document = json.loads(cesa_rect_spec(8).to_json())
        document["windows"][0]["kind"] = "frob"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["spec", "lint", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "unknown window kind 'frob'" in err
