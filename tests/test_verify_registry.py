"""Registry integrity and fingerprint-collision safety.

The engine's shard cache keys on ``fingerprint()``: if two behaviourally
distinct adders ever shared one, the cache would silently serve the wrong
statistics.  These tests enumerate the full conformance registry (at
several widths) and prove that equal fingerprints imply identical
behaviour — and that the registry itself produces no collisions at all.
"""

import itertools

import numpy as np
import pytest

from repro.engine import fingerprint_adder
from repro.verify.registry import (
    DEFAULT_WIDTH,
    default_registry,
    registry_adder,
    select_entries,
)
from repro.verify.vectors import exhaustive_pairs

WIDTHS = (6, 8, 10)


def _buildable_models(width):
    models = []
    for key, entry in default_registry().items():
        if entry.supports(width):
            models.append((f"{key}@{width}", entry(width)))
    return models


class TestRegistry:
    def test_default_width_supports_everything(self):
        registry = default_registry()
        assert len(registry) >= 12
        for entry in registry.values():
            model = entry(DEFAULT_WIDTH)
            assert model.width == DEFAULT_WIDTH

    def test_min_width_is_enforced(self):
        for entry in default_registry().values():
            with pytest.raises(ValueError):
                entry(entry.min_width - 1)

    def test_supports_probes_without_raising(self):
        for entry in default_registry().values():
            for width in range(1, 12):
                assert isinstance(entry.supports(width), bool)

    def test_registry_adder_lookup(self):
        model = registry_adder("gear_r2p2", 8)
        assert model.width == 8
        with pytest.raises(ValueError, match="unknown adder"):
            registry_adder("nonesuch")

    def test_select_entries_validates_keys(self):
        assert len(select_entries(None)) == len(default_registry())
        assert [e.key for e in select_entries(["loa_half", "rca"])] == [
            "loa_half", "rca"]
        with pytest.raises(ValueError, match="unknown adder"):
            select_entries(["rca", "bogus"])

    def test_empty_selection_selects_nothing(self):
        from repro.verify import verify_registry

        assert select_entries([]) == []
        assert verify_registry([]) == []


class TestFingerprintSafety:
    """No two behaviourally distinct adders may share a fingerprint."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_no_collisions_within_a_width(self, width):
        models = _buildable_models(width)
        fingerprints = {}
        for label, model in models:
            fp = fingerprint_adder(model)
            assert fp not in fingerprints, (
                f"{label} and {fingerprints[fp]} share fingerprint {fp!r}"
            )
            fingerprints[fp] = label

    def test_no_collisions_across_widths(self):
        seen = {}
        for width in WIDTHS:
            for label, model in _buildable_models(width):
                fp = fingerprint_adder(model)
                assert fp not in seen, f"{label} collides with {seen[fp]}"
                seen[fp] = label

    def test_equal_fingerprints_imply_equal_behaviour(self):
        """The cache-safety contract itself, proven exhaustively at N=6.

        Fingerprint equality must imply behavioural equality.  We check
        the contrapositive over every registry pair: exhaustively compare
        sums, and demand distinct fingerprints whenever any pair differs.
        (Behaviourally identical pairs — e.g. ETAII vs ACA-II — may share
        or split fingerprints freely; both are cache-safe.)
        """
        width = 6
        a, b = exhaustive_pairs(width)
        models = _buildable_models(width)
        sums = {label: np.asarray(m.add(a, b)) for label, m in models}
        for (l1, m1), (l2, m2) in itertools.combinations(models, 2):
            if fingerprint_adder(m1) == fingerprint_adder(m2):
                assert np.array_equal(sums[l1], sums[l2]), (
                    f"{l1} and {l2} share a fingerprint but disagree "
                    "behaviourally — the shard cache would serve wrong stats"
                )

    def test_same_family_different_config_differs(self):
        # Window geometry must reach the fingerprint (the spec fingerprint
        # spells out every window).
        from repro.core.gear import GeArAdder, GeArConfig

        fp1 = fingerprint_adder(GeArAdder(GeArConfig(8, 2, 2)))
        fp2 = fingerprint_adder(GeArAdder(GeArConfig(8, 2, 4)))
        assert fp1 != fp2

    def test_width_reaches_the_fingerprint(self):
        entry = default_registry()["etaii_l4"]
        assert fingerprint_adder(entry(6)) != fingerprint_adder(entry(8))
