"""Unit tests for §3.1 configuration coverage (GeAr subsumes the baselines)."""

import numpy as np
import pytest

from repro.adders import (
    AccuracyConfigurableAdder,
    AlmostCorrectAdder,
    ErrorTolerantAdderII,
    GracefullyDegradingAdder,
)
from repro.core.coverage import classify_config
from repro.core.gear import GeArAdder, GeArConfig
from tests.conftest import random_pairs


class TestCoverageMappings:
    def test_aca1_mapping_parameters(self):
        cfg = AlmostCorrectAdder(16, 4).config
        assert (cfg.r, cfg.p, cfg.L) == (1, 3, 4)

    def test_aca1_functional_equivalence(self):
        aca = AlmostCorrectAdder(16, 4)
        gear = GeArAdder(aca.config)
        a, b = random_pairs(16, 3000, seed=1)
        np.testing.assert_array_equal(gear.add(a, b), aca.add(a, b))

    def test_aca2_mapping(self):
        aca2 = AccuracyConfigurableAdder(16, 8)
        cfg = aca2.config
        assert (cfg.r, cfg.p) == (4, 4)
        gear = GeArAdder(cfg)
        a, b = random_pairs(16, 3000, seed=2)
        np.testing.assert_array_equal(gear.add(a, b), aca2.add(a, b))

    def test_etaii_mapping(self):
        etaii = ErrorTolerantAdderII(16, 8)
        cfg = etaii.config
        assert (cfg.r, cfg.p) == (4, 4)
        gear = GeArAdder(cfg)
        a, b = random_pairs(16, 3000, seed=3)
        np.testing.assert_array_equal(gear.add(a, b), etaii.add(a, b))

    def test_gda_parameter_mapping(self):
        cfg = GracefullyDegradingAdder(16, 4, 8).config
        assert (cfg.r, cfg.p) == (4, 8)

    def test_invalid_aca_params(self):
        with pytest.raises(ValueError):
            AlmostCorrectAdder(16, 1)
        with pytest.raises(ValueError):
            AccuracyConfigurableAdder(16, 7)


class TestClassification:
    def test_aca1_point(self):
        matches = classify_config(GeArConfig(16, 1, 3))
        assert "ACA-I" in matches

    def test_half_half_point(self):
        matches = classify_config(GeArConfig(16, 4, 4))
        assert "ACA-II" in matches and "ETAII" in matches and "GDA" in matches

    def test_gda_only_multiple(self):
        matches = classify_config(GeArConfig(16, 4, 8))
        assert "GDA" in matches
        assert "ACA-II" not in matches

    def test_gear_only_point(self):
        matches = classify_config(GeArConfig(16, 4, 6, allow_partial=True))
        assert matches == ["GeAr-only"]

    def test_every_enumerated_config_classifies(self):
        from repro.core.configspace import enumerate_configs

        for cfg in enumerate_configs(12, allow_partial=True):
            assert classify_config(cfg)
