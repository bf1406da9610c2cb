"""Unit tests for the SAD / motion-estimation kernel."""

import numpy as np
import pytest

from repro.adders import RippleCarryAdder
from repro.apps.images import moving_block_pair, natural_image
from repro.apps.sad import motion_search, sad, sad_map
from repro.core.gear import GeArAdder, GeArConfig


class TestSad:
    def test_identical_blocks_zero(self):
        block = natural_image(8, 8, seed=1)
        assert sad(block, block) == 0

    def test_exact_reference(self):
        a = natural_image(8, 8, seed=2)
        b = natural_image(8, 8, seed=3)
        assert sad(a, b) == int(np.abs(a - b).sum())

    def test_exact_adder_matches_reference(self):
        a = natural_image(16, 16, seed=4)
        b = natural_image(16, 16, seed=5)
        assert sad(a, b, RippleCarryAdder(16)) == sad(a, b)

    def test_approximate_below_exact(self):
        a = natural_image(16, 16, seed=6)
        b = natural_image(16, 16, seed=7)
        adder = GeArAdder(GeArConfig(16, 4, 4))
        assert sad(a, b, adder) <= sad(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sad(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_overflow_guard(self):
        a = np.full((64, 64), 255, dtype=np.int64)
        b = np.zeros((64, 64), dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            sad(a, b, RippleCarryAdder(16))


class TestSadMap:
    def test_zero_displacement_minimises_identical_frames(self):
        frame = natural_image(32, 32, seed=8)
        scores = sad_map(frame, frame, origin=(8, 8), block=8, search=3)
        assert scores[3, 3] == 0
        assert scores.min() == 0

    def test_out_of_frame_candidates_sentinel(self):
        frame = natural_image(16, 16, seed=9)
        scores = sad_map(frame, frame, origin=(0, 0), block=8, search=2)
        assert scores[0, 0] == np.iinfo(np.int64).max  # dy=-2, dx=-2

    def test_block_bounds_checked(self):
        frame = natural_image(8, 8, seed=10)
        with pytest.raises(ValueError):
            sad_map(frame, frame, origin=(4, 4), block=8, search=1)


class TestMotionSearch:
    def test_finds_known_shift_exact(self):
        ref, frame = moving_block_pair(48, 48, shift=(2, 3), seed=11)
        mv = motion_search(frame, ref, origin=(16, 16), block=16, search=4)
        assert mv == (2, 3)

    def test_accurate_gear_finds_same_vector(self):
        ref, frame = moving_block_pair(48, 48, shift=(2, 3), seed=12)
        adder = GeArAdder(GeArConfig(16, 4, 8))
        mv = motion_search(frame, ref, origin=(16, 16), block=16, search=4,
                           adder=adder)
        assert mv == (2, 3)

    def test_deterministic_tie_break(self):
        frame = np.zeros((16, 16), dtype=np.int64)
        mv = motion_search(frame, frame, origin=(4, 4), block=4, search=2)
        assert mv == (0, 0)  # all-zero scores: smallest displacement wins
