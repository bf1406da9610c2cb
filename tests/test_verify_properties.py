"""Property tests: scalar vs NumPy code-path agreement (satellite of ISSUE 3).

:class:`~repro.spec.model.SpecAdder` implements every
public method twice — a scalar branch for Python ints and a vectorised
branch for ndarrays.  Hypothesis draws random window geometries across all
windowed families (GeAr, ACA-I, ETAII, ETAIIM, GDA) and random operand
batches, and demands the two branches agree bit-for-bit on ``add``,
``error_distance`` and ``detection_flags``.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.adders import AlmostCorrectAdder
from repro.adders import ErrorTolerantAdderII
from repro.adders import ErrorTolerantAdderIIM
from repro.adders import GracefullyDegradingAdder
from repro.core.gear import GeArAdder, GeArConfig


@st.composite
def gear_adders(draw):
    n = draw(st.integers(4, 14))
    r = draw(st.integers(1, n - 2))
    p = draw(st.integers(1, n - r - 1))
    partial = (n - r - p) % r != 0
    return GeArAdder(GeArConfig(n, r, p, allow_partial=partial))


@st.composite
def aca1_adders(draw):
    n = draw(st.integers(4, 14))
    return AlmostCorrectAdder(n, draw(st.integers(2, n)))


@st.composite
def etaii_adders(draw):
    n = draw(st.integers(4, 14))
    length = draw(st.integers(1, n // 2)) * 2
    return ErrorTolerantAdderII(n, length, allow_partial=True)


@st.composite
def etaiim_adders(draw):
    half = draw(st.integers(1, 4))
    segments = draw(st.integers(2, 5))
    connected = draw(st.integers(1, segments))
    return ErrorTolerantAdderIIM(half * segments, 2 * half, connected)


@st.composite
def gda_adders(draw):
    mb = draw(st.sampled_from([1, 2, 3, 4]))
    blocks = draw(st.integers(2, 4))
    width = mb * blocks
    # The hierarchical CLA wants M_C to be a whole number of blocks.
    mc = mb * draw(st.integers(1, blocks - 1))
    return GracefullyDegradingAdder(width, mb, mc)


windowed_adders = st.one_of(
    gear_adders(), aca1_adders(), etaii_adders(), etaiim_adders(), gda_adders()
)


@st.composite
def adder_and_operands(draw):
    adder = draw(windowed_adders)
    top = (1 << adder.width) - 1
    count = draw(st.integers(1, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, top), st.integers(0, top)),
        min_size=count, max_size=count))
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    return adder, a, b


@given(adder_and_operands())
def test_add_scalar_matches_vector(case):
    adder, a, b = case
    batched = adder.add(a, b)
    assert isinstance(batched, np.ndarray)
    for i in range(a.size):
        scalar = adder.add(int(a[i]), int(b[i]))
        assert isinstance(scalar, int)
        assert scalar == int(batched[i]), adder.name


@given(adder_and_operands())
def test_error_distance_scalar_matches_vector(case):
    adder, a, b = case
    batched = adder.error_distance(a, b)
    for i in range(a.size):
        assert int(adder.error_distance(int(a[i]), int(b[i]))) \
            == int(batched[i]), adder.name


@given(adder_and_operands())
def test_detection_flags_scalar_matches_vector(case):
    adder, a, b = case
    batched = adder.detection_flags(a, b)
    for i in range(a.size):
        scalar = adder.detection_flags(int(a[i]), int(b[i]))
        assert len(scalar) == len(batched) == len(adder.windows)
        for win, (flag, flags_vec) in enumerate(zip(scalar, batched)):
            assert bool(flag) == bool(np.asarray(flags_vec)[i]), (
                f"{adder.name}: window {win} flag diverges at i={i}")


@given(adder_and_operands())
def test_flags_imply_error_and_window_zero_never_fires(case):
    # Cross-path semantic glue: window 0 is never speculative, and any
    # erroneous pair must raise at least one flag (§3.3 detection logic).
    adder, a, b = case
    flags = adder.detection_flags(a, b)
    assert not np.any(np.asarray(flags[0]))
    erred = np.asarray(adder.error_distance(a, b)) != 0
    fired = np.zeros(a.shape, dtype=bool)
    for flag in flags[1:]:
        fired |= np.asarray(flag).astype(bool)
    assert not np.any(erred & ~fired)
