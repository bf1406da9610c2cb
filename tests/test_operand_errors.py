"""Operand validation of the scalar and vectorised model entry points.

``add``, ``add_exact``, ``error_distance`` and ``detection_flags`` share
one operand check with a fast path for plain Python ints.  These tests
pin the exception type and message for every kind of bad operand, and
the answers for in-range operands at the widest widths, exactly as they
were before that fast path existed.
"""

import numpy as np
import pytest

from repro.spec.catalog import catalog_spec

METHODS = ("add", "add_exact", "error_distance", "detection_flags")

#: label -> (operand at N=8, exception type, message with ``{slot}``)
BAD_OPERANDS = {
    "bool": (True, TypeError,
             "{slot} must be an int or integer array, got bool"),
    "float": (1.5, TypeError,
              "{slot} must be an int or integer array, got float"),
    "np_float64": (np.float64(3.0), TypeError,
                   "{slot} must be an int or integer array, got float64"),
    "negative": (-1, ValueError, "{slot}=-1 does not fit in 8 bits"),
    "too_wide": (256, ValueError, "{slot}=256 does not fit in 8 bits"),
    "array_out_of_range": (np.array([0, 256]), ValueError,
                           "{slot} contains values outside [0, 255]"),
    "float_array": (np.array([1.0, 2.0]), TypeError,
                    "{slot} must be an integer array, got dtype float64"),
}

#: Windowed, rectified and fixed-low-part models.
KEYS = ("gear_r2p2", "cesa_rect", "loa_half")


def _call(key, method, a, b):
    return getattr(catalog_spec(key, 8).to_model(), method)(a, b)


def _raised(fn, *args):
    with pytest.raises(Exception) as excinfo:
        fn(*args)
    return type(excinfo.value), str(excinfo.value)


@pytest.mark.parametrize("label", sorted(BAD_OPERANDS))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("key", KEYS)
def test_bad_operand_error_is_unchanged(key, method, label):
    operand, kind, message = BAD_OPERANDS[label]
    if key == "loa_half" and method == "detection_flags":
        # The fixed-low-part refusal comes before any operand check.
        kind, message = ValueError, (
            "detection_flags rebuilds sums from the speculative windows; "
            "'loa_8_4' has a 4-bit fixed low part they do not cover")
    model = catalog_spec(key, 8).to_model()
    fn = getattr(model, method)
    assert _raised(fn, operand, 1) == (kind, message.format(slot="a"))
    assert _raised(fn, 1, operand) == (kind, message.format(slot="b"))


@pytest.mark.parametrize("method", METHODS)
def test_first_operand_is_checked_first(method):
    model = catalog_spec("gear_r2p2", 8).to_model()
    assert _raised(getattr(model, method), True, -1) == (
        TypeError, "a must be an int or integer array, got bool")


@pytest.mark.parametrize("key,method,expected", [
    ("gear_r2p2", "add", 6),
    ("gear_r2p2", "add_exact", 6),
    ("gear_r2p2", "error_distance", 0),
    ("gear_r2p2", "detection_flags", [0, 0, 0]),
    ("cesa_rect", "add", 6),
    ("cesa_rect", "error_distance", 0),
    ("cesa_rect", "detection_flags", [0, 0, 0]),
    ("loa_half", "add", 5),
    ("loa_half", "add_exact", 6),
    ("loa_half", "error_distance", 1),
])
def test_numpy_int64_operand_answers_a_python_int(key, method, expected):
    for a, b in ((np.int64(5), 1), (1, np.int64(5))):
        got = _call(key, method, a, b)
        assert got == expected
        values = got if isinstance(got, list) else [got]
        assert all(type(v) is int for v in values)


@pytest.mark.parametrize("width,total_max,total_mid", [
    (62, 9223372036854775806, 4611686018427412594),
    (63, 18446744073709551614, 9223372036854800498),
    (64, 36893488147419103230, 18446744073709576306),
])
def test_python_ints_at_the_widest_widths(width, total_max, total_mid):
    model = catalog_spec("gear_r2p2", width).to_model()
    k = len(model.windows)
    for x, total in ((2 ** width - 1, total_max),
                     (2 ** (width - 1) + 12345, total_mid)):
        assert model.add(x, x) == total
        assert model.add_exact(x, x) == total
        assert model.error_distance(x, x) == 0
        assert model.detection_flags(x, x) == [0] * k
    message = f"a={2 ** width} does not fit in {width} bits"
    for method in METHODS:
        assert _raised(getattr(model, method), 2 ** width, 2 ** width) == (
            ValueError, message)
