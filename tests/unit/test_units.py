"""Unit tests for :mod:`repro.units`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units


class TestConversions:
    def test_watts_to_kilowatts(self):
        assert units.watts_to_kilowatts(1500.0) == pytest.approx(1.5)

    def test_kilowatts_to_watts(self):
        assert units.kilowatts_to_watts(1.35) == pytest.approx(1350.0)

    def test_watt_roundtrip(self):
        assert units.kilowatts_to_watts(units.watts_to_kilowatts(777.0)) == pytest.approx(777.0)

    def test_joules_to_kwh(self):
        assert units.joules_to_kwh(3.6e6) == pytest.approx(1.0)

    def test_seconds_per_day(self):
        assert units.SECONDS_PER_DAY == 24 * units.SECONDS_PER_HOUR


class TestEnsurePositive:
    def test_accepts_positive_scalar(self):
        assert units.ensure_positive(3.0, "x") == 3.0

    def test_accepts_positive_array(self):
        arr = np.array([1.0, 2.0])
        assert units.ensure_positive(arr, "x") is arr

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            units.ensure_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="strictly positive"):
            units.ensure_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            units.ensure_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            units.ensure_positive(float("inf"), "x")

    def test_rejects_array_with_one_bad_element(self):
        with pytest.raises(ValueError):
            units.ensure_positive(np.array([1.0, 0.0]), "x")

    def test_error_names_the_parameter(self):
        with pytest.raises(ValueError, match="tdp_w"):
            units.ensure_positive(-5, "tdp_w")

    @pytest.mark.parametrize("value", [
        float("-inf"), -0.0, 0, -1, -(2**40), -5e-324,
    ])
    def test_scalar_fast_path_rejects(self, value):
        with pytest.raises(ValueError):
            units.ensure_positive(value, "x")

    @pytest.mark.parametrize("value", [5e-324, 2.2250738585072014e-308,
                                       1, 2**62, 1.7976931348623157e308])
    def test_scalar_fast_path_accepts_and_returns_value(self, value):
        assert units.ensure_positive(value, "x") is value

    def test_bool_takes_the_array_path(self):
        # ``bool`` is not exactly ``int``: it converts to 1.0 / 0.0.
        assert units.ensure_positive(True, "x") is True
        with pytest.raises(ValueError, match="strictly positive"):
            units.ensure_positive(False, "x")

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
    def test_huge_int_overflows(self, value):
        with pytest.raises(OverflowError):
            units.ensure_positive(value, "x")


def _outcome(call):
    try:
        call()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__
    return "ok"


class TestEnsurePositiveFastPathEquivalence:
    """The scalar fast path accepts and rejects exactly what the array
    path does (a one-element list always takes the array path)."""

    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True,
                  allow_subnormal=True),
        st.integers(),
        st.integers(min_value=2**1000, max_value=2**1100),
        st.sampled_from([0, -0.0, 5e-324, -5e-324, True, False,
                         math.inf, -math.inf, math.nan]),
    ))
    @settings(max_examples=300, deadline=None)
    def test_fast_path_matches_array_path(self, value):
        fast = _outcome(lambda: units.ensure_positive(value, "x"))
        array = _outcome(lambda: units.ensure_positive([value], "x"))
        assert fast == array


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert units.ensure_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            units.ensure_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            units.ensure_non_negative(float("nan"), "x")

    @pytest.mark.parametrize("value", [
        float("-inf"), float("inf"), -1, -(2**40), -5e-324,
        -2.2250738585072014e-308,
    ])
    def test_scalar_fast_path_rejects(self, value):
        with pytest.raises(ValueError):
            units.ensure_non_negative(value, "x")

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 5e-324, 1, 2**62,
                                       1.7976931348623157e308])
    def test_scalar_fast_path_accepts_and_returns_value(self, value):
        assert units.ensure_non_negative(value, "x") is value

    def test_bool_takes_the_array_path(self):
        assert units.ensure_non_negative(False, "x") is False
        assert units.ensure_non_negative(True, "x") is True

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
    def test_huge_int_overflows(self, value):
        with pytest.raises(OverflowError):
            units.ensure_non_negative(value, "x")


class TestEnsureFraction:
    def test_accepts_bounds(self):
        assert units.ensure_fraction(0.0, "x") == 0.0
        assert units.ensure_fraction(1.0, "x") == 1.0

    def test_accepts_interior(self):
        assert units.ensure_fraction(0.25, "x") == 0.25

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            units.ensure_fraction(1.01, "x")

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError):
            units.ensure_fraction(-0.01, "x")

    def test_array_support(self):
        arr = np.array([0.0, 0.5, 1.0])
        assert units.ensure_fraction(arr, "x") is arr

    @pytest.mark.parametrize("value", [
        float("-inf"), float("inf"), -1, 2, 2**40, -5e-324,
        1.0000000000000002,
    ])
    def test_scalar_fast_path_rejects(self, value):
        with pytest.raises(ValueError):
            units.ensure_fraction(value, "x")

    @pytest.mark.parametrize("value", [0, 1, 0.0, -0.0, 5e-324, 0.5,
                                       0.9999999999999999, 1.0])
    def test_scalar_fast_path_accepts_and_returns_value(self, value):
        assert units.ensure_fraction(value, "x") is value

    def test_bool_takes_the_array_path(self):
        assert units.ensure_fraction(True, "x") is True
        assert units.ensure_fraction(False, "x") is False

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
    def test_huge_int_overflows(self, value):
        with pytest.raises(OverflowError):
            units.ensure_fraction(value, "x")


_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(),
    st.integers(min_value=2**1000, max_value=2**1100),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 1, 1.0, 1.0000000000000002,
                     True, False, math.inf, -math.inf, math.nan]),
)


class TestScalarFastPathsMatchArrayPath:
    """``ensure_non_negative`` and ``ensure_fraction`` accept and reject
    exactly what their array paths do (a one-element list always takes
    the array path)."""

    @given(_SCALARS)
    @settings(max_examples=300, deadline=None)
    def test_non_negative(self, value):
        fast = _outcome(lambda: units.ensure_non_negative(value, "x"))
        array = _outcome(lambda: units.ensure_non_negative([value], "x"))
        assert fast == array

    @given(_SCALARS)
    @settings(max_examples=300, deadline=None)
    def test_fraction(self, value):
        fast = _outcome(lambda: units.ensure_fraction(value, "x"))
        array = _outcome(lambda: units.ensure_fraction([value], "x"))
        assert fast == array


class TestEnsureInRange:
    def test_accepts_in_range(self):
        assert units.ensure_in_range(5.0, 0.0, 10.0, "x") == 5.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            units.ensure_in_range(11.0, 0.0, 10.0, "x")

    def test_rejects_invalid_range(self):
        with pytest.raises(ValueError, match="invalid range"):
            units.ensure_in_range(5.0, 10.0, 0.0, "x")


class TestEnsureMonotonic:
    def test_accepts_increasing(self):
        assert units.ensure_monotonic_increasing([1, 2, 3], "x") == [1, 2, 3]

    def test_rejects_equal_neighbours(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            units.ensure_monotonic_increasing([1, 1, 2], "x")

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            units.ensure_monotonic_increasing([3, 2], "x")

    def test_empty_and_singleton_ok(self):
        assert units.ensure_monotonic_increasing([], "x") == []
        assert units.ensure_monotonic_increasing([7], "x") == [7]
