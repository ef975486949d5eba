import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zetacorr import rounding
from zetacorr.rounding import exact_sum

# all floats (nan, infinities, subnormals, both zeros), and finite terms
# spread over the whole exponent range
any_float = st.floats(width=64)
spread = st.builds(
    math.ldexp,
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.integers(-1080, 1024),
)
finite = st.one_of(spread, st.floats(allow_nan=False, allow_infinity=False))


def _outcome(fn, values):
    try:
        return fn(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a is b


def _expected(values: list[float]):
    """math.fsum's outcome, except where fsum's own partial sums overflow."""
    got = _outcome(math.fsum, values)
    if got is not OverflowError:
        return got
    specials = [x for x in values if not math.isfinite(x)]
    if specials:
        return _outcome(math.fsum, specials)
    return _outcome(lambda v: float(sum(map(Fraction, v))), values)


class TestExactSum:
    @given(st.lists(st.one_of(any_float, spread), max_size=40))
    def test_matches_fsum(self, values):
        assert _same(_outcome(lambda v: exact_sum([np.array(v)]), values), _expected(values))

    @given(st.lists(finite, max_size=20))
    def test_exact_cancellation(self, values):
        both = values + [-x for x in reversed(values)] + [1.5]
        assert _same(exact_sum([np.array(both)]), 1.5)
        assert _same(exact_sum([np.array(both[:-1])]), 0.0)

    @given(st.lists(finite, max_size=40), st.lists(st.integers(0, 40), max_size=6))
    def test_pieces_give_same_sum(self, values, cuts):
        whole = np.array(values, dtype=np.float64)
        pieces = np.split(whole, sorted(min(c, whole.size) for c in cuts))
        expected = _outcome(lambda v: exact_sum([v]), whole)
        assert _same(_outcome(exact_sum, pieces), expected)
        assert _same(_outcome(exact_sum, pieces[::-1]), expected)
        assert _same(_outcome(exact_sum, iter(pieces)), expected)

    @given(st.lists(st.one_of(any_float, spread), max_size=40))
    def test_flush_and_pieces_inside_a_call(self, values):
        # tiny flush and piece sizes exercise the paths that otherwise
        # need 2^15 and 2^24 terms
        with patch.object(rounding, "_FLUSH", 7), patch.object(rounding, "_PIECE", 3):
            got = _outcome(lambda v: exact_sum([np.array(v), np.array(v[::-1])]), values)
        assert _same(got, _expected(values + values[::-1]))

    def test_edge_cases(self):
        assert _same(exact_sum([]), 0.0)
        assert _same(exact_sum([np.array([])]), 0.0)
        assert _same(exact_sum([np.array([-0.0])]), math.fsum([-0.0]))
        assert _same(exact_sum([np.array([-0.0, 0.0])]), 0.0)
        assert _same(exact_sum([np.array([1.0, -1.0])]), 0.0)
        assert exact_sum([np.full(3, 5e-324)]) == 1.5e-323
        assert exact_sum([np.array([2.0**-1074, 2.0**1023])]) == 2.0**1023
        assert math.isnan(exact_sum([np.array([1.0, math.nan, math.inf])]))
        assert exact_sum([np.array([1.0, -math.inf])]) == -math.inf
        with pytest.raises(ValueError):
            exact_sum([np.array([math.inf]), np.array([-math.inf])])

    def test_overflow_only_of_the_total(self):
        # the one intended difference from fsum: its partial sums overflow
        # here, while the exact total is representable
        values = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(values)
        assert exact_sum([np.array(values)]) == 1e308
        with pytest.raises(OverflowError):
            exact_sum([np.array([1e308, 1e308])])

    def test_large_stream_matches_fsum(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(200_000) * 10.0 ** rng.integers(-30, 30, 200_000)
        assert exact_sum(np.array_split(values, 13)) == math.fsum(values.tolist())
