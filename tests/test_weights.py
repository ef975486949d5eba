import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetacorr as z
from zetacorr.quadrature import adaptive_integrate
from zetacorr.rounding import ELEM_REL, TRIG_ABS
from zetacorr.weights import EXP_FLOOR, SUPPORT_THRESHOLD

from oracles import grid_sup_norm, triplet_value_unmasked

LD = np.longdouble
LD_PI = np.arccos(LD(-1.0))
needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended"
)


def _hat_long_double(h, x):
    c, s = LD(h.center), LD(h.width)
    return 2 * s * np.exp(-LD_PI * s * s * x * x) * (np.cos(2 * LD_PI * c * x) - 1)


@pytest.fixture(scope="module")
def h():
    return z.gaussian_triplet(20.0, 2.0)


class TestConstruction:
    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            z.gaussian_triplet(0.0, 2.0)
        with pytest.raises(ValueError):
            z.gaussian_triplet(20.0, -1.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                z.gaussian_triplet(bad, 2.0)
            with pytest.raises(ValueError, match="finite and positive"):
                z.gaussian_triplet(20.0, bad)

    def test_config_roundtrip(self, h):
        d = h.to_config_dict()
        assert d == {"family": "gaussian_triplet", "c": 20.0, "s": 2.0}

    def test_family_is_not_a_field(self, h):
        assert [f.name for f in dataclasses.fields(h)] == ["center", "width"]
        with pytest.raises(TypeError):
            z.weights.GaussianTriplet(20.0, 2.0, "other")

    def test_negative_at_origin(self, h):
        assert float(h.value(0.0)) == pytest.approx(
            2.0 * math.exp(-math.pi * 100.0) - 2.0
        )
        assert float(h.value(0.0)) < 0.0


class TestMaskedValue:
    @pytest.mark.parametrize("center, width", [(20.0, 2.0), (5.0, 1.0), (1.0, 0.5)])
    def test_matches_unmasked_formula_bitwise(self, center, width):
        h = z.gaussian_triplet(center, width)
        c, s = center, width
        # x where a bump's exp argument -pi u^2 lies in [-800, -700],
        # across the floor and the subnormal results
        u = s * np.sqrt(np.linspace(700.0, 800.0, 20001) / math.pi)
        near = np.concatenate([shift + sign * u for shift in (c, -c, 0.0) for sign in (1, -1)])
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]
        x = np.concatenate([np.linspace(-60.0, 60.0, 240001), near, special])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = h.value(x)
        want = triplet_value_unmasked(h, x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(got[-3]) and got[-2] == got[-1] == 0.0

    # x whose side or middle bump has its exp argument in [-800, -700],
    # where the results turn subnormal and then 0, near +-c and 0
    PARAMS = st.sampled_from([(20.0, 2.0), (5.0, 1.0), (1.0, 0.5)])
    BAND = st.tuples(st.floats(700.0, 800.0), st.sampled_from([1.0, -1.0, 0.0]), st.sampled_from([1, -1]))

    @settings(max_examples=200, deadline=None)
    @given(PARAMS, st.lists(st.floats(), max_size=20), st.lists(BAND, max_size=20))
    def test_even_bit_for_bit(self, params, wide, band):
        # the direct route's mirror halving takes h(-x) for h(x)
        h = z.gaussian_triplet(*params)
        c, s = params
        near = [shift * c + sign * s * math.sqrt(t / math.pi) for t, shift, sign in band]
        x = np.array(wide + near + [0.0, -0.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, mirrored = h.value(x), h.value(-x)
        nan = np.isnan(got)
        assert np.array_equal(nan, np.isnan(mirrored)) and nan[-1]
        assert np.array_equal(got[~nan].view(np.int64), mirrored[~nan].view(np.int64))

    def test_exp_is_zero_below_floor(self):
        t = np.concatenate([np.linspace(-2000.0, EXP_FLOOR, 1_000_001), [-1e308, -np.inf]])
        assert np.array_equal(np.exp(t).view(np.int64), np.zeros(t.size, np.int64))


class TestTransformPair:
    def test_zero_mean(self, h):
        assert float(h.hat(0.0)) == 0.0
        num = adaptive_integrate(h.value, -50.0, 50.0, 1e-12)
        assert abs(num.value) < 1e-10

    def test_hat_matches_numeric_transform(self, h):
        for xi in (0.0, 0.5, 1.0, 3.0):
            num = adaptive_integrate(
                lambda x: h.value(x) * np.cos(2.0 * math.pi * x * xi),
                -45.0,
                45.0,
                1e-11,
            )
            assert float(h.hat(xi)) == pytest.approx(num.value, abs=1e-8)

    def test_hat_even(self, h):
        xs = np.linspace(0.0, 3.0, 101)
        assert np.array_equal(h.hat(xs), h.hat(-xs))

    def test_hat_nonpositive(self, h):
        xs = np.linspace(-4.0, 4.0, 20001)
        assert (h.hat(xs) <= 0.0).all()

    def test_hat_prime_matches_central_difference(self, h):
        # points chosen away from k/(2c), where the derivative vanishes
        # and a central difference would measure only its own error
        for xi in (0.033, 0.17, 0.467, 0.81):
            step = 1e-5
            fd = (float(h.hat(xi + step)) - float(h.hat(xi - step))) / (2 * step)
            cf = float(h.hat_prime(xi))
            scale = max(abs(cf), abs(fd))
            assert abs(cf - fd) / scale < 1e-6

    def test_plancherel(self, h):
        direct = adaptive_integrate(lambda x: h.value(x) ** 2, -45.0, 45.0, 1e-10)
        spectral = adaptive_integrate(lambda q: h.hat(q) ** 2, -4.0, 4.0, 1e-10)
        assert direct.value == pytest.approx(spectral.value, abs=1e-6)


class TestBounds:
    def test_support_cutoff_controls_values(self, h):
        cut = h.support_cutoff()
        sup = grid_sup_norm(h)
        xs = np.linspace(cut, cut + 30.0, 5001)
        assert (np.abs(h.value(xs)) <= 1e-14 * sup * 1.01).all()
        assert h.value_bound_beyond(cut) <= 3e-14 * sup

    @pytest.mark.parametrize("width", [0.5, 2.0, 7.0])
    def test_support_cutoff_is_the_grid_sup_cutoff(self, width):
        # |h(0)| <= sup|h|, so the cutoff is never below the one from the
        # sup; on this sweep |h(0)| is the grid maximum, so they are equal
        for ratio in np.geomspace(1e-3, 1e3, 400):
            h = z.gaussian_triplet(ratio * width, width)
            sup = grid_sup_norm(h)
            oracle = h.center + h.width * math.sqrt(
                math.log(3.0 / (SUPPORT_THRESHOLD * sup)) / math.pi
            )
            assert h.support_cutoff() == oracle, (h, abs(float(h.value(0.0))), sup)

    def test_tail_weight_bound_covers_numeric(self, h):
        for t_cut in (24.0, 28.0, 33.0):
            num = adaptive_integrate(
                lambda x: np.abs(h.value(x)), t_cut, t_cut + 40.0, 1e-13
            )
            assert h.tail_weight_bound(t_cut) >= num.value

    def test_hat_tail_bound_covers_numeric(self, h):
        for xi_cut in (0.5, 1.0, 1.5):
            num = adaptive_integrate(
                lambda q: np.abs(h.hat(q)), xi_cut, xi_cut + 4.0, 1e-14
            )
            assert h.hat_tail_integral(xi_cut) >= num.value

    def test_hat_envelope_bounds_hat(self, h):
        xi = np.linspace(-3.0, 3.0, 6001)
        envelope = np.array([h.hat_envelope(q) for q in xi])
        assert (np.abs(h.hat(xi)) <= envelope).all()

    def test_absolute_moment_finite(self, h):
        report = z.class_membership_report(h, 5)
        assert math.isfinite(report["integral_abs_xh"])
        assert report["integral_abs_xh"] > 0.0


class TestMembershipReport:
    def test_decay_constant_finite_for_required_class(self, h):
        report = z.class_membership_report(h, 5)
        assert math.isfinite(report["decay_constant"])
        assert report["zero_mean_ok"]

    def test_decay_constant_grows_with_class(self, h):
        low = z.class_membership_report(h, 2)["decay_constant"]
        high = z.class_membership_report(h, 6)["decay_constant"]
        assert high >= low

    def test_origin_support_flagged(self, h):
        assert z.class_membership_report(h, 4)["origin_in_support"] is True

    @pytest.mark.parametrize("center, width", [(20.0, 2.0), (1.0, 2.0)])
    def test_absolute_moment_bound_against_quadrature(self, center, width):
        # the bound is the integral of |x| times the three bumps' absolute
        # values; the triangle inequality is tight when they are apart
        tf = z.gaussian_triplet(center, width)
        g = lambda u: np.exp(-math.pi * u * u)
        c, s = center, width
        bumps = lambda x: np.abs(x) * (g((x - c) / s) + g((x + c) / s) + 2.0 * g(x / s))
        box = c + 10.0 * s  # beyond it both integrands have mass below 1e-100
        moments = adaptive_integrate(bumps, 0.0, box, 1e-10)
        exact = adaptive_integrate(lambda x: np.abs(x * tf.value(x)), 0.0, box, 1e-10)
        report = z.class_membership_report(tf, 2)
        assert report["integral_h"] == 0.0
        bound = report["integral_abs_xh"]
        assert bound == pytest.approx(2.0 * moments.value, rel=1e-12)
        assert bound >= 2.0 * (exact.value - exact.error_estimate)
        if c > 5.0 * s:
            assert bound == pytest.approx(2.0 * exact.value, rel=1e-12)


@needs_extended
class TestRoundingModel:
    def test_libm_within_model(self):
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e3, 1e6):
            x = rng.uniform(-scale, scale, 100_000)
            exact = x.astype(LD)
            z_exp = np.exp(1j * x)
            for got, want in (
                (z_exp.real, np.cos(exact)),
                (z_exp.imag, np.sin(exact)),
                (np.cos(x), np.cos(exact)),
            ):
                assert np.max(np.abs(got - want)) <= TRIG_ABS
        y = rng.uniform(0.5, 700.0, 100_000)
        exact = y.astype(LD)
        for got, want in (
            (np.exp(-y), np.exp(-exact)),
            (np.log(y), np.log(exact)),
            (y**3, exact**3),
        ):
            assert np.max(np.abs(got - want) / np.abs(want)) <= ELEM_REL

    @pytest.mark.parametrize("center", [20.0, 3.7e5])
    @pytest.mark.parametrize("xi_rel", [0.0, 1e-15])
    def test_hat_rounding_bound_covers_long_double(self, center, xi_rel):
        h = z.gaussian_triplet(center, 2.0)
        xi = np.linspace(0.0, 2.5, 20_001)
        # the float xi stands for an exact point within relative xi_rel
        exact = xi.astype(LD) * (1 + LD(xi_rel) * np.cos(np.arange(xi.size)))
        miss = np.abs(h.hat(xi) - _hat_long_double(h, exact)).astype(np.float64)
        bound = h.hat_rounding_bound(xi, xi_rel)
        assert np.all(miss <= bound)
        assert np.max(bound) <= 1e4 * max(np.max(miss), 1e-16)

    def test_hat_rounding_bound_grows_with_center(self):
        xi = np.linspace(0.01, 1.0, 100)
        small = z.gaussian_triplet(20.0, 2.0).hat_rounding_bound(xi)
        huge = z.gaussian_triplet(1e300, 2.0)
        # no digit of cos(2 pi c xi) survives: the bound covers the whole range of hhat
        assert np.all(huge.hat_rounding_bound(xi) >= np.abs(huge.hat(xi)))
        assert np.all(huge.hat_rounding_bound(xi) > 1e6 * small)
