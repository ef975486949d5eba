import math

import numpy as np
import pytest

import zetacorr as z


@pytest.fixture(scope="module")
def h():
    return z.gaussian_triplet(20.0, 2.0)


class TestConstruction:
    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            z.gaussian_triplet(0.0, 2.0)
        with pytest.raises(ValueError):
            z.gaussian_triplet(20.0, -1.0)

    def test_config_roundtrip(self, h):
        d = h.to_config_dict()
        assert d == {"family": "gaussian_triplet", "c": 20.0, "s": 2.0}

    def test_negative_at_origin(self, h):
        assert float(h.value(0.0)) == pytest.approx(
            2.0 * math.exp(-math.pi * 100.0) - 2.0
        )
        assert float(h.value(0.0)) < 0.0


class TestTransformPair:
    def test_zero_mean(self, h):
        assert float(h.hat(0.0)) == 0.0
        num = z.adaptive_integrate(h.value, -50.0, 50.0, 1e-12)
        assert abs(num.value) < 1e-10

    def test_hat_matches_numeric_transform(self, h):
        for xi in (0.0, 0.5, 1.0, 3.0):
            num = z.adaptive_integrate(
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
        direct = z.adaptive_integrate(lambda x: h.value(x) ** 2, -45.0, 45.0, 1e-10)
        spectral = z.adaptive_integrate(lambda q: h.hat(q) ** 2, -4.0, 4.0, 1e-10)
        assert direct.value == pytest.approx(spectral.value, abs=1e-6)


class TestBounds:
    def test_support_cutoff_controls_values(self, h):
        cut = h.support_cutoff(1e-14)
        sup = h.sup_norm()
        xs = np.linspace(cut, cut + 30.0, 5001)
        assert (np.abs(h.value(xs)) <= 1e-14 * sup * 1.01).all()
        assert h.value_bound_beyond(cut) <= 3e-14 * sup

    def test_tail_weight_bound_covers_numeric(self, h):
        for t_cut in (24.0, 28.0, 33.0):
            num = z.adaptive_integrate(
                lambda x: np.abs(h.value(x)), t_cut, t_cut + 40.0, 1e-13
            )
            assert h.tail_weight_bound(t_cut) >= num.value

    def test_hat_tail_bound_covers_numeric(self, h):
        for xi_cut in (0.5, 1.0, 1.5):
            num = z.adaptive_integrate(
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
