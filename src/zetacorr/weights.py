"""Concrete weight functions with closed-form Fourier transforms.

The shipped family is a Gaussian triplet: two unit bumps at +-c minus a
double bump at the origin,

    h(x) = g((x-c)/s) + g((x+c)/s) - 2 g(x/s),   g(u) = exp(-pi u^2),

which integrates to zero by construction, is real and even, and has

    hhat(xi) = 2 s exp(-pi s^2 xi^2) (cos(2 pi c xi) - 1) <= 0.

Gaussian decay beats any polynomial, so the family sits inside every
decay class the correlation machinery needs; the membership report
returns the measured decay constant rather than a pass/fail verdict.

Its transform's rounding bound uses the floating-point model of
`rounding`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .rounding import ELEM_REL, TRIG_ABS, U

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)
# exp below this is under 2^-1096, far below half the least subnormal
# (2^-1075), so it rounds to +0.0 (the tests check numpy's exp there)
EXP_FLOOR = -760.0
# |h| beyond the support cutoff, as a share of |h(0)|
SUPPORT_THRESHOLD = 1e-14


def _exp(t: np.ndarray) -> np.ndarray:
    """np.exp(t) bit for bit, computed only where t >= EXP_FLOOR.

    numpy's exp takes about 16 ns on an argument whose result underflows
    to 0, against 1 ns in range (2-CPU Xeon), and about 30 % of the side
    bumps' arguments in the direct route lie below the floor.  The masked
    ufunc runs the plain loop over each run of kept entries; along a row
    of the direct route Delta is monotone, so those runs are long.  nan
    is kept, so it propagates.
    """
    return np.exp(t, out=np.zeros_like(t), where=~(t < EXP_FLOOR))


@dataclass(frozen=True)
class GaussianTriplet:
    """Weight h with bumps at +-center and a -2 bump at 0, width `width`."""

    center: float
    width: float
    family: ClassVar[str] = "gaussian_triplet"

    def value(self, x) -> np.ndarray:
        """h(x), vectorized."""
        x = np.asarray(x, dtype=np.float64)
        c, s = self.center, self.width
        g = lambda u: _exp(-math.pi * u * u)
        with np.errstate(over="ignore"):  # a huge u squares to inf, and g to 0
            return g((x - c) / s) + g((x + c) / s) - 2.0 * g(x / s)

    def hat(self, xi) -> np.ndarray:
        """Fourier transform (convention: integral of h(x) e^(-2 pi i x xi))."""
        xi = np.asarray(xi, dtype=np.float64)
        c, s = self.center, self.width
        # s * s overflows for s > 1e154, and inf * 0 is nan at xi = 0;
        # the report rejects such values (`correlation.build_report`)
        with np.errstate(invalid="ignore"):
            return (
                2.0
                * s
                * np.exp(-math.pi * s * s * xi * xi)
                * (np.cos(TWO_PI * c * xi) - 1.0)
            )

    def hat_rounding_bound(self, xi, xi_rel: float = 0.0) -> np.ndarray:
        """Bound on |hat(xi~) - hhat(xi)| for a float xi~ = xi (1 + d), |d| <= xi_rel.

        `hat` computes A * B with A = (2s) exp(x), x = -pi s s xi xi, and
        B = cos(y) - 1, y = 2 pi c xi, in the model of `rounding`:
        - x~ carries pi's rounding, four products and xi~: relative error
          rx = expm1(2 xi_rel + 5 U), so exp(x~) = exp(x)(1 + e) with
          |e| <= expm1(rx |x| + ELEM_REL); with 2s and the final product,
          A~ (1 + d_last) = A (1 + a), |a| <= alpha = expm1(rx |x| + ELEM_REL + 2U);
        - y~ carries TWO_PI's rounding, two products and xi~, so
          |cos(y~) - cos(y)| <= min(2, expm1(xi_rel + 3U) |y|); with cos's own
          TRIG_ABS and the rounding of "- 1" on a value in [-2, 0],
          |B~ - B| <= beta = min(2, ...) + TRIG_ABS + 2U.
        Then |hat - hhat| <= A (2 alpha + (1 + alpha) beta) with |B| <= 2, and
        A <= A~ / (1 - alpha) for the recomputed envelope A~.  This is where
        a large c shows: the cos argument error grows like c xi U.
        """
        xi = np.abs(np.asarray(xi, dtype=np.float64))
        c, s = self.center, self.width
        # an overflow (or the nan of s * s = inf at xi = 0) leaves alpha
        # not below 0.5, where the bound is inf
        with np.errstate(over="ignore", invalid="ignore"):
            x = math.pi * s * s * xi * xi
            alpha = np.expm1(math.expm1(2.0 * xi_rel + 5.0 * U) * x + ELEM_REL + 2.0 * U)
            arg_err = math.expm1(xi_rel + 3.0 * U) * (TWO_PI * c * xi)
            beta = np.minimum(2.0, arg_err) + TRIG_ABS + 2.0 * U
            envelope = 2.0 * s * np.exp(-x) / (1.0 - alpha)
            bound = envelope * (2.0 * alpha + (1.0 + alpha) * beta)
        return np.where(alpha < 0.5, bound, np.inf)

    def hat_prime(self, xi) -> np.ndarray:
        """Derivative of the Fourier transform, closed form."""
        xi = np.asarray(xi, dtype=np.float64)
        c, s = self.center, self.width
        envelope = s * np.exp(-math.pi * s * s * xi * xi)
        return envelope * (
            -TWO_PI * s * s * xi * (2.0 * np.cos(TWO_PI * c * xi) - 2.0)
            - 2.0 * TWO_PI * c * np.sin(TWO_PI * c * xi)
        )

    def support_cutoff(self) -> float:
        """X with |h(x)| <= SUPPORT_THRESHOLD * |h(0)| guaranteed for |x| >= X.

        Uses |h(x)| <= 3 exp(-pi ((|x|-c)/s)^2) for |x| >= c.  |h(0)| is at
        most sup|h|, so the cutoff is at least the one sup|h| would give.

        Raises:
            DomainError: h(0) is 0: c is so small, or s so large, that the
                three bumps cancel there in floating point.
        """
        at_origin = abs(float(self.value(0.0)))
        if not at_origin > 0.0:
            raise DomainError(
                f"the weight h (c={self.center:g}, s={self.width:g}) is 0 at the origin "
                "in floating point: its three bumps cancel exactly"
            )
        return self.center + self.width * math.sqrt(
            math.log(3.0 / (SUPPORT_THRESHOLD * at_origin)) / math.pi
        )

    def value_bound_beyond(self, x_cut: float) -> float:
        """Rigorous bound on sup |h(x)| over |x| >= x_cut (x_cut >= center)."""
        if x_cut < self.center:
            raise ValueError("bound valid only beyond the bump center")
        u = (x_cut - self.center) / self.width
        return 3.0 * math.exp(-math.pi * u * u)

    def tail_weight_bound(self, t_cut: float) -> float:
        """Bound on the one-sided mass integral of |h| over [t_cut, inf).

        Sum of the three Gaussian pieces via erfc; each piece has
        integral (s/2) erfc(sqrt(pi) (t - shift)/s).
        """
        s, c = self.width, self.center
        piece = lambda shift: 0.5 * s * math.erfc(SQRT_PI * (t_cut - shift) / s)
        return piece(c) + piece(-c) + 2.0 * piece(0.0)

    def hat_envelope(self, xi: float) -> float:
        """Bound 4 s exp(-pi s^2 xi^2) on |hhat(xi)|, decreasing in |xi|."""
        u = self.width * xi
        return 4.0 * self.width * math.exp(-math.pi * u * u)

    def hat_tail_integral(self, xi_cut: float) -> float:
        """Bound on the one-sided integral of |hhat| over [xi_cut, inf).

        The envelope of |hhat| integrates to 2 erfc(sqrt(pi) s xi).
        """
        if xi_cut < 0:
            raise ValueError("xi_cut must be >= 0")
        return 2.0 * math.erfc(SQRT_PI * self.width * xi_cut)

    def to_config_dict(self) -> dict:
        return {"family": self.family, "c": self.center, "s": self.width}


def gaussian_triplet(center: float, width: float) -> GaussianTriplet:
    """Validated constructor.

    Raises:
        ValueError: center or width not finite and positive.
    """
    if not all(math.isfinite(v) and v > 0 for v in (center, width)):
        raise ValueError("center and width must be finite and positive")
    return GaussianTriplet(center=float(center), width=float(width))


def class_membership_report(tf: GaussianTriplet, a_param: int) -> dict:
    """Decay-class constants for the weight function.

    Reports the sup over a xi grid of |hhat'(xi)| (1+|xi|)^(a+1)
    (finite, Gaussian decay dominating) and the integral of h, which is
    hhat(0) = 0 exactly.  `integral_abs_xh` is a bound on the integral
    of |x h(x)|, not its value: by the triangle inequality that integral
    is at most the three bumps' absolute first moments,

        2 s [c erf(sqrt(pi) c/s) + (s/pi) exp(-pi c^2/s^2)] + 2 s^2/pi,

    which it equals up to the bumps' overlap.

    Raises:
        ValueError: a_param < 1.
    """
    if a_param < 1:
        raise ValueError("decay parameter must be >= 1")
    xi = np.linspace(0.0, 8.0 / tf.width + tf.center, 200001)
    decay_constant = float(
        np.max(np.abs(tf.hat_prime(xi)) * (1.0 + xi) ** (a_param + 1))
    )
    c, s = tf.center, tf.width
    side_moment = c * math.erf(SQRT_PI * c / s) + s / math.pi * math.exp(
        -math.pi * (c / s) ** 2
    )
    return {
        "a_param": a_param,
        "decay_constant": decay_constant,
        "integral_h": 0.0,
        "integral_abs_xh": 2.0 * s * side_moment + 2.0 * s * s / math.pi,
        "zero_mean_ok": True,
        "origin_in_support": True,  # this family does not vanish near 0
    }
