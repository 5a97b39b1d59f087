"""Gaussian special functions of scalars or arrays.

Standard normal density and distribution, Owen's T-function, and a set of
closed-form Gaussian integrals expressed through it.  The first four take a
scalar, giving a float, or an array, validated once per call; the ``int_*``
integrals take scalars.  Every function is pure and safe to call concurrently.

The module-level tolerances are the ones the test suite holds these functions
to: ``IDENTITY_TOL`` for algebraic identities and ``QUADRATURE_TOL`` for
agreement with adaptive quadrature of the defining integrals.
"""

import math

import numpy as np
from scipy import special

from .geometry import _real_array

IDENTITY_TOL = 1e-12
QUADRATURE_TOL = 1e-10

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def _result(value):
    """A Python float for a 0-d value, the array otherwise."""
    return float(value) if np.ndim(value) == 0 else value


def _require_finite(name, value):
    array = _real_array(value, name)
    bad = array[~np.isfinite(array)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    return _result(array)


def std_normal_pdf(x):
    """Standard normal density phi(x); 0 where x * x overflows."""
    x = _require_finite("x", x)
    if isinstance(x, float):
        # a float product overflows to -inf without a warning, and the errstate below costs more than the rest
        return float(_INV_SQRT_2PI * np.exp(-0.5 * x * x))
    with np.errstate(over="ignore"):
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def std_normal_cdf(x):
    """Standard normal distribution function Phi(x).

    Evaluated through the complementary error function so both tails keep
    full relative accuracy.
    """
    return _result(special.ndtr(_require_finite("x", x)))


def std_normal_cdf_minus_half(x):
    """Phi(x) - 1/2 without cancellation for small ``x``."""
    return _result(0.5 * special.erf(_require_finite("x", x) / _SQRT_2))


def owens_t(h, a):
    """Owen's T-function T(h, a) = phi(h) * integral_0^a phi(h*z)/(1+z^2) dz.

    ``h`` must be finite; ``a`` may be +/-inf, handled exactly through
    T(h, inf) = Phi(-|h|)/2 and oddness in ``a``.  ``h`` and ``a`` broadcast
    against each other.  Useful identities, all of which hold here to
    ``IDENTITY_TOL`` or better:

        T(h, 0) = 0,  T(0, a) = arctan(a) / (2 pi),
        T(h, -a) = -T(h, a),  T(-h, a) = T(h, a).
    """
    h = _require_finite("h", h)
    a = _real_array(a, "a")
    if np.isnan(a).any():
        raise ValueError("a must not be NaN")
    if a.all() and not np.isinf(a).any():
        return _result(special.owens_t(h, a))
    # T(h, 0) = +0, and the limit is taken only where a is infinite
    h, a = np.broadcast_arrays(h, a)
    t, infinite = np.zeros(a.shape), np.isinf(a)
    t[infinite] = np.copysign(0.5 * special.ndtr(-np.abs(h[infinite])), a[infinite])
    finite = ~infinite & (a != 0.0)
    t[finite] = special.owens_t(h[finite], a[finite])
    return _result(t)


def int_phi_cdf(m: float, a: float, b: float) -> float:
    """Closed form of integral_0^m phi(z) * Phi(a + b*z) dz.

    With r = a / sqrt(1 + b^2), the value is

        T(m, r/m) + T(r, m/r) - T(m, a/m + b) - T(r, b + (m/a)(1 + b^2))
        + Phi(m) Phi(r) - Phi(r)/2 + T(r, b).

    The a = 0 case is the limit of this expression and is delegated to
    :func:`int_phi_cdf_linear` to avoid the divisions by ``a``.
    """
    m = _require_finite("m", m)
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    if m == 0.0:
        return 0.0
    if a == 0.0:
        return int_phi_cdf_linear(m, b)
    r = a / math.sqrt(1.0 + b * b)
    phi_m = std_normal_cdf(m)
    phi_r = std_normal_cdf(r)
    return (
        owens_t(m, r / m)
        + owens_t(r, m / r)
        - owens_t(m, a / m + b)
        - owens_t(r, b + (m / a) * (1.0 + b * b))
        + phi_m * phi_r
        - 0.5 * phi_r
        + owens_t(r, b)
    )


def int_phi_cdf_linear(m: float, b: float) -> float:
    """Closed form of integral_0^m phi(z) * Phi(b*z) dz.

    Equals Phi(m)/2 - 1/4 - T(m, b) + arctan(b) / (2 pi).
    """
    m = _require_finite("m", m)
    b = _require_finite("b", b)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    return (
        0.5 * std_normal_cdf(m)
        - 0.25
        - owens_t(m, b)
        + math.atan(b) / (2.0 * math.pi)
    )


def int_z_phi_phi(m: float, a: float, b: float) -> float:
    """Closed form of integral_0^m z * phi(z) * phi(a + b*z) dz.

    With r = a / sqrt(1 + b^2) and s = sqrt(1 + b^2):

        phi(r) * [ (phi(b*r) - phi(m*s + b*r)) / s^2
                   + (a*b / s^3) * (Phi(b*r) - Phi(m*s + b*r)) ].
    """
    m = _require_finite("m", m)
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    s2 = 1.0 + b * b
    s = math.sqrt(s2)
    r = a / s
    lo = b * r
    hi = m * s + b * r
    density_part = (std_normal_pdf(lo) - std_normal_pdf(hi)) / s2
    cdf_part = (a * b / (s2 * s)) * (std_normal_cdf(lo) - std_normal_cdf(hi))
    return std_normal_pdf(r) * (density_part + cdf_part)
