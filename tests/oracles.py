"""Independent oracles for test expectations.

These deliberately avoid the library's code paths: extended-precision
special functions via mpmath, and a plain bisection root finder. The
frozen literals in the test modules were produced by these oracles; the
checks in test_oracles keep the chain honest.
"""

import functools

import mpmath as mp

mp.mp.dps = 40


def mp_normal_cdf(y) -> float:
    return float(mp.ncdf(mp.mpf(y)))


def mp_log_normal_sf(y) -> float:
    return float(mp.log(mp.ncdf(-mp.mpf(y))))


def mp_normal_pdf(y) -> float:
    return float(mp.npdf(mp.mpf(y)))


def mp_reg_inc_beta(x, a, b) -> float:
    return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def mp_log_reg_inc_beta(x, a, b) -> float:
    return float(mp.log(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True)))


def mp_steutel_normal(y) -> float:
    y = mp.mpf(y)
    return float(-(mp.log(2) + mp.log(mp.ncdf(-y))) / (y * mp.log(y)))


def mp_quad(fn, lo, hi) -> float:
    return float(mp.quad(fn, [lo, hi]))


def bisect(fn, lo, hi, iters=100):
    """Plain bisection, the reference for the packaged root finder."""
    f_lo = fn(lo)
    assert f_lo * fn(hi) <= 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _mp_skew_normal_light(h, alpha):
    """S(-h) of the law 2 phi(y) Phi(alpha y), for alpha >= 0 and h >= 0.

    The integral identity S(-h) = 2 [T(h, inf) - T(h, alpha)], T Owen's,
        S(-h) = 1/pi int_alpha^inf exp(-h^2 (1+x^2)/2) / (1+x^2) dx,
    taken over the finite range x = cot(p), p in (0, atan(1/alpha)]:
        S(-h) = 1/pi int_0^atan(1/alpha) exp(-h^2 / (2 sin^2 p)) dp.
    The integrand peaks at the top end, at exp(-h^2 (1+alpha^2)/2), which
    is factored out; the range is split at multiples of its e-folding
    length there, and of h near 0, where it rises from 0 over p ~ h.
    20 digits leave four to spare over a double.
    """
    with mp.workdps(20):
        h, a = mp.mpf(h), mp.mpf(alpha)
        log_peak = -h * h * (1 + a * a) / 2
        top = mp.atan(1 / a) if a > 0 else mp.pi / 2
        integrand = lambda p: mp.exp(-h * h / (2 * mp.sin(p) ** 2) - log_peak)
        width = mp.sin(top) ** 3 / (h * h * mp.cos(top)) if h > 0 and a > 0 else top
        cuts = [top - width * 4 ** k for k in range(-1, 4)] + [h * 4 ** k for k in range(-1, 4)]
        cuts = sorted(c for c in cuts if 0 < c < top)
        return mp.exp(log_peak) / mp.pi * mp.quad(integrand, [0] + cuts + [top])


@functools.lru_cache(maxsize=None)
def mp_skew_normal_log_tails(y, alpha) -> tuple[float, float]:
    """(ln S(y), ln(1 - S(y))) of the skew-normal law with shape alpha.

    Negative shapes reflect, S_alpha(y) = 1 - S_-alpha(-y); for alpha >= 0
    the far side is 1 - S(h) = 2 Phi(-h) - S(-h) with S(-h) <= Phi(-h).
    """
    if alpha < 0:
        log_cdf, log_sf = mp_skew_normal_log_tails(-y, -alpha)
        return log_sf, log_cdf
    y = mp.mpf(y)
    light = _mp_skew_normal_light(abs(y), alpha)
    if y <= 0:
        return float(mp.log(light)), float(mp.log1p(-light))
    far = 2 * mp.ncdf(-y) - light
    return float(mp.log1p(-far)), float(mp.log(far))
