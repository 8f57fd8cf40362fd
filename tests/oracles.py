"""Independent oracles for test expectations.

These deliberately avoid the library's code paths: extended-precision
special functions via mpmath, and a plain bisection root finder. The
frozen literals in the test modules were produced by these oracles; the
checks in test_oracles keep the chain honest.
"""

import functools
import math

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
    length there. Near 0 it rises from 0 over p ~ h and then nears its
    limit like 1 - h^2 / (2 p^2), a pole's shadow that spans every scale
    from h to the top: the range is split at h 4^k all the way up. Cut at
    h 4^k for k < 4 only, the last segment lost 3.5e-15 of S(-h) at
    h = 2.5e-10, alpha = 1. Where h is below 1e-20 of the top that region
    holds less mass than 20 digits resolve, and gets no cuts. 20 digits
    leave four to spare over a double.
    """
    with mp.workdps(20):
        h, a = mp.mpf(h), mp.mpf(alpha)
        log_peak = -h * h * (1 + a * a) / 2
        top = mp.atan(1 / a) if a > 0 else mp.pi / 2
        integrand = lambda p: mp.exp(-h * h / (2 * mp.sin(p) ** 2) - log_peak)
        width = mp.sin(top) ** 3 / (h * h * mp.cos(top)) if h > 0 and a > 0 else top
        cuts = [top - width * 4 ** k for k in range(-1, 4)]
        if h > top * mp.mpf(10) ** -20:
            cuts += [h * 4 ** k for k in range(-1, int(mp.log(top / h, 4)) + 1)]
        cuts = sorted(c for c in cuts if 0 < c < top)
        return mp.exp(log_peak) / mp.pi * mp.quad(integrand, [0] + cuts + [top])


@functools.lru_cache(maxsize=None)
def mp_skew_normal_log_tails(y, alpha) -> tuple[float, float]:
    """(ln S(y), ln(1 - S(y))) of the skew-normal law with shape alpha.

    Negative shapes reflect, S_alpha(y) = 1 - S_-alpha(-y); for alpha >= 0
    the far side is 1 - S(h) = 2 Phi(-h) - S(-h) with S(-h) <= Phi(-h).
    Shape 0 is the normal law, S = Phi: from |y| ~ 1e10 the far side's
    difference would need h^2 to more digits than the integral is taken
    to, while for alpha > 0 S(-h) is below 2 Phi(-h) by e^(-alpha^2 h^2 / 2).
    """
    if alpha == 0:
        return float(mp.log(mp.ncdf(y))), float(mp.log(mp.ncdf(-y)))
    if alpha < 0:
        log_cdf, log_sf = mp_skew_normal_log_tails(-y, -alpha)
        return log_sf, log_cdf
    y = mp.mpf(y)
    light = _mp_skew_normal_light(abs(y), alpha)
    if y <= 0:
        return float(mp.log(light)), float(mp.log1p(-light))
    far = 2 * mp.ncdf(-y) - light
    return float(mp.log1p(-far)), float(mp.log(far))


def _mp_far_side(pi, y, jumps):
    """2 phi(y) int_0^inf exp(-|y| s - s^2/2) pi(y - s sgn y) ds, the mass
    on y's side away from 0 (below y for y <= 0, above it for y > 0).

    Near s = 0 the integrand decays over 1/|y|, so the range is split at
    multiples of that length, 2^k / |y|, and at the jumps of pi; a split
    at y + 1 and y + 4 alone was 1e-11 relative off at y = -40.
    """
    y = mp.mpf(y)
    sign = -1 if y <= 0 else 1
    scale = 1 / max(abs(y), 1)
    cuts = {scale * mp.mpf(2) ** k for k in range(-3, 9)}
    cuts |= {sign * (mp.mpf(t) - y) for t in jumps}
    cuts = sorted(c for c in cuts if c > 0)
    integrand = lambda s: mp.exp(-abs(y) * s - s * s / 2) * pi(y + sign * s)
    # mp.quad's tolerance is absolute: the integrand is scaled to order 1
    peak = max(integrand(c) for c in [mp.mpf(0)] + cuts) or 1
    return 2 * mp.npdf(y) * peak * mp.quad(lambda s: integrand(s) / peak, [0] + cuts + [mp.inf])


def _mp_near_side(pi, y, jumps):
    """The mass on 0's side of y (above y for y <= 0, below it for y > 0),
    split at 0, +-2^k and the jumps of pi."""
    y = mp.mpf(y)
    lo, hi = (y, mp.inf) if y <= 0 else (-mp.inf, y)
    cuts = {mp.mpf(0)} | {sign * mp.mpf(2) ** k for k in range(6) for sign in (-1, 1)}
    cuts = sorted(c for c in cuts | {mp.mpf(t) for t in jumps} if lo < c < hi)
    return mp.quad(lambda t: 2 * mp.npdf(t) * pi(t), [lo] + cuts + [hi])


@functools.lru_cache(maxsize=None)
def mp_skew_symmetric_log_tails(pi, y, jumps=()) -> tuple[float, float]:
    """(ln S(y), ln(1 - S(y))) of the law 2 phi(y) pi(y), for pi an mpmath
    function with pi(-y) = 1 - pi(y) and ``jumps`` the points where it
    jumps. The mass on y's far side from 0 is taken directly, and where
    it is above 1/2, the mass on the near side too: the log of each tail
    is that of the one at most 1/2, or log1p of minus it."""
    with mp.workdps(20):  # four digits to spare over a double
        far = _mp_far_side(pi, y, jumps)
        if far <= 0.5:
            logs = [mp.log(far) if far > 0 else -mp.inf, mp.log1p(-far)]
        else:
            near = _mp_near_side(pi, y, jumps)
            logs = [mp.log1p(-near), mp.log(near) if near > 0 else -mp.inf]
    logs = [float(v) for v in logs]
    return tuple(logs) if y <= 0 else tuple(logs[::-1])
