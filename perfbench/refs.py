"""Reference values computed apart from skewlab, and the command that caches them.

Every number here comes from mpmath at 40 significant digits, either in
closed form or by quadrature over finite segments; no skewlab code is
imported. Quadrature over an infinite interval is never trusted for a
tail: mpmath's ``quad(npdf, [-inf, -30])`` gives ln = -454.32111 against
the true -454.32124, because the variable change spreads its nodes over
a range far wider than the 1/30-wide region that holds the mass. Tails
are therefore integrated over segments that start at the ordinate with
the local decay width 1/|d ln s/dy| and double outward until the
integrand has fallen by e^-130.

    python3 perfbench/refs.py          # rebuild perfbench/refs.json

The cached file holds the references the workloads compare against; the
quantile checks and the certify right-hand sides also call the
functions below at run time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

REFS_PATH = Path(__file__).resolve().with_name("refs.json")

# A drop of e^-130 below the running peak ends a tail integral: the rest
# is below 1e-56 of what was summed, past the 40 digits carried.
_TAIL_DROP = 130


def _pi_function(family: str, params: dict):
    """(pi, is_closed_form) for a skew-symmetric family in CLI terms."""
    if family == "azzalini":
        alpha = mp.mpf(params["alpha"])
        return (lambda t: mp.ncdf(alpha * t)), False
    kind = params["pi"]
    alpha = mp.mpf(params.get("alpha", 1.0))
    if kind == "logistic":
        return (lambda t: 1 / (1 + mp.exp(-alpha * t))), False
    if kind == "cauchy-cdf":
        return (lambda t: mp.mpf(1) / 2 + mp.atan(alpha * t) / mp.pi), False
    if kind == "sign":
        return (lambda t: mp.mpf(1) if t >= 0 else mp.mpf(0)), True
    raise ValueError(f"no reference for skewing function {kind!r}")


class Law:
    """Reference density, CDF and survival function of one composition.

    ``family`` and ``params`` use the CLI vocabulary, so the same
    description builds the skewlab mechanism and its reference.
    """

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = dict(params)
        self._pi = None
        self._nodes = None
        closed = True
        if family in ("azzalini", "skewsym-custom"):
            self._pi, closed = _pi_function(family, params)
        elif family == "marshall-olkin":
            self.gamma = mp.mpf(params["gamma"])
        elif family == "orderstats":
            self.psi1, self.psi2 = mp.mpf(params["psi1"]), mp.mpf(params["psi2"])
        elif family.startswith("twopiece"):
            if family == "twopiece-eps":
                g = mp.mpf(params["gamma"])
                self.a, self.b = 1 - g, 1 + g
            elif family == "twopiece-isf":
                g = mp.mpf(params["gamma"])
                self.a, self.b = 1 / g, g
            else:
                self.a, self.b = mp.mpf(params["a"]), mp.mpf(params["b"])
        else:
            raise ValueError(f"no reference for family {family!r}")
        self.quadrature = not closed

    def attach_nodes(self, nodes: dict) -> None:
        """Use cached node values as anchors: a tail at y is then the
        nearest node's value plus one short quadrature to y."""
        self._nodes = nodes

    # -- density -----------------------------------------------------------

    def pdf(self, y):
        y = mp.mpf(y)
        fam = self.family
        if self._pi is not None:
            return 2 * mp.npdf(y) * self._pi(y)
        if fam == "marshall-olkin":
            x = mp.ncdf(y)
            return mp.npdf(y) * self.gamma / (x + self.gamma * mp.ncdf(-y)) ** 2
        if fam == "orderstats":
            return (mp.npdf(y) * mp.ncdf(y) ** (self.psi1 - 1) * mp.ncdf(-y) ** (self.psi2 - 1)
                    / mp.beta(self.psi1, self.psi2))
        c = self.b if y < 0 else self.a
        return 2 / (self.a + self.b) * mp.npdf(y / c)

    # -- cumulative --------------------------------------------------------

    def cdf(self, y):
        """P(Y <= y)."""
        return self._tails(mp.mpf(y))[0]

    def sf(self, y):
        """P(Y > y)."""
        return self._tails(mp.mpf(y))[1]

    def _tails(self, y):
        fam = self.family
        if fam == "marshall-olkin":
            g = self.gamma
            den = g + (1 - g) * mp.ncdf(y)
            return mp.ncdf(y) / den, g * mp.ncdf(-y) / den
        if fam == "orderstats":
            lo = mp.betainc(self.psi1, self.psi2, 0, mp.ncdf(y), regularized=True)
            hi = mp.betainc(self.psi2, self.psi1, 0, mp.ncdf(-y), regularized=True)
            return lo, hi
        if fam.startswith("twopiece"):
            a, b = self.a, self.b
            if y < 0:
                lo = 2 * b / (a + b) * mp.ncdf(y / b)
                return lo, 1 - lo
            hi = 2 * a / (a + b) * mp.ncdf(-y / a)
            return 1 - hi, hi
        if self._pi is not None and not self.quadrature:  # sign: half-normal on [0, inf)
            if y < 0:
                return mp.mpf(0), mp.mpf(1)
            return 2 * mp.ncdf(y) - 1, 2 * mp.ncdf(-y)
        if self._nodes is not None and abs(y) <= self._nodes["span"]:
            per_unit = self._nodes["per_unit"]
            k = int(mp.nint(y * per_unit))
            i = k + self._nodes["span"] * per_unit
            step = self.integral(mp.mpf(k) / per_unit, y)
            return (mp.mpf(self._nodes["cdf"][i]) + step, mp.mpf(self._nodes["sf"][i]) - step)
        return self._quadrature_tails(y)

    def cdf_array(self, x):
        """CDF at each point of a float array, by cubic Hermite
        interpolation of the node values (error below 1e-8)."""
        import numpy as np

        nodes = self._nodes
        per_unit, span = nodes["per_unit"], nodes["span"]
        cdf, pdf = np.array(nodes["cdf"]), np.array(nodes["pdf"])
        x = np.asarray(x, dtype=float)
        h = 1.0 / per_unit
        pos = np.clip((x + span) * per_unit, 0.0, cdf.size - 1.0)
        i = np.minimum(pos.astype(int), cdf.size - 2)
        t = pos - i
        h00, h10 = (1 + 2 * t) * (1 - t) ** 2, t * (1 - t) ** 2
        h01, h11 = t * t * (3 - 2 * t), t * t * (t - 1)
        out = h00 * cdf[i] + h10 * h * pdf[i] + h01 * cdf[i + 1] + h11 * h * pdf[i + 1]
        return np.where(x < -span, 0.0, np.where(x > span, 1.0, out))

    def _quadrature_tails(self, y):
        # Integrate the side on which the density falls away from y; the
        # other side is its complement, exact at 40 digits.
        slope = mp.diff(lambda t: mp.log(self.pdf(t)), y)
        direction = -1 if slope > 0 else 1
        width = 1 / max(mp.mpf(1), abs(slope))
        total = mp.mpf(0)
        peak = mp.log(self.pdf(y))
        lo = y
        for j in range(1, 80):
            hi = y + direction * width * (2**j - 1)
            total += self.integral(*sorted([lo, hi]))
            level = mp.log(self.pdf(hi)) if self.pdf(hi) > 0 else mp.ninf
            peak = max(peak, level)
            if level < peak - _TAIL_DROP:
                break
            lo = hi
        else:
            raise ArithmeticError(f"tail at {y} did not decay")
        return (total, 1 - total) if direction < 0 else (1 - total, total)

    def integral(self, a, b):
        """Integral of the density over [a, b], a <= b, to 40 digits.

        mpmath's quad stops on an absolute error estimate, so the
        integrand is scaled to order 1 first; unscaled, a segment of the
        normal density at y = -30 (values near 1e-196) comes back with a
        relative error of 4e-11.
        """
        if a == b:
            return mp.mpf(0)
        scale = max(self.pdf(a), self.pdf(b), self.pdf((a + b) / 2))
        if scale == 0:
            return mp.mpf(0)
        return scale * mp.quad(lambda t: self.pdf(t) / scale, [a, b])

    def log_tail_mass(self, y):
        """ln[P(Y < -y) + P(Y > y)] for y > 0."""
        return mp.log(self.cdf(-y) + self.sf(y))

    # -- density supremum ----------------------------------------------------

    def analytic_sup_p(self):
        """sup of the mechanism density p on (0, 1), in closed form, or None."""
        fam = self.family
        if self._pi is not None:
            return mp.mpf(2)  # p = 2 pi(Finv(x)), pi -> 1
        if fam == "marshall-olkin":
            return max(self.gamma, 1 / self.gamma)
        if fam == "orderstats":
            a, b = self.psi1, self.psi2
            if a < 1 or b < 1:
                return None
            if a == 1 and b == 1:
                return mp.mpf(1)
            x = (a - 1) / (a + b - 2)
            return x ** (a - 1) * (1 - x) ** (b - 1) / mp.beta(a, b)
        a, b = self.a, self.b
        return 2 / (a + b) if max(a, b) <= 1 else None


def log_normal_sf(y):
    return mp.log(mp.ncdf(-mp.mpf(y)))


# ---------------------------------------------------------------------------
# the cached set

NODES_PER_UNIT = 50  # node spacing 0.02
NODES_SPAN = 10      # nodes cover [-10, 10]; beyond, every cached law has mass < 1e-20


def _log(v) -> float:
    return float(mp.log(v)) if v > 0 else float("-inf")


def _values(law: Law, ys) -> dict:
    out = {"pdf": [], "log_pdf": [], "cdf": [], "log_cdf": [], "log_sf": []}
    for y in ys:
        lo, hi = law._tails(mp.mpf(y))
        pdf = law.pdf(y)
        out["pdf"].append(float(pdf))
        out["log_pdf"].append(_log(pdf))
        out["cdf"].append(float(lo))
        out["log_cdf"].append(_log(lo))
        out["log_sf"].append(_log(hi))
    return out


def _nodes(law: Law) -> dict:
    """CDF, survival function and density on the node grid.

    Quadrature laws carry the CDF from the left end by exact per-cell
    quadrature (kept at 40 digits, so 1 - CDF keeps the small upper
    tail); closed-form laws are evaluated at each node.
    """
    ks = range(-NODES_SPAN * NODES_PER_UNIT, NODES_SPAN * NODES_PER_UNIT + 1)
    ys = [mp.mpf(k) / NODES_PER_UNIT for k in ks]
    if law.quadrature:
        cdf = [law.cdf(ys[0])]
        for a, b in zip(ys, ys[1:]):
            cdf.append(cdf[-1] + law.integral(a, b))
        sf = [1 - c for c in cdf]
    else:
        pairs = [law._tails(y) for y in ys]
        cdf, sf = [p[0] for p in pairs], [p[1] for p in pairs]
    return {"per_unit": NODES_PER_UNIT, "span": NODES_SPAN, "cdf": [float(v) for v in cdf],
            "sf": [float(v) for v in sf], "pdf": [float(law.pdf(y)) for y in ys]}


def build() -> dict:
    import workloads as w

    refs: dict = {"evaluate": {}, "verify": {"thm1": {}, "thm2": {}}, "nodes": {}}
    for family, params in w.EVAL_CLOSED:
        refs["evaluate"][w.inst_id(family, params)] = {
            "ys": list(w.CLOSED_YS), **_values(Law(family, params), w.CLOSED_YS)}
    for family, params in w.EVAL_SKEWSYM:
        law = Law(family, params)
        dens = [law.pdf(y) for y in w.SKEWSYM_DENSITY_YS]
        tails = _values(law, w.SKEWSYM_TAIL_YS)
        refs["evaluate"][w.inst_id(family, params)] = {
            "density_ys": list(w.SKEWSYM_DENSITY_YS),
            "pdf": [float(v) for v in dens], "log_pdf": [_log(v) for v in dens],
            "tail_ys": list(w.SKEWSYM_TAIL_YS),
            **{k: tails[k] for k in ("cdf", "log_cdf", "log_sf")},
        }
        print(f"evaluate {w.inst_id(family, params)}", file=sys.stderr)
    for family, params in w.VERIFY_THM1:
        law = Law(family, params)
        refs["verify"]["thm1"][w.inst_id(family, params)] = {
            "log_tail": [float(law.log_tail_mass(y)) for y in w.VERIFY_YS],
            "sup_p": float(law.analytic_sup_p()),
        }
    for g in w.VERIFY_THM2_GAMMAS:
        law = Law("twopiece-eps", {"gamma": g})
        refs["verify"]["thm2"][repr(g)] = [float(law.log_tail_mass(y)) for y in w.VERIFY_YS]
    print("verify", file=sys.stderr)
    # quantile checks anchor on the nodes; the KS reference interpolates them
    need = [(f, p) for f, p in w.EVAL_SKEWSYM if Law(f, p).quadrature] + list(w.SAMPLE_JOBS)
    for family, params in need:
        iid = w.inst_id(family, params)
        if iid not in refs["nodes"]:
            refs["nodes"][iid] = _nodes(Law(family, params))
            print(f"nodes {iid}", file=sys.stderr)
    return refs


def load() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    data = build()
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {REFS_PATH}", file=sys.stderr)
