"""The three workloads: their inputs, their operations and their checks.

Each workload turns a seed into a fixed list of operations (one round).
An operation calls skewlab through its public names, resolved at call
time so that the traced run sees its wrappers. Every workload is a
closed loop: one caller, one thread, each call after the previous one
returns. The seed fixes the order of the operations in a round of
``certify`` and ``evaluate`` and, in ``sample``, the random streams; the
set of instances, ordinates and levels is the same for every seed, so
work counts repeat exactly.

Stages split a round into the parts whose rates are reported:

    certify   1 verify --suite all   2 check, closed-form   3 check, skew-symmetric
    evaluate  1 closed-form calls    2 skew-symmetric calls 3 skew-symmetric quantiles
    sample    1 draw                 2 fit (cdf_array+KS)   3 CLI sample --out
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

# ---------------------------------------------------------------------------
# inputs (CLI vocabulary: family name plus --param values)

EVAL_CLOSED = (
    ("marshall-olkin", {"gamma": 0.25}),
    ("marshall-olkin", {"gamma": 2.0}),
    ("orderstats", {"psi1": 2.0, "psi2": 3.0}),
    ("orderstats", {"psi1": 0.5, "psi2": 0.5}),
    ("twopiece-eps", {"gamma": -0.5}),
    ("twopiece-isf", {"gamma": 2.0}),
    ("twopiece-ab", {"a": 5.0, "b": 0.1}),
)
EVAL_SKEWSYM = (
    ("azzalini", {"alpha": -2.0}),
    ("azzalini", {"alpha": 0.5}),
    ("azzalini", {"alpha": 3.0}),
    ("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
    ("skewsym-custom", {"pi": "cauchy-cdf", "alpha": 1.0}),
    ("skewsym-custom", {"pi": "sign"}),
)
# half-step grid over the bulk and both tails
CLOSED_YS = tuple(k / 2.0 for k in range(-80, 81))
SKEWSYM_DENSITY_YS = CLOSED_YS
SKEWSYM_TAIL_YS = (-40.0, -30.0, -20.0, -8.0, -2.0, 0.0, 2.0, 8.0, 20.0, 30.0, 40.0)
CLOSED_QS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)
SKEWSYM_QS = (1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12)
EVAL_FNS = ("pdf", "log_pdf", "cdf", "log_cdf", "log_sf")

CHECK_SWEEP = (
    ("azzalini", {"alpha": -4.0}),
    ("azzalini", {"alpha": -1.0}),
    ("azzalini", {"alpha": 0.0}),
    ("azzalini", {"alpha": 0.5}),
    ("azzalini", {"alpha": 3.0}),
    ("azzalini", {"alpha": 50.0}),
    ("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
    ("skewsym-custom", {"pi": "cauchy-cdf", "alpha": 1.0}),
    ("marshall-olkin", {"gamma": 0.25}),
    ("marshall-olkin", {"gamma": 1.0}),
    ("marshall-olkin", {"gamma": 4.0}),
    ("orderstats", {"psi1": 2.0, "psi2": 3.0}),
    ("orderstats", {"psi1": 1.0, "psi2": 2.0}),
    ("orderstats", {"psi1": 1.0, "psi2": 1.0}),
    ("orderstats", {"psi1": 0.5, "psi2": 2.0}),
    ("twopiece-eps", {"gamma": -0.5}),
    ("twopiece-eps", {"gamma": 0.3}),
    ("twopiece-isf", {"gamma": 2.0}),
    ("twopiece-ab", {"a": 5.0, "b": 0.1}),
    ("twopiece-ab", {"a": 0.5, "b": 0.8}),
    ("twopiece-ab", {"a": 1.5, "b": 1.5}),
)
# the matrices `verify --suite all` prints, for their references
VERIFY_THM1 = (
    ("azzalini", {"alpha": 0.5}),
    ("azzalini", {"alpha": 1.0}),
    ("azzalini", {"alpha": 3.0}),
    ("marshall-olkin", {"gamma": 0.25}),
    ("marshall-olkin", {"gamma": 0.5}),
    ("marshall-olkin", {"gamma": 2.0}),
    ("marshall-olkin", {"gamma": 4.0}),
    ("orderstats", {"psi1": 2.0, "psi2": 2.0}),
    ("orderstats", {"psi1": 1.5, "psi2": 3.0}),
    ("orderstats", {"psi1": 5.0, "psi2": 1.2}),
)
VERIFY_THM2_GAMMAS = (-0.9, -0.5, -0.1, -1e-6, 0.9, 0.5, 0.1, 1e-6)
VERIFY_YS = (1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0, 20.0, 30.0)

SAMPLE_JOBS = (
    ("azzalini", {"alpha": 3.0}),
    ("skewsym-custom", {"pi": "logistic", "alpha": 2.0}),
    ("orderstats", {"psi1": 2.0, "psi2": 3.0}),
    ("marshall-olkin", {"gamma": 2.0}),
    ("twopiece-eps", {"gamma": -0.5}),
)
# Draws per sample job. The workload stands for CLI `sample --n 1000000`;
# at 200,000 the per-draw rates of draw and emit are within 2% of those at
# 10^6 and a 25 s run still holds about ten rounds (README, "Why 200,000").
SAMPLE_N = 200_000

# Stated accuracies. Logs: |v - ref| <= LOG_TOL nats. Quantiles: the
# reference tail mass at the returned ordinate, against q or 1 - q,
# within QUANTILE_LOG_TOL in ln. A KS statistic sqrt(n) D >= KS_LIMIT has
# probability about 2 exp(-2 KS_LIMIT^2) = 3e-8 under a correct sampler.
REL_TOL = 1e-9  # values: |v - ref| <= REL_TOL |ref| + TINY
LOG_TOL = 1e-8
QUANTILE_LOG_TOL = 1e-8
VERIFY_RHS_TOL = 1e-9
KS_LIMIT = 3.0
KS_AGREE_TOL = 1e-6

# The faults the benchmark keeps: every operation that fails today, by
# workload and op_id(), with the fault it shows (README: "Faults kept as
# failed operations"). Such an operation counts as failed; a failure of
# any other operation is incorrect, and a listed one that passes lowers
# the failed count.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_faults.json"),
          encoding="utf-8") as _handle:
    KNOWN_FAULTS: dict[str, dict[str, str]] = json.load(_handle)

# Values below the smallest normal double carry no relative precision.
TINY = 2.2250738585072014e-308


def inst_id(family: str, params: dict) -> str:
    inner = ";".join(f"{k}={params[k]:g}" if isinstance(params[k], float) else f"{k}={params[k]}"
                     for k in sorted(params))
    return f"{family}({inner})"


def cli_params(params: dict) -> list[str]:
    out = []
    for k in sorted(params):
        out += ["--param", f"{k}={params[k]!r}" if isinstance(params[k], float) else f"{k}={params[k]}"]
    return out


def is_skewsym(family: str) -> bool:
    return family in ("azzalini", "skewsym-custom")


@dataclass
class Op:
    """One call in a round. ``work`` is the stage's unit count for it."""

    stage: int
    key: tuple
    call: Callable[[], Any]
    work: int = 1
    family: str = ""  # for the per-family share of op time
    after: Callable[[Any], Any] | None = None  # untimed, turns the raw result into the output


@dataclass
class Verdict:
    ok: bool
    detail: str = ""


def _run_cli(argv: list[str]) -> tuple[int, str]:
    import skewlab.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class Workload:
    name = ""
    stage_units = ("", "", "")

    def __init__(self, seed: int, root: str):
        self.root = root
        self.rng = random.Random(seed)
        self.bytes_written = 0  # per round, filled by operations that write
        self._refs = None
        self._laws: dict = {}

    def build(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, output) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def op_id(self, op: Op) -> str:
        """The operation's name in known_faults.json."""
        return " ".join(str(k) for k in op.key)

    # references, loaded only for checking
    def refs(self) -> dict:
        if self._refs is None:
            import refs

            self._refs = refs.load()
        return self._refs

    def law(self, family: str, params: dict):
        key = inst_id(family, params)
        if key not in self._laws:
            import refs

            law = refs.Law(family, params)
            nodes = self.refs()["nodes"].get(key)
            if nodes is not None:
                law.attach_nodes(nodes)
            self._laws[key] = law
        return self._laws[key]


# ---------------------------------------------------------------------------
# certify


def expected_verdict(family: str, params: dict) -> str:
    if family == "azzalini" and params["alpha"] == 0.0:
        return "NORMAL_ESCAPE"
    if family == "marshall-olkin" and params["gamma"] == 1.0:
        return "NORMAL_ESCAPE"
    if family == "orderstats":
        if params["psi1"] == 1.0 and params["psi2"] == 1.0:
            return "NORMAL_ESCAPE"
        if min(params["psi1"], params["psi2"]) < 1.0:
            return "INCONCLUSIVE"
    if family == "twopiece-ab" and params["a"] == params["b"]:
        return "NORMAL_ESCAPE"
    if family == "twopiece-eps" and params["gamma"] == 0.0:
        return "NORMAL_ESCAPE"
    if family == "twopiece-isf" and params["gamma"] == 1.0:
        return "NORMAL_ESCAPE"
    return "NOT_ID"


def twopiece_scales(family: str, params: dict) -> tuple[float, float]:
    if family == "twopiece-eps":
        return 1.0 - params["gamma"], 1.0 + params["gamma"]
    if family == "twopiece-isf":
        return 1.0 / params["gamma"], params["gamma"]
    return params["a"], params["b"]


class Certify(Workload):
    name = "certify"
    stage_units = ("verify runs", "closed-form verdicts", "skew-symmetric verdicts")

    def build(self) -> list[Op]:
        ops = [Op(1, ("verify",), lambda: _run_cli(["verify", "--suite", "all"]),
                  family="verify --suite all", after=self._count_bytes)]
        for family, params in CHECK_SWEEP:
            argv = ["check", "--family", family, *cli_params(params)]
            ops.append(Op(3 if is_skewsym(family) else 2, ("check", family, inst_id(family, params)),
                          lambda argv=argv: _run_cli(argv), family=family,
                          after=self._count_bytes))
        self.rng.shuffle(ops)
        self._by_id = {inst_id(f, p): (f, p) for f, p in CHECK_SWEEP}
        return ops

    def _count_bytes(self, output):
        self.bytes_written += len(output[1].encode())
        return output

    def check(self, op: Op, output) -> Verdict:
        if isinstance(output, BaseException):
            return Verdict(False, detail=f"raised {type(output).__name__}: {output}")
        code, text = output
        if op.key[0] == "verify":
            return self._check_verify(code, text)
        family, params = self._by_id[op.key[2]]
        return self._check_verdict(family, params, code, text)

    def _check_verify(self, code: int, text: str) -> Verdict:
        import mpmath as mp

        import refs

        if code != 0:
            return Verdict(False, detail=f"verify exited {code}")
        lines = text.strip().splitlines()
        if lines[0] != "suite,case_id,lhs,rhs,pass":
            return Verdict(False, detail=f"unexpected header {lines[0]!r}")
        ref = self.refs()["verify"]
        seen = {"thm1": 0, "thm2": 0, "roundtrip": 0}
        for line in lines[1:]:
            suite, case, lhs, rhs, passed = line.split(",")
            lhs, rhs = float(lhs), float(rhs)
            seen[suite] += 1
            if passed != "true":
                return Verdict(False, detail=f"row {case} did not pass")
            if suite == "thm1":
                inst, y = case.split("@y=")
                y = float(y)
                entry = ref["thm1"][inst]
                want_lhs = entry["log_tail"][VERIFY_YS.index(y)]
                want_rhs = float(mp.log(entry["sup_p"]) + mp.log(2) + refs.log_normal_sf(y))
            elif suite == "thm2":
                head, which = case.split(":")
                inst, y = head.split("@y=")
                y = float(y)
                g = float(inst[len("twopiece-eps(gamma="):-1])
                a = 1.0 + abs(g)
                log_mid = float(mp.log(2 * a) + refs.log_normal_sf(mp.mpf(y) / a))
                log_outer = float(mp.log(4) + refs.log_normal_sf(mp.mpf(y) / 2))
                if which == "tail<mid":
                    want_lhs, want_rhs = ref["thm2"][repr(g)][VERIFY_YS.index(y)], log_mid
                else:
                    want_lhs, want_rhs = log_mid, log_outer
            else:
                if not (0.0 <= lhs <= rhs == 1e-7):
                    return Verdict(False, detail=f"roundtrip row {case}: {lhs} vs {rhs}")
                continue
            if abs(lhs - want_lhs) > LOG_TOL:
                return Verdict(False, detail=f"{case}: lhs {lhs!r} vs reference {want_lhs!r}")
            if abs(rhs - want_rhs) > VERIFY_RHS_TOL:
                return Verdict(False, detail=f"{case}: rhs {rhs!r} vs recomputed {want_rhs!r}")
        want = {"thm1": len(VERIFY_THM1) * len(VERIFY_YS),
                "thm2": 2 * len(VERIFY_THM2_GAMMAS) * len(VERIFY_YS), "roundtrip": 24}
        if seen != want:
            return Verdict(False, detail=f"row counts {seen}, expected {want}")
        return Verdict(True)

    def _check_verdict(self, family: str, params: dict, code: int, text: str) -> Verdict:
        import skewlab
        import skewlab.cli as cli

        if code != 0:
            return Verdict(False, detail=f"check exited {code}: {text.strip()[-200:]}")
        got = json.loads(text)
        want = expected_verdict(family, params)
        if got["verdict"] != want:
            return Verdict(False, detail=f"verdict {got['verdict']}, parameters imply {want}")
        if want != "NOT_ID":
            return Verdict(True)
        mech = cli.build_mechanism(family, dict(params))
        if got["rule"] == "theorem-1":
            sup = self.law(family, params).analytic_sup_p()
            if sup is None or not got["bound"] >= float(sup) * (1 - 1e-12):
                return Verdict(False, detail=f"bound {got['bound']} below analytic sup {sup}")
            rows = skewlab.verify_theorem1_bound(mech)
        elif got["rule"] == "theorem-2":
            a, b = twopiece_scales(family, params)
            rows = skewlab.verify_theorem2_chain((b - a) / (a + b))
        else:
            return Verdict(False, detail=f"NOT_ID cites unknown rule {got['rule']!r}")
        failed = [r.y for r in rows if not r.passed]
        if failed:
            return Verdict(False, detail=f"{got['rule']} rows fail at y={failed}")
        return Verdict(True)


# ---------------------------------------------------------------------------
# evaluate


class Evaluate(Workload):
    name = "evaluate"
    stage_units = ("closed-form calls", "skew-symmetric calls", "skew-symmetric quantiles")

    def build(self) -> list[Op]:
        import skewlab
        import skewlab.cli as cli

        std = skewlab.StandardNormal()
        ops = []
        self._inst = {}
        for family, params in EVAL_CLOSED + EVAL_SKEWSYM:
            iid = inst_id(family, params)
            dist = skewlab.compose(std, cli.build_mechanism(family, dict(params)))
            self._inst[iid] = (family, params)
            skew = is_skewsym(family)
            calls = [(fn, y) for fn in ("pdf", "log_pdf") for y in SKEWSYM_DENSITY_YS] if skew else \
                [(fn, y) for fn in EVAL_FNS for y in CLOSED_YS]
            if skew:
                calls += [(fn, y) for fn in ("cdf", "log_cdf", "log_sf") for y in SKEWSYM_TAIL_YS]
            calls += [("quantile", q) for q in (SKEWSYM_QS if skew else CLOSED_QS)]
            for fn, x in calls:
                stage = 1 if not skew else (3 if fn == "quantile" else 2)
                ops.append(Op(stage, (iid, fn, x),
                              lambda dist=dist, fn=fn, x=x: getattr(dist, fn)(x), family=family))
        self.rng.shuffle(ops)
        return ops

    def op_id(self, op: Op) -> str:
        iid, fn, x = op.key
        return f"{iid} {fn}({x!r})"

    def check(self, op: Op, output) -> Verdict:
        iid, fn, x = op.key
        family, params = self._inst[iid]
        if fn == "quantile":
            return self._check_quantile(family, params, x, output)
        if isinstance(output, BaseException):
            return Verdict(False, f"{fn}({x}) raised {type(output).__name__}: {output}")
        ref = self.refs()["evaluate"][iid]
        ys = ref["tail_ys"] if (is_skewsym(family) and fn in ("cdf", "log_cdf", "log_sf")) else \
            ref.get("density_ys", ref.get("ys"))
        want = ref[fn][ys.index(x)]
        if _close(fn, output, want):
            return Verdict(True)
        return Verdict(False, f"{fn}({x}) = {output!r}, reference {want!r}")

    def _check_quantile(self, family, params, q, output) -> Verdict:
        import mpmath as mp

        if isinstance(output, BaseException):
            return Verdict(False, f"quantile({q!r}) raised {type(output).__name__}: {output}")
        law = self.law(family, params)
        if q <= 0.5:
            mass, target = law.cdf(output), mp.mpf(q)
        else:
            mass, target = law.sf(output), 1 - mp.mpf(q)
        err = abs(mp.log(mass) - mp.log(target)) if mass > 0 else mp.inf
        if err <= QUANTILE_LOG_TOL:
            return Verdict(True)
        return Verdict(False, f"quantile({q!r}) = {output!r}: tail mass off by {mp.nstr(err, 3)} in ln")


def _close(fn: str, got, want) -> bool:
    if not isinstance(got, float):
        return False
    if fn.startswith("log_"):
        if math.isinf(want) or math.isinf(got):
            return got == want
        return abs(got - want) <= LOG_TOL
    return abs(got - want) <= REL_TOL * abs(want) + TINY


# ---------------------------------------------------------------------------
# sample


class Sample(Workload):
    name = "sample"
    stage_units = ("draws", "fit points", "CLI draws")

    def build(self) -> list[Op]:
        import skewlab
        import skewlab.cli as cli

        out_dir = os.path.join(self.root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"sample-{os.getpid()}.txt")
        self._paths = [path]
        self._jobs = {}
        # The jobs run in a fixed order (the seed only picks their streams),
        # so the peak memory does not move with the seed. A job's three steps
        # run back to back, so the jobs share one state: only the current
        # job's distribution and draws are held.
        state: dict = {}
        ops = []
        for family, params in SAMPLE_JOBS:
            iid = inst_id(family, params)
            seed = self.rng.getrandbits(63)
            self._jobs[iid] = (family, params)

            def draw(family=family, params=params, seed=seed, state=state):
                dist = skewlab.compose(skewlab.StandardNormal(),
                                       cli.build_mechanism(family, dict(params)))
                state["dist"] = dist
                state["draws"] = skewlab.sample_skewed(dist, skewlab.RngState(seed), SAMPLE_N)
                return state["draws"]

            def fit(state=state):
                return skewlab.ks_test(state["draws"], state["dist"].cdf_array)

            argv = ["sample", "--family", family, *cli_params(params), "--n", str(SAMPLE_N),
                    "--seed", str(seed), "--out", path]

            def emit(argv=argv):
                return _run_cli(argv)[0]

            def read_back(code, path=path, state=state):
                with open(path, "rb") as handle:
                    data = handle.read()
                self.bytes_written += len(data)
                return code, data, state["draws"]

            # fit and emit outputs carry the job's draws, so a check never
            # reads state that a later job has replaced
            ops += [Op(1, (iid, "draw"), draw, SAMPLE_N, family),
                    Op(2, (iid, "fit"), fit, SAMPLE_N, family,
                       after=lambda ks, state=state: (ks, state["draws"])),
                    Op(3, (iid, "emit"), emit, SAMPLE_N, family, after=read_back)]
        return ops

    def check(self, op: Op, output) -> Verdict:
        import numpy as np

        iid, step = op.key
        family, params = self._jobs[iid]
        if isinstance(output, BaseException):
            return Verdict(False, detail=f"{step} raised {type(output).__name__}: {output}")
        if step == "draw":
            d_ref = self._ks_reference(family, params, output)
            if not math.sqrt(output.size) * d_ref < KS_LIMIT:
                return Verdict(False, detail=f"KS sqrt(n) D = {math.sqrt(output.size) * d_ref:.3f}")
            return Verdict(True)
        if step == "fit":
            ks, draws = output
            d_ref = self._ks_reference(family, params, draws)
            if abs(ks.statistic - d_ref) > KS_AGREE_TOL or ks.n != SAMPLE_N:
                return Verdict(False, detail=f"ks_test D {ks.statistic!r}, reference {d_ref!r}")
            return Verdict(True)
        code, data, draws = output
        if code != 0:
            return Verdict(False, detail=f"CLI sample exited {code}")
        values = np.array([float(line) for line in data.decode("utf-8").splitlines()])
        if not np.array_equal(values, draws):
            return Verdict(False, detail="CLI draws differ from library draws with the same seed")
        return Verdict(True)

    def _ks_reference(self, family, params, draws) -> float:
        import numpy as np

        x = np.sort(draws)
        f = self.law(family, params).cdf_array(x)
        n = x.size
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))

    def close(self) -> None:
        for path in getattr(self, "_paths", ()):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {w.name: w for w in (Certify, Evaluate, Sample)}
