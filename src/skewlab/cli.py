"""Batch command-line surface.

Subcommands: eval, sample, tail, check, verify. Output is CSV (header
row, '.' decimal, full double precision) or JSON with round-trip exact
numbers; exit codes are 0 for success, 1 for a verification failure and
2 for usage or domain errors. Every command is pure given its flags and
seed. The SKEWLAB_TOL environment variable overrides the default
absolute tolerance of the underlying numerics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import divisibility, mechanisms
from .distributions import RngState, StandardNormal
from .errors import SkewlabError
from .numcore import DEFAULT_TOL, Tolerance

_STD = StandardNormal()

FAMILIES = (
    "azzalini",
    "skewsym-custom",
    "orderstats",
    "marshall-olkin",
    "twopiece-eps",
    "twopiece-isf",
    "twopiece-ab",
)

# named skewing functions for the skewsym-custom family
_PI_REGISTRY = {
    "half": lambda alpha: (lambda y: np.full_like(np.asarray(y, dtype=float), 0.5)),
    "sign": lambda alpha: (lambda y: (np.asarray(y, dtype=float) >= 0.0).astype(float)),
    "logistic": lambda alpha: (lambda y: 1.0 / (1.0 + np.exp(-alpha * np.asarray(y, dtype=float)))),
    "cauchy-cdf": lambda alpha: (
        lambda y: 0.5 + np.arctan(alpha * np.asarray(y, dtype=float)) / math.pi),
}


class UsageError(Exception):
    pass


def _tolerance() -> Tolerance:
    raw = os.environ.get("SKEWLAB_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        abs_tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"SKEWLAB_TOL is not a number: {raw!r}") from exc
    return Tolerance(abs_tol=abs_tol, rel_tol=DEFAULT_TOL.rel_tol, max_iter=DEFAULT_TOL.max_iter)


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for raw in pairs or ():
        name, sep, value = raw.partition("=")
        if not sep or not name:
            raise UsageError(f"--param expects name=value, got {raw!r}")
        try:
            params[name] = float(value)
        except ValueError:
            params[name] = value
    return params


def _need(params: dict, family: str, *names: str) -> list[float]:
    out = []
    for name in names:
        if name not in params:
            raise UsageError(f"family {family!r} requires --param {name}=...")
        value = params[name]
        if not isinstance(value, float):
            raise UsageError(f"parameter {name!r} must be numeric, got {value!r}")
        out.append(value)
    return out


def build_mechanism(family: str, params: dict) -> mechanisms.SkewingMechanism:
    """The mechanism a family name and its named parameters describe."""
    if family == "azzalini":
        (alpha,) = _need(params, family, "alpha")
        return mechanisms.SkewSymmetric.azzalini(alpha)
    if family == "skewsym-custom":
        kind = params.get("pi")
        if kind not in _PI_REGISTRY:
            raise UsageError(
                f"skewsym-custom requires --param pi=<{'|'.join(sorted(_PI_REGISTRY))}>")
        alpha = params.get("alpha", 1.0)
        if not isinstance(alpha, float):
            raise UsageError(f"parameter 'alpha' must be numeric, got {alpha!r}")
        return mechanisms.SkewSymmetric(_PI_REGISTRY[kind](alpha))
    if family == "orderstats":
        psi1, psi2 = _need(params, family, "psi1", "psi2")
        return mechanisms.OrderStatistics(psi1, psi2)
    if family == "marshall-olkin":
        (gamma,) = _need(params, family, "gamma")
        return mechanisms.MarshallOlkin(gamma)
    if family == "twopiece-eps":
        (gamma,) = _need(params, family, "gamma")
        return mechanisms.TwoPiece.epsilon_skew(gamma)
    if family == "twopiece-isf":
        (gamma,) = _need(params, family, "gamma")
        return mechanisms.TwoPiece.inverse_scale_factors(gamma)
    if family == "twopiece-ab":
        a, b = _need(params, family, "a", "b")
        return mechanisms.TwoPiece(a, b)
    raise UsageError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid expects lo:hi:n, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--grid expects numeric lo:hi:n, got {raw!r}") from exc
    if n < 2:
        raise UsageError(f"--grid needs n >= 2, got n={n}")
    if not (lo < hi):
        raise UsageError(f"--grid needs lo < hi, got {raw!r}")
    return np.linspace(lo, hi, n)


def _parse_ys(raw: str | None) -> list[float]:
    if raw is None:
        return list(divisibility.DEFAULT_Y_GRID)
    items = [s for s in raw.split(",") if s.strip()]
    if not items:
        raise UsageError("--ys is empty")
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"--ys expects a comma list of numbers, got {raw!r}") from exc


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit_table(header: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, out, indent=2, default=float)
        out.write("\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_eval(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    grid = _parse_grid(args.grid)
    dist = mechanisms.compose(_STD, mech)
    if args.what in ("quantile", "p") and not np.all((grid > 0.0) & (grid < 1.0)):
        raise UsageError(f"--what {args.what} needs a grid inside (0, 1)")
    if args.what == "pdf":
        values = [dist.pdf(float(x)) for x in grid]
    elif args.what == "cdf":
        values = [dist.cdf(float(x)) for x in grid]
    elif args.what == "quantile":
        tol = _tolerance()
        values = [dist.quantile(float(x), tol) for x in grid]
    else:
        values = [mech.p(float(x)) for x in grid]
    _emit_table(["x", "value"], [[float(x), v] for x, v in zip(grid, values)], args.format, out)
    return 0


def cmd_sample(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    rng = RngState(args.seed)  # seed None draws fresh entropy: not reproducible
    draws = mechanisms.sample_skewed(mechanisms.compose(_STD, mech), rng, args.n)
    for v in draws:
        out.write(repr(float(v)) + "\n")
    return 0


def cmd_tail(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    ys = _parse_ys(args.ys)
    if any(y <= 1.0 for y in ys):
        raise UsageError(f"--ys must all exceed 1, got {ys}")
    report = divisibility.steutel_statistic(mechanisms.compose(_STD, mech), ys)
    rows = [[r.y, r.log_tail, r.statistic] for r in report.rows]
    _emit_table(["y", "log_tail", "statistic"], rows, args.format, out)
    return 0


def cmd_check(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    verdict = divisibility.divisibility_verdict(mech, ys=_parse_ys(args.ys))
    json.dump(verdict.to_dict(), out, indent=2, default=float)
    out.write("\n")
    return 0


# shipped verification matrices
THM1_MATRIX = (
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

TWOPIECE_GAMMAS = (-0.5, 0.3)
THM2_GAMMAS = (-0.9, -0.5, -0.1, -1e-6)

ALL_INSTANCES = THM1_MATRIX + tuple(
    ("twopiece-eps", {"gamma": g}) for g in TWOPIECE_GAMMAS)


def _case_id(family: str, params: dict) -> str:
    # semicolon separator keeps the CSV free of embedded commas
    inner = ";".join(f"{k}={params[k]:g}" for k in sorted(params))
    return f"{family}({inner})"


def _verify_thm1(rows: list) -> None:
    for family, params in THM1_MATRIX:
        mech = build_mechanism(family, dict(params))
        case = _case_id(family, params)
        for row in divisibility.verify_theorem1_bound(mech):
            rows.append(["thm1", f"{case}@y={row.y:g}", row.log_tail, row.log_bound, row.passed])


def _verify_thm2(rows: list) -> None:
    for gamma in THM2_GAMMAS + tuple(-g for g in THM2_GAMMAS):
        case = f"twopiece-eps(gamma={gamma:g})"
        for row in divisibility.verify_theorem2_chain(gamma):
            rows.append([
                "thm2", f"{case}@y={row.y:g}:tail<mid", row.log_tail, row.log_mid,
                row.first_strict,
            ])
            rows.append([
                "thm2", f"{case}@y={row.y:g}:mid<outer", row.log_mid, row.log_outer,
                row.second_strict,
            ])


def _verify_roundtrip(rows: list) -> None:
    xs = np.linspace(0.01, 0.99, 49)
    for family, params in ALL_INSTANCES:
        mech = build_mechanism(family, dict(params))
        case = _case_id(family, params)
        dist = mechanisms.compose(_STD, mech)
        extracted = mechanisms.extract_mechanism(dist, _STD)
        dev = max(abs(extracted.p(float(x)) - mech.p(float(x))) for x in xs)
        rows.append(["roundtrip", f"{case}:p", dev, 1e-7, dev <= 1e-7])
        rebuilt = mechanisms.compose(_STD, extracted)
        ys = [float(_STD.quantile(float(x))) for x in xs]
        dev_pdf = max(abs(rebuilt.pdf(y) - dist.pdf(y)) for y in ys)
        rows.append(["roundtrip", f"{case}:pdf", dev_pdf, 1e-7, dev_pdf <= 1e-7])


def cmd_verify(args, out) -> int:
    rows: list[list] = []
    if args.suite in ("thm1", "all"):
        _verify_thm1(rows)
    if args.suite in ("thm2", "all"):
        _verify_thm2(rows)
    if args.suite in ("roundtrip", "all"):
        _verify_roundtrip(rows)
    _emit_table(["suite", "case_id", "lhs", "rhs", "pass"], rows, args.format, out)
    failures = [r for r in rows if not r[4]]
    if failures:
        print(f"FAILED: {len(failures)} row(s), first: {failures[0][1]}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Skewed-normal constructions and non-divisibility tail diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_family=True):
        if with_family:
            p.add_argument("--family", required=True, choices=FAMILIES)
            p.add_argument("--param", action="append", default=[],
                           metavar="NAME=VALUE", help="mechanism parameter, repeatable")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_eval = sub.add_parser("eval", help="tabulate pdf/cdf/quantile/p on a grid")
    add_common(p_eval)
    p_eval.add_argument("--what", required=True, choices=("pdf", "cdf", "quantile", "p"))
    p_eval.add_argument("--grid", required=True, metavar="LO:HI:N")
    p_eval.set_defaults(fn=cmd_eval)

    p_sample = sub.add_parser("sample", help="newline-delimited inversion samples")
    add_common(p_sample)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.set_defaults(fn=cmd_sample)

    p_tail = sub.add_parser("tail", help="log tail mass and divergence statistic")
    add_common(p_tail)
    p_tail.add_argument("--ys", default=None, metavar="Y1,Y2,...")
    p_tail.set_defaults(fn=cmd_tail)

    p_check = sub.add_parser("check", help="divisibility verdict as JSON")
    add_common(p_check)
    p_check.add_argument("--ys", default=None, metavar="Y1,Y2,...")
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="run the shipped verification matrices")
    add_common(p_verify, with_family=False)
    p_verify.add_argument("--suite", choices=("thm1", "thm2", "roundtrip", "all"),
                          default="all")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is None:
            return args.fn(args, sys.stdout)
        with open(args.out, "w", encoding="utf-8") as handle:
            return args.fn(args, handle)
    except (UsageError, SkewlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
