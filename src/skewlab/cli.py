"""Batch command-line surface.

Subcommands: eval, sample, tail, check, verify. ``--format`` chooses CSV
(header row, '.' decimal, full double precision) or JSON with round-trip
exact numbers for the tables of eval, tail and verify; check always
prints JSON and sample one draw per line. Exit codes are 0 for success,
1 for a verification failure and 2 for usage or domain errors. Every
command is pure given its flags and seed. The SKEWLAB_TOL environment
variable overrides the default absolute tolerance of the underlying
numerics.

Each family name appears once, in ``_FAMILIES``, with its numeric
parameters and constructor; ``FAMILIES``, the ``--family`` choices and
``build_mechanism`` all read it.

The argument parser is built once per process, on the first ``main``
call, and reused: ``main`` can be called repeatedly in one process, and
each call parses its own argv from the parser's defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np
from scipy import special

from . import divisibility, mechanisms
from .distributions import RngState, StandardNormal
from .errors import SkewlabError
from .numcore import DEFAULT_TOL, Tolerance

_STD = StandardNormal()

# named skewing functions for the skewsym-custom family; each takes a float
# or a float array of y
_PI_REGISTRY = {
    "half": lambda alpha: (lambda y: 0.0 * y + 0.5),
    "sign": lambda alpha: (lambda y: (y >= 0.0) * 1.0),
    "logistic": lambda alpha: (lambda y: special.expit(alpha * y)),  # no overflow far out
    "cauchy-cdf": lambda alpha: (lambda y: 0.5 + np.arctan(alpha * y) / math.pi),
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


def _param(params: dict, family: str, name: str, default: float | None = None) -> float:
    if name not in params and default is None:
        raise UsageError(f"family {family!r} requires --param {name}=...")
    value = params.get(name, default)
    if not isinstance(value, float):
        raise UsageError(f"parameter {name!r} must be numeric, got {value!r}")
    return value


def _skewsym_custom(params: dict) -> mechanisms.SkewSymmetric:
    kind = params.get("pi")
    if kind not in _PI_REGISTRY:
        raise UsageError(
            f"skewsym-custom requires --param pi=<{'|'.join(sorted(_PI_REGISTRY))}>")
    alpha = _param(params, "skewsym-custom", "alpha", 1.0)
    return mechanisms.SkewSymmetric(_PI_REGISTRY[kind](alpha))


# each family's numeric --param names, in constructor order, and its
# constructor; an entry without names reads the parameters itself
_FAMILIES = {
    "azzalini": (("alpha",), mechanisms.SkewSymmetric.azzalini),
    "skewsym-custom": ((), _skewsym_custom),
    "orderstats": (("psi1", "psi2"), mechanisms.OrderStatistics),
    "marshall-olkin": (("gamma",), mechanisms.MarshallOlkin),
    "twopiece-eps": (("gamma",), mechanisms.TwoPiece.epsilon_skew),
    "twopiece-isf": (("gamma",), mechanisms.TwoPiece.inverse_scale_factors),
    "twopiece-ab": (("a", "b"), mechanisms.TwoPiece),
}
FAMILIES = tuple(_FAMILIES)


def build_mechanism(family: str, params: dict) -> mechanisms.SkewingMechanism:
    """The mechanism a family name and its named parameters describe."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    names, make = _FAMILIES[family]
    if not names:
        return make(params)
    return make(*[_param(params, family, name) for name in names])


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


def _emit_json(payload, out) -> None:
    # one write: json.dump would hand the stream thousands of small chunks
    out.write(json.dumps(payload, indent=2, default=float) + "\n")


def _emit_table(header: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "json":
        _emit_json([dict(zip(header, row)) for row in rows], out)
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
    fn = {"pdf": dist.pdf, "cdf": dist.cdf, "quantile": dist.quantile, "p": mech.p}[args.what]
    extra = (_tolerance(),) if args.what == "quantile" else ()
    values = [fn(float(x), *extra) for x in grid]
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
    report = divisibility.steutel_statistic(mechanisms.compose(_STD, mech), _parse_ys(args.ys))
    rows = [[r.y, r.log_tail, r.statistic] for r in report.rows]
    _emit_table(["y", "log_tail", "statistic"], rows, args.format, out)
    return 0


def cmd_check(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    verdict = divisibility.divisibility_verdict(mech, ys=_parse_ys(args.ys))
    _emit_json(verdict.to_dict(), out)
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

    def add_command(name, fn, help, with_family=True, with_format=True):
        p = sub.add_parser(name, help=help)
        if with_family:
            p.add_argument("--family", required=True, choices=FAMILIES)
            p.add_argument("--param", action="append", default=[],
                           metavar="NAME=VALUE", help="mechanism parameter, repeatable")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(fn=fn)
        return p

    p_eval = add_command("eval", cmd_eval, "tabulate pdf/cdf/quantile/p on a grid")
    p_eval.add_argument("--what", required=True, choices=("pdf", "cdf", "quantile", "p"))
    p_eval.add_argument("--grid", required=True, metavar="LO:HI:N")

    p_sample = add_command("sample", cmd_sample, "newline-delimited draws", with_format=False)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=None)

    p_tail = add_command("tail", cmd_tail, "log tail mass and divergence statistic")
    p_tail.add_argument("--ys", default=None, metavar="Y1,Y2,...")

    p_check = add_command("check", cmd_check, "divisibility verdict as JSON", with_format=False)
    p_check.add_argument("--ys", default=None, metavar="Y1,Y2,...")

    p_verify = add_command("verify", cmd_verify, "run the shipped verification matrices",
                           with_family=False)
    p_verify.add_argument("--suite", choices=("thm1", "thm2", "roundtrip", "all"),
                          default="all")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # a process constant: building it costs about 25 times a parse
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
