"""Batch command-line surface.

Subcommands: eval, sample, tail, check, verify. ``--format`` chooses CSV
(header row, '.' decimal, full double precision) or JSON with round-trip
exact numbers for the tables of eval, tail and verify; check always
prints JSON, and sample one draw per line, the draw's Python repr,
written a slice of 4,096 lines at a time. The reprs are formatted by one
process per CPU the command may run on, forked after the draws, but by
one process below 10 slices or without ``os.fork`` (``_sample_processes``);
each forked formatter holds one slice's text, and the bytes do not
depend on how many processes formatted them. Exit codes are 0 for success,
1 for a verification failure and 2 for usage or domain errors, an
``--out`` path that cannot be opened among them. ``--out`` is opened on
the command's first write, so a command that exits 2 leaves the file as
it was. Every command is pure given its flags and seed, and reads no
environment variable.

Each family name appears once, in ``_FAMILIES``, with its ``--param``
names and constructor; ``FAMILIES``, the ``--family`` choices and
``build_mechanism`` all read it. A ``--param`` whose name the family does
not read is a usage error. skewsym-custom reads pi and alpha, which the
half and sign pis accept and ignore. Its half, sign and logistic pis are
``mechanisms.HalfPi``, ``SignPi`` and ``LogisticPi``: the first two give
the closed-form ln S of their laws (the normal and the half-normal), so
no float call of theirs runs the panel rule, and the logistic pi gives
ln pi, so its density stays finite where pi underflows. cauchy-cdf is a
plain function of y, whose ln S is the panel rule's.

The argument parser is built once per process, on the first ``main``
call, and reused: ``main`` can be called repeatedly in one process, and
each call parses its own argv from the parser's defaults.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NoReturn

import numpy as np

from . import divisibility, mechanisms
from .distributions import RngState, StandardNormal
from .errors import SkewlabError

_STD = StandardNormal()

# named skewing functions for the skewsym-custom family, each made from
# alpha; each takes a float or a float array of y. The half and sign pis
# carry the closed-form ln S of their laws, the logistic pi its ln pi;
# cauchy-cdf is a plain function, whose ln S is the panel rule's
_PI_REGISTRY = {
    "half": lambda alpha: mechanisms.HalfPi(),
    "sign": lambda alpha: mechanisms.SignPi(),
    "logistic": mechanisms.LogisticPi,
    "cauchy-cdf": lambda alpha: (lambda y: 0.5 + np.arctan(alpha * y) / math.pi),
}


class UsageError(Exception):
    pass


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


# each family's --param names and its constructor, which takes the values
# of the names in their order; skewsym-custom's reads its own, as pi is a
# name and not a number
_FAMILIES = {
    "azzalini": (("alpha",), mechanisms.SkewSymmetric.azzalini),
    "skewsym-custom": (("pi", "alpha"), _skewsym_custom),
    "orderstats": (("psi1", "psi2"), mechanisms.OrderStatistics),
    "marshall-olkin": (("gamma",), mechanisms.MarshallOlkin),
    "twopiece-eps": (("gamma",), mechanisms.TwoPiece.epsilon_skew),
    "twopiece-isf": (("gamma",), mechanisms.TwoPiece.inverse_scale_factors),
    "twopiece-ab": (("a", "b"), mechanisms.TwoPiece),
}
FAMILIES = tuple(_FAMILIES)


def build_mechanism(family: str, params: dict) -> mechanisms.SkewingMechanism:
    """The mechanism a family name and its named parameters describe; a
    name the family does not read is a usage error."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    names, make = _FAMILIES[family]
    for name in params:
        if name not in names:
            raise UsageError(f"family {family!r} reads no --param {name!r}; "
                             f"it reads {', '.join(names)}")
    if make is _skewsym_custom:
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
    if not (lo < hi and hi - lo < math.inf):  # else linspace overflows to a NaN grid
        raise UsageError(f"--grid needs lo < hi with hi - lo finite, got {raw!r}")
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


_BOOL_CELLS = {True: "true", False: "false"}


def _cell_format(v):
    """The CSV writer of a column whose values have the type of v: true or
    false, a float's repr, or str."""
    if isinstance(v, (bool, np.bool_)):
        return _BOOL_CELLS.__getitem__
    if isinstance(v, float):
        return float.__repr__
    return str


def _json(o, pad: str = "") -> str:
    """``json.dumps(o, indent=2, default=float)``, byte for byte, for str
    keys. With ``indent`` set the json module runs its pure-Python encoder,
    which took 36 to 44% of a closed-form ``check``; this is the same
    encoding without its generators. pad is the indent of o's line."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):  # np.float64 is one
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else ("Infinity" if o > 0.0 else "-Infinity")
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = (",\n" + inner).join([f"{_encode_str(k)}: {_json(v, inner)}" for k, v in o.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join([_json(v, inner) for v in o]) + "\n" + pad + "]"
    return _json(float(o), pad)  # np.bool_, np.int64: what default=float writes


def _emit_json(payload, out) -> None:
    # one write: json.dump would hand the stream thousands of small chunks
    out.write(_json(payload) + "\n")


def _emit_table(header: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "json":
        _emit_json([dict(zip(header, row)) for row in rows], out)
    else:
        # one writer per column, picked from its first value, mapped over it
        columns = [list(map(_cell_format(col[0]), col)) for col in zip(*rows)]
        out.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


def cmd_eval(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    grid = _parse_grid(args.grid)
    dist = mechanisms.compose(_STD, mech)
    if args.what in ("quantile", "p") and not np.all((grid > 0.0) & (grid < 1.0)):
        raise UsageError(f"--what {args.what} needs a grid inside (0, 1)")
    fn = {"pdf": dist.pdf, "cdf": dist.cdf, "quantile": dist.quantile, "p": mech.p}[args.what]
    values = [fn(float(x)) for x in grid]
    _emit_table(["x", "value"], [[float(x), v] for x, v in zip(grid, values)], args.format, out)
    return 0


_SAMPLE_SLICE = 4096  # draws per write of cmd_sample
# fewest slices a process of cmd_sample formats. On a 2-CPU machine a fork
# and its reap took 4.2 to 4.6 ms and a slice 2.5 to 5.7 ms; two processes
# broke even with one at about 8 slices and saved 20% at 10
_SLICES_PER_PROCESS = 5


def _sample_processes(n_slices: int) -> int:
    """How many processes format a sample of n_slices slices: one per CPU
    this process may run on, but no more than leaves each of them
    _SLICES_PER_PROCESS slices, and one where there is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_slices // _SLICES_PER_PROCESS))


def _slice_text(draws: np.ndarray, i: int) -> str:
    """Slice i of a sample's lines: the reprs of its draws, one a line."""
    part = draws[i * _SAMPLE_SLICE:(i + 1) * _SAMPLE_SLICE]
    return "\n".join(map(float.__repr__, part.tolist())) + "\n"


def _format_slices(draws: np.ndarray, slices: range, fd: int, inherited: list) -> NoReturn:
    """The body of a forked formatter: write the given slices of draws to
    the pipe fd, each as its byte length (8 bytes, little-endian) and its
    text. It first closes the read ends it inherited, so that once the
    parent closes them its pipe has no reader and a blocked write fails.
    Its only I/O is ``os.write``, and it ends in ``os._exit`` whatever is
    raised: no atexit handler runs, and no stream buffer it inherited is
    flushed."""
    status = 1
    try:
        for inherited_fd in inherited:
            os.close(inherited_fd)
        for i in slices:
            data = _slice_text(draws, i).encode("ascii")
            view = memoryview(len(data).to_bytes(8, "little") + data)
            while view:
                view = view[os.write(fd, view):]
        status = 0
    finally:
        os._exit(status)


def _read_slice(reader) -> str:
    """The next slice's text from a formatter's pipe."""
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) != 8 or len(data) != size:
        raise RuntimeError("a sample formatter ended before its slice")
    return data.decode("ascii")


def cmd_sample(args, out) -> int:
    mech = build_mechanism(args.family, _parse_params(args.param))
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    rng = RngState(args.seed)  # seed None draws fresh entropy: not reproducible
    draws = mechanisms.sample_skewed(mechanisms.compose(_STD, mech), rng, args.n)
    # one write a slice of draws: a write per draw costs a Python call each,
    # and one string of all draws would hold about 100 B a draw. Formatting
    # is most of the time, so W processes share it (_sample_processes: the
    # usable CPUs, one below 10 slices). The W - 1 formatters are forked
    # after the draws, which they read copy-on-write. Process k, this one
    # being 0, formats slices k, k + W, ...; this one writes every slice in
    # order, its own and those read from the formatters' pipes, so the bytes
    # do not depend on W, a formatter holds one slice's text and a full pipe
    # makes it wait
    n_slices = -(-args.n // _SAMPLE_SLICE)
    processes = _sample_processes(n_slices)
    readers, pids = [], []
    try:
        for k in range(1, processes):
            fd_read, fd_write = os.pipe()
            readers.append(open(fd_read, "rb"))
            pid = os.fork()
            if pid == 0:
                _format_slices(draws, range(k, n_slices, processes), fd_write,
                               [r.fileno() for r in readers])
            pids.append(pid)
            os.close(fd_write)
        for i in range(n_slices):
            k = i % processes
            out.write(_slice_text(draws, i) if k == 0 else _read_slice(readers[k - 1]))
    finally:
        # closing the read ends first ends a formatter that waits on a full
        # pipe, so every wait below returns
        for reader in readers:
            reader.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise RuntimeError(f"a sample formatter failed, wait statuses {statuses}")
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
    # one array call per density and grid
    xs = np.linspace(0.01, 0.99, 49)
    ys = _STD.quantile_array(xs)
    for family, params in ALL_INSTANCES:
        mech = build_mechanism(family, dict(params))
        case = _case_id(family, params)
        dist = mechanisms.compose(_STD, mech)
        extracted = mechanisms.extract_mechanism(dist, _STD)
        dev = float(np.max(np.abs(extracted.p(xs) - mech.p(xs))))
        rows.append(["roundtrip", f"{case}:p", dev, 1e-7, dev <= 1e-7])
        rebuilt = mechanisms.compose(_STD, extracted)
        dev_pdf = float(np.max(np.abs(rebuilt.pdf(ys) - dist.pdf(ys))))
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


class _OutFile:
    """The ``--out`` file, opened on the first write: a command that exits 2
    before writing leaves the file as it was."""

    def __init__(self, path: str):
        self.path = path
        self.handle = None

    def write(self, text: str) -> None:
        if self.handle is None:
            try:
                self.handle = open(self.path, "w", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"cannot open --out {self.path!r}: {exc.strerror}") from exc
        self.handle.write(text)

    def __enter__(self) -> "_OutFile":
        return self

    def __exit__(self, *exc) -> None:
        if self.handle is not None:
            self.handle.close()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.out is None:
            return args.fn(args, sys.stdout)
        with _OutFile(args.out) as out:
            return args.fn(args, out)
    except (UsageError, SkewlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
