"""Layered benchmark for skewlab.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's operations from the seed, runs one
warm-up round (neither timed nor checked; the peak memory is read after
it), then whole rounds until ``--seconds`` have passed, and checks every
distinct output against references computed apart from skewlab
(perfbench/refs.json, rebuilt by ``python3 perfbench/refs.py``) and
against the operations known to fail (perfbench/known_faults.json).
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` untraced and traced rounds alternate, and the metrics
are the per-layer ones, per traced round, plus the tracing overhead.
``--smoke`` runs every workload for one round in both modes with every
check and exits non-zero if any check fails: the benchmark's own test.

The process pins BLAS/OpenMP pools to one thread and imports skewlab
from the ``src`` directory next to this one, never from elsewhere.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (this file's directory is first on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# The sandbox's CPU speed drifts by tens of percent over seconds (CPU time
# tracks wall time, so it is not waiting). Every CAL_EVERY_S of op time
# the runner times calibrate(), a fixed loop that never touches skewlab,
# and rescales the op times since the last calibration to a machine on
# which that loop takes CAL_REF_S. Rates and setup_s are reported on that
# time base; the detail line also gives the raw wall-clock rates.
CAL_EVERY_S = 0.5
CAL_REF_S = 0.05
_CAL_X = None


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted calls, scalar and vector
    scipy.special calls, a sort and float formatting."""
    global _CAL_X
    import io
    import math

    import numpy as np
    from scipy import special

    if _CAL_X is None:
        _CAL_X = np.linspace(-8.0, 8.0, 200_000)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        t = i * 1e-3
        acc += math.exp(-0.5 * t * t) * math.log1p(t)
    for i in range(5_000):
        acc += float(special.ndtr(i * 1e-3))
    acc += float(special.log_ndtr(_CAL_X).sum()) + float(np.sort(_CAL_X[::-1])[0])
    buf = io.StringIO()
    for v in _CAL_X[:30_000]:
        buf.write(repr(float(v)) + "\n")
    return time.perf_counter() - t0

# per-layer metric name -> key of Tracer.snapshot()
PER_LAYER = {
    "numcore.kernel_calls": "numcore.kernel.calls",
    "numcore.kernel_self_s": "numcore.kernel.self_s",
    "numcore.beta_calls": "numcore.beta.calls",
    "numcore.beta_self_s": "numcore.beta.self_s",
    "numcore.log_integrate_calls": "numcore.log_integrate.calls",
    "numcore.integrand_evals": "integrand_evals",
    "numcore.log_integrate_self_s": "numcore.log_integrate.self_s",
    "numcore.find_root_calls": "numcore.find_root.calls",
    "numcore.root_fn_evals": "root_fn_evals",
    "numcore.find_root_self_s": "numcore.find_root.self_s",
    "numcore.errors": "errors",
    "mechanisms.hook_calls": "mechanisms.hook.calls",
    "mechanisms.hook_self_s": "mechanisms.hook.self_s",
    "mechanisms.scalar_calls": "mechanisms.scalar.calls",
    "mechanisms.scalar_self_s": "mechanisms.scalar.self_s",
    "mechanisms.array_calls": "mechanisms.array.calls",
    "mechanisms.array_elems": "array_elems",
    "mechanisms.array_self_s": "mechanisms.array.self_s",
    "mechanisms.construct_s": "mechanisms.construct.self_s",
    "distributions.api_calls": "distributions.api.calls",
    "distributions.api_self_s": "distributions.api.self_s",
    "distributions.bulk_self_s": "distributions.bulk.self_s",
    "distributions.log_tail_mass_calls": "distributions.log_tail_mass.calls",
    "divisibility.sup_p_self_s": "divisibility.sup_p.self_s",
    "divisibility.steutel_self_s": "divisibility.steutel.self_s",
    "divisibility.thm1_self_s": "divisibility.thm1.self_s",
    "divisibility.thm2_self_s": "divisibility.thm2.self_s",
    "divisibility.verdict_self_s": "divisibility.verdict.self_s",
    "montecarlo.ks_self_s": "montecarlo.ks.self_s",
    "cli.command_self_s": "cli.command.self_s",
}


def import_skewlab():
    """Import skewlab from this checkout's src directory, or exit."""
    if not (SRC / "skewlab" / "__init__.py").is_file():
        sys.exit(f"error: no skewlab sources at {SRC / 'skewlab'}")
    sys.path.insert(0, str(SRC))
    import skewlab

    if Path(skewlab.__file__).resolve().parent != SRC / "skewlab":
        sys.exit(f"error: imported skewlab from {skewlab.__file__}, not from {SRC}")
    return skewlab


def _fingerprint(x):
    import numpy as np

    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if isinstance(x, np.ndarray):
        return ("array", x.shape, hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest())
    if isinstance(x, bytes):
        return ("bytes", len(x), hashlib.blake2b(x, digest_size=16).hexdigest())
    if isinstance(x, tuple):
        return tuple(_fingerprint(v) for v in x)
    if isinstance(x, float):
        return repr(x)
    try:
        hash(x)
        return x
    except TypeError:
        return repr(x)


class Runner:
    """Runs rounds of one workload's operations and checks their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.build()
        self.known = workloads.KNOWN_FAULTS.get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.incorrect: list[str] = []
        self.family_s: Counter = Counter()
        self._verdicts: dict = {}
        self._cal = None
        self.cals: list[float] = []

    def warm_up(self) -> None:
        """One round of the operations alone: no timing, no checks, so
        nothing of the checker (mpmath, references) or of the calibration
        is loaded yet and the process's peak memory is skewlab's."""
        for op in self.ops:
            try:
                op.call()
            except Exception:
                pass

    def _rescale(self, pending: list, stage_s: list) -> None:
        """Calibrate and move the pending op seconds onto the reference base."""
        cal = calibrate()
        scale = CAL_REF_S / (0.5 * (self._cal + cal))
        for k in range(3):
            stage_s[k] += pending[k] * scale
            pending[k] = 0.0
        self._cal = cal
        self.cals.append(cal)

    def round(self, tracer=None) -> dict:
        """One round; returns per-stage op seconds (calibrated and raw),
        work and bytes written."""
        from time import perf_counter

        if self._cal is None:
            self._cal = calibrate()
            self.cals.append(self._cal)
        stage_s = [0.0, 0.0, 0.0]
        raw_s = [0.0, 0.0, 0.0]
        pending = [0.0, 0.0, 0.0]
        work = [0, 0, 0]
        self.workload.bytes_written = 0
        for op in self.ops:
            if tracer is None:
                t0 = perf_counter()
                try:
                    raw = op.call()
                except Exception as exc:  # an op failure is a result to check
                    raw = exc
                dt = perf_counter() - t0
            else:
                with tracer.root(f"bench.stage{op.stage}"):
                    t0 = perf_counter()
                    try:
                        raw = op.call()
                    except Exception as exc:
                        raw = exc
                    dt = perf_counter() - t0
            raw_s[op.stage - 1] += dt
            pending[op.stage - 1] += dt
            work[op.stage - 1] += op.work
            self.family_s[op.family] += dt
            out = op.after(raw) if op.after is not None and not isinstance(raw, Exception) else raw
            self._account(op, out)
            if sum(pending) >= CAL_EVERY_S:
                self._rescale(pending, stage_s)
        self._rescale(pending, stage_s)
        return {"stage_s": stage_s, "raw_s": raw_s, "work": work,
                "bytes": self.workload.bytes_written, "op_s": sum(stage_s)}

    def _account(self, op, out) -> None:
        key = (op.key, _fingerprint(out))
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                verdict = self.workload.check(op, out)
            except Exception as exc:  # output the check could not read
                verdict = workloads.Verdict(False, detail=f"check raised {exc!r}")
            self._verdicts[key] = verdict
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            fault = self.known.get(self.workload.op_id(op))
            self.faults[fault or "unexpected"] += 1
            if fault is None and len(self.incorrect) < 20:
                self.incorrect.append(f"{op.key}: {verdict.detail}")


def measure_setup(name: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports skewlab and
    builds the workload's mechanisms and inputs (references excluded),
    calibrated and raw."""
    scaled, raw = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name,
           "--seed", str(seed)]
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        cal_next = calibrate()
        scaled.append(raw[-1] * CAL_REF_S / (0.5 * (cal + cal_next)))
        cal = cal_next
    return statistics.median(scaled), statistics.median(raw)


def run(name: str, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
        warmup: bool = True) -> tuple[dict, dict]:
    """One run; returns (result line, detail line)."""
    workload = workloads.WORKLOADS[name](seed, str(ROOT))
    try:
        runner = Runner(workload)
        if warmup:
            runner.warm_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s, setup_raw_s = (None, None) if trace else measure_setup(name, seed, setup_repeats)
        timed, traced = [], []
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
        start = time.perf_counter()
        while True:
            if trace and len(timed) > len(traced):
                before = tracer.snapshot()
                tracer.start_round()
                tracer.install()
                try:
                    result = runner.round(tracer)
                finally:
                    tracer.uninstall()
                after = tracer.snapshot()
                result["layers"] = {k: after.get(k, 0.0) - before.get(k, 0.0)
                                    for k in set(after) | set(before)}
                traced.append(result)
            else:
                timed.append(runner.round())
            done = time.perf_counter() - start >= seconds
            if done and (not trace or len(traced) == len(timed)):
                break
        if trace:
            tracer.write_spans(str(_out_dir() / f"spans-{name}.jsonl"))
    finally:
        workload.close()

    stage_med = [statistics.median(r["stage_s"][k] for r in timed) for k in range(3)]
    raw_med = [statistics.median(r["raw_s"][k] for r in timed) for k in range(3)]
    work = timed[0]["work"]
    rates = [work[k] / stage_med[k] for k in range(3)]
    detail = {
        "workload": name, "seed": seed, "rounds": len(timed) + len(traced),
        "calibration_s": statistics.median(runner.cals),
        "stages": {unit: {"per_round": work[k], "median_s": stage_med[k], "per_s": rates[k],
                          "raw_median_s": raw_med[k], "raw_per_s": work[k] / raw_med[k]}
                   for k, unit in enumerate(workload.stage_units)},
        "issue_metrics": _issue_metrics(name, work, stage_med),
        "faults": dict(runner.faults),
        "family_share": {f: round(t / sum(runner.family_s.values()), 4)
                         for f, t in runner.family_s.most_common()},
    }
    if runner.incorrect:
        detail["incorrect"] = runner.incorrect
    if trace:
        metrics = {}
        for metric, key in PER_LAYER.items():
            value = statistics.median(r["layers"].get(key, 0.0) for r in traced)
            if metric.endswith("_s"):
                metrics[metric] = {"value": value, "unit": "s"}
            else:
                metrics[metric] = {"value": round(value), "unit": "count"}
        metrics["cli.bytes_written"] = {"value": round(statistics.median(r["bytes"] for r in traced)),
                                        "unit": "B"}
        untraced_s = statistics.median(r["op_s"] for r in timed)
        traced_s = statistics.median(r["op_s"] for r in traced)
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / untraced_s - 1.0), "unit": "%"}
        detail["spans_dropped"] = tracer.dropped
    else:
        detail["setup_raw_s"] = setup_raw_s
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for k in range(3):
            metrics[f"stage{k + 1}_per_s"] = {"value": rates[k], "unit": "1/s"}
    result = {"correct": runner.faults["unexpected"] == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, detail


def _issue_metrics(name: str, work: list, stage_s: list) -> dict:
    """The end-to-end figures by their descriptive names, from the stages."""
    if name == "certify":
        return {"verify_all_s": {"value": stage_s[0], "unit": "s"},
                "verdicts_per_s": {"value": (work[1] + work[2]) / (stage_s[1] + stage_s[2]),
                                   "unit": "1/s"}}
    if name == "evaluate":
        return {"closed_evals_per_s": {"value": work[0] / stage_s[0], "unit": "1/s"},
                "skewsym_evals_per_s": {"value": (work[1] + work[2]) / (stage_s[1] + stage_s[2]),
                                        "unit": "1/s"}}
    return {"draws_per_s": {"value": work[0] / stage_s[0], "unit": "1/s"},
            "fit_points_per_s": {"value": work[1] / stage_s[1], "unit": "1/s"},
            "cli_draws_per_s": {"value": work[2] / stage_s[2], "unit": "1/s"}}


def _out_dir() -> Path:
    path = HERE / "out"
    path.mkdir(exist_ok=True)
    return path


def smoke() -> int:
    """Every workload for one round in both modes, with every check."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, detail = run(name, seed=1, seconds=0, trace=trace, setup_repeats=1,
                                 warmup=False)
            print(json.dumps(detail))
            print(json.dumps(result))
            if not result["correct"] or result["attempted"] < 1:
                status = 1
    print("smoke: " + ("ok" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("certify", "evaluate", "sample"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_skewlab()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, str(ROOT)).build()
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if "incorrect" in detail:
        print("incorrect outputs:\n  " + "\n  ".join(detail["incorrect"]), file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
