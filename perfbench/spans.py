"""Span tracing of skewlab's layers from outside the package.

``Tracer.install`` replaces the public functions and methods listed by
``layers()`` with wrappers, in the benchmark process only; ``uninstall``
puts the originals back. A function that another skewlab module
imported by name (``divisibility.compose``, ``divisibility.log_tail_mass``,
the package namespace) is replaced there too.

Each span records its name, start, end and parent. A layer's self time
is its span's duration minus the part its child spans cover, accumulated
as spans close. Spans are also kept in memory, by whole rounds, and
written out when the run ends: ``start_round`` keeps every span of a
round if fewer than ``SPAN_CAP`` are kept so far, so the first traced
round is always kept whole and the file never ends partway through one.
The cap bounds memory: one ``evaluate`` round opens about 465,000 spans.
The callables handed to ``log_integrate`` and ``find_root`` are wrapped
to count integrand and root-function evaluations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

SPAN_CAP = 100_000

_KERNELS = ("normal_pdf", "log_normal_pdf", "normal_cdf", "log_normal_cdf", "log_normal_sf",
            "normal_quantile")
_BETA = ("log_beta", "reg_inc_beta", "inv_reg_inc_beta", "log_reg_inc_beta", "log_reg_inc_beta_exp")
_MECH_CLASSES = ("SkewingMechanism", "SkewSymmetric", "OrderStatistics", "MarshallOlkin",
                 "TwoPiece", "NumericMechanism")
_HOOKS = ("composed_log_pdf", "composed_log_cdf", "composed_log_sf")
_SCALAR = ("p", "log_p", "cdf_P", "quantile_P")
_ARRAY = ("p_array", "cdf_P_array", "quantile_P_array")
_CONSTRUCT = ("__init__", "azzalini", "epsilon_skew", "inverse_scale_factors")


def layers():
    """(owner, attribute, group) for every wrapped name."""
    from skewlab import cli, distributions, divisibility, mechanisms, montecarlo, numcore

    out = [(numcore, n, "numcore.kernel") for n in _KERNELS]
    out += [(numcore, n, "numcore.beta") for n in _BETA]
    out += [(numcore, "log_integrate", "numcore.log_integrate"),
            (numcore, "find_root", "numcore.find_root")]
    for cls_name in _MECH_CLASSES:
        cls = getattr(mechanisms, cls_name)
        for names, group in ((_HOOKS, "mechanisms.hook"), (_SCALAR, "mechanisms.scalar"),
                             (_ARRAY, "mechanisms.array"), (_CONSTRUCT, "mechanisms.construct")):
            out += [(cls, n, group) for n in names if n in vars(cls)]
    out += [(mechanisms.AzzaliniPi, "__init__", "mechanisms.construct"),
            (mechanisms.SkewedDistribution, "__init__", "mechanisms.construct"),
            (mechanisms, "compose", "mechanisms.construct"),
            (mechanisms, "extract_mechanism", "mechanisms.construct")]
    out += [(mechanisms.SkewedDistribution, n, "distributions.api")
            for n in ("pdf", "log_pdf", "cdf", "log_cdf", "log_sf", "quantile")]
    out += [(mechanisms.SkewedDistribution, n, "distributions.bulk")
            for n in ("cdf_array", "quantile_array")]
    out += [(distributions.ContinuousDistribution, "sample", "distributions.bulk")]
    out += [(distributions.RngState, n, "distributions.bulk")
            for n in ("__init__", "split", "uniform", "standard_normal")]
    out += [(distributions, "log_tail_mass", "distributions.log_tail_mass")]
    out += [(divisibility, "estimate_sup_p", "divisibility.sup_p"),
            (divisibility, "steutel_statistic", "divisibility.steutel"),
            (divisibility, "verify_theorem1_bound", "divisibility.thm1"),
            (divisibility, "verify_theorem2_chain", "divisibility.thm2"),
            (divisibility, "divisibility_verdict", "divisibility.verdict")]
    out += [(montecarlo, "ks_test", "montecarlo.ks"), (cli, "main", "cli.command")]
    return out


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        import skewlab
        from skewlab import cli, distributions, divisibility, mechanisms, montecarlo, numcore

        self._modules = (skewlab, numcore, distributions, mechanisms, divisibility, montecarlo, cli)
        self._layers = layers()
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.groups: list[str] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # integrand_evals, root_fn_evals, array_elems, errors
        self.spans: list[list] = []
        self.dropped = 0
        self.keeping = True
        self._stack: list[list] = []  # [span index, start, child time, name id]
        self._wrappers: dict[int, object] = {}
        self._root_ids: dict[str, int] = {}

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.groups.append(group)
        return len(self.names) - 1

    def start_round(self) -> None:
        self.keeping = len(self.spans) < SPAN_CAP

    def _open(self, nid: int) -> list:
        if self.keeping:
            idx = len(self.spans)
            self.spans.append([nid, 0.0, 0.0, self._stack[-1][0] if self._stack else -1])
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, time.perf_counter(), 0.0, nid]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, start, child, nid = frame
        self.self_s[nid] += end - start - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += end - start
        if idx >= 0:
            self.spans[idx][1:3] = [start, end]

    def _wrap(self, fn, name: str, group: str):
        nid = self._name_id(name, group)
        counts, groups, stack = self.counts, self.groups, self._stack
        in_numcore = group.startswith("numcore.")
        counted = {"numcore.log_integrate": "integrand_evals",
                   "numcore.find_root": "root_fn_evals"}.get(group)
        array = group == "mechanisms.array"
        tracer = self

        def wrapper(*args, **kwargs):
            if counted is not None:
                inner = args[0]

                def counting(t):
                    counts[counted] += 1
                    return inner(t)

                args = (counting,) + args[1:]
            elif array:
                counts["array_elems"] += int(np.size(args[1]))
            frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count exceptions leaving numcore, not those passing within it
                if in_numcore and (len(stack) < 2 or not groups[stack[-2][3]].startswith("numcore.")):
                    counts["errors"] += 1
                raise
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for i, (owner, attr, group) in enumerate(self._layers):
            raw = vars(owner)[attr]
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper_for(i, raw.__func__, label, group))
            else:
                wrapped = self._wrapper_for(i, raw, label, group)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                for module in self._modules:
                    for name, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._saved.append((module, name, raw))
                            setattr(module, name, wrapped)

    def _wrapper_for(self, i: int, fn, label: str, group: str):
        # one wrapper per name for the whole run, so its span name is stable
        if i not in self._wrappers:
            self._wrappers[i] = self._wrap(fn, label, group)
        return self._wrappers[i]

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def root(self, name: str):
        """A span for one benchmark operation, the parent of its layer spans."""
        return _Root(self, name)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-group totals so far: calls, self seconds, and the counters."""
        out: dict = defaultdict(float)
        for nid, group in enumerate(self.groups):
            if group == "bench":
                continue
            out[f"{group}.calls"] += self.calls[nid]
            out[f"{group}.self_s"] += self.self_s[nid]
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "groups": self.groups,
                                     "dropped": self.dropped}) + "\n")
            for nid, start, end, parent in self.spans:
                handle.write(f"[{nid},{start!r},{end!r},{parent}]\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        if name not in tracer._root_ids:
            tracer._root_ids[name] = tracer._name_id(name, "bench")
        self.nid = tracer._root_ids[name]

    def __enter__(self):
        self.frame = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False
