"""Span tracing of prwtest's layers from outside the package.

``Tracer.install`` rebinds every public function of each layer with a timing
wrapper.  Modules import each other with ``from .x import f``, so the
wrapper replaces every binding of the original object: module globals across
the package, module-level dicts (``cli._PROCEDURES``) and class attributes
(``LossDistribution.sample``).  Spans are kept in compact in-memory arrays
and summarised, or saved, after the pass.

A span's self time is its duration minus the time of the spans it directly
encloses.  A call *into* a layer is a span whose parent belongs to another
layer (or to the benchmark itself); calls and latencies count only those,
so a layer's internal calls such as ``prw_pvalue -> g -> lower_tail_bound``
are one call into ``prw``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# layer -> (defining module, public names).  "Class.attr" names a method.
LAYERS = {
    "binomial": ("prwtest.binomial", ("cdf", "sf")),
    "prw": ("prwtest.prw", ("prw_pvalue", "g", "g_inverse", "lower_tail_bound")),
    "baselines": ("prwtest.baselines", ("bentkus_pvalue", "hoeffding_tight_pvalue", "compare")),
    "mc": ("prwtest.mc", ("simulate_superuniformity", "LossDistribution.sample")),
    "fwer": ("prwtest.fwer", ("fixed_sequence", "fallback", "bonferroni")),
    "cli": ("prwtest.cli", ("main", "read_loss_csv", "read_pvalue_csv")),
}
LAYER_NAMES = tuple(LAYERS)

# Layers each workload must reach; a traced pass that records no call into
# one of them means the wrappers missed a binding.
REQUIRED_LAYERS = {
    "calibrate": ("binomial", "prw", "baselines", "fwer", "cli"),
    "curves": ("binomial", "prw", "baselines", "cli"),
    "mc": ("binomial", "prw", "baselines", "mc", "cli"),
}

# Every per-layer metric with its unit, in report order.
METRIC_UNITS = {
    f"{layer}.{metric}": unit
    for layer in LAYER_NAMES
    for metric, unit in (("calls", "count"), ("self_s", "s"), ("call_us_p50", "us"),
                         ("call_us_p90", "us"))
}
METRIC_UNITS.update({
    "binomial.distinct_queries": "count",
    "binomial.reuse_ratio": "ratio",
    "binomial.cold_call_us_p50": "us",
    "binomial.warm_call_us_p50": "us",
    "prw.g_inverse_s": "s",
    "mc.sample_s": "s",
    "mc.pvalue_calls_per_rep": "calls/rep",
    "cli.read_s": "s",
    "trace.wall_s": "s",  # computed by run.py from the pass wall times
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
})

_PVALUE_FUNCS = ("prw_pvalue", "bentkus_pvalue", "hoeffding_tight_pvalue")
_READ_FUNCS = ("read_loss_csv", "read_pvalue_csv")
_NO_PARENT = -1


class TraceError(RuntimeError):
    """The instrumentation failed to cover a layer."""


class Tracer:
    def __init__(self) -> None:
        self.funcs: list[tuple[int, str]] = []  # func id -> (layer id, name)
        self.op = 0
        self._stack: list[list] = []  # [layer id, child time]
        self._seen: set = set()
        self.layer = array("b")
        self.func = array("h")
        self.parent = array("b")
        self.span_op = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self.cold = array("b")

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer function; raise if one is missing."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "prwtest" or name.startswith("prwtest."))]
        for layer_id, (layer, (module_name, names)) in enumerate(LAYERS.items()):
            module = sys.modules[module_name]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
                if original is None:
                    raise TraceError(f"{module_name}.{name} not found")
                func_id = len(self.funcs)
                self.funcs.append((layer_id, attr))
                wrapper = self._wrap(original, layer_id, func_id, layer == "binomial")
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                        elif type(value) is dict:
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper
                leftover = [m.__name__ for m in modules
                            if any(v is original for v in vars(m).values())]
                if leftover:
                    raise TraceError(f"{name} still unwrapped in {leftover}")

    def _wrap(self, fn, layer_id: int, func_id: int, keyed: bool):
        stack = self._stack
        seen = self._seen
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cold = 0
            if keyed:
                key = (func_id,) + tuple(
                    (a.n, a.p) if hasattr(a, "n") and hasattr(a, "p") else a for a in args
                )
                if key not in seen:
                    seen.add(key)
                    cold = 1
            frame = [layer_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_layer = parent[0]
                else:
                    parent_layer = _NO_PARENT
                record(layer_id, func_id, parent_layer, t0, dur, dur - frame[1], cold)

        return traced

    def _record(self, layer_id, func_id, parent_layer, t0, dur, self_time, cold) -> None:
        self.layer.append(layer_id)
        self.func.append(func_id)
        self.parent.append(parent_layer)
        self.span_op.append(self.op)
        self.start.append(t0)
        self.dur.append(dur)
        self.self_time.append(self_time)
        self.cold.append(cold)

    # -- reporting ---------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "func": np.frombuffer(self.func, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int8),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "dur": np.frombuffer(self.dur, dtype=np.float64),
            "self": np.frombuffer(self.self_time, dtype=np.float64),
            "cold": np.frombuffer(self.cold, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write every span, with the id -> name tables, to an ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            layer_names=np.array(LAYER_NAMES),
            func_names=np.array([name for _, name in self.funcs]),
            **self.arrays(),
        )

    def summary(self, workload: str, reps: int) -> dict:
        """Per-layer metrics of this pass; raise if a required layer saw no call."""
        import numpy as np

        s = self.arrays()

        def named(*names: str):
            return np.isin(s["func"], [i for i, (_, n) in enumerate(self.funcs) if n in names])

        out: dict[str, float] = {}
        for layer_id, layer in enumerate(LAYER_NAMES):
            mine = s["layer"] == layer_id
            entry = mine & (s["parent"] != layer_id)
            durations_us = s["dur"][entry] * 1e6
            out[f"{layer}.calls"] = int(entry.sum())
            out[f"{layer}.self_s"] = float(s["self"][mine].sum())
            out[f"{layer}.call_us_p50"] = _pct(durations_us, 50)
            out[f"{layer}.call_us_p90"] = _pct(durations_us, 90)
        missing = [layer for layer in REQUIRED_LAYERS[workload] if out[f"{layer}.calls"] == 0]
        if missing:
            raise TraceError(f"no call recorded into layer(s) {missing} on {workload}")

        binomial = s["layer"] == LAYER_NAMES.index("binomial")
        calls = int(binomial.sum())
        out["binomial.distinct_queries"] = len(self._seen)
        out["binomial.reuse_ratio"] = calls / len(self._seen) if self._seen else 0.0
        out["binomial.cold_call_us_p50"] = _pct(s["dur"][binomial & (s["cold"] == 1)] * 1e6, 50)
        out["binomial.warm_call_us_p50"] = _pct(s["dur"][binomial & (s["cold"] == 0)] * 1e6, 50)
        out["prw.g_inverse_s"] = float(s["dur"][named("g_inverse")].sum())
        out["mc.sample_s"] = float(s["dur"][named("sample")].sum())
        from_mc = named(*_PVALUE_FUNCS) & (s["parent"] == LAYER_NAMES.index("mc"))
        out["mc.pvalue_calls_per_rep"] = int(from_mc.sum()) / reps if reps else 0.0
        out["cli.read_s"] = float(s["dur"][named(*_READ_FUNCS)].sum())
        return out


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0
