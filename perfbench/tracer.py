"""Per-layer timing from outside the program.

``Tracer.install`` replaces each traced kinassim function by a wrapper in
every module that binds it (kinassim's and the benchmark's own), because
each caller looks the name up in its own module:
``kinassim.assimilation.sv_cfl`` and ``kinassim.shallow_water.sv_cfl`` are
separate bindings of one function.  A wrapper records one span (name,
parent span, start, end) in memory; the spans are written out once, after
the run, as arrays in an .npz file.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, functions).  A span name is the prefix of the
# per-layer metrics it yields: "<span>.calls" and "<span>.self_s".
SPANS = {
    "kinetic.upwind_power_moment": ("kinetic", ("upwind_power_moment",)),
    "kinetic.chi_indicator": ("kinetic", ("chi_indicator",)),
    "shallow_water.sv_forward_step": ("shallow_water", ("sv_forward_step",)),
    "shallow_water.sv_observer_step": ("shallow_water", ("sv_observer_step",)),
    "shallow_water.hydrostatic_reconstruct": ("shallow_water", ("hydrostatic_reconstruct",)),
    "shallow_water.sv_interface_flux": ("shallow_water", ("sv_interface_flux",)),
    "shallow_water.sv_cfl": ("shallow_water", ("sv_cfl",)),
    "shallow_water.total_energy": ("shallow_water", ("total_energy",)),
    "burgers.step_collapse_macroscopic": ("burgers", ("step_collapse_macroscopic",)),
    "metrics.sobolev_seminorm": ("metrics", ("sobolev_seminorm",)),
    "metrics.norms": ("metrics", ("l1_relative", "l1_absolute", "l2_absolute")),
    "observation.sample_observations": ("observation", ("sample_observations",)),
    "observation.interpolate_in_time": ("observation", ("interpolate_in_time",)),
    "config.parse_config": ("config", ("parse_config",)),
    # the driver loop and gain controller: whatever the drivers do outside
    # the spans above
    "assimilation": ("assimilation", ("run_twin", "sweep_lambda")),
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_interfaces(counts, args, kwargs, result):
    counts["interfaces"] += len(_arg(args, kwargs, 1, "h"))


def _count_truth_steps(counts, args, kwargs, result):
    counts["truth_steps"] += len(result.dt_history)


def _count_step(nudged):
    def count(counts, args, kwargs, result):
        counts["steps"] += 1
        counts["nudged_steps"] += nudged(args, kwargs)

    return count


def _collapse_nudged(args, kwargs):
    return _arg(args, kwargs, 1, "obs_u") is not None and _arg(args, kwargs, 2, "lam") > 0.0


# Counters kept at the same boundaries as the spans, by wrapped function.
# Every solver step of the three workloads goes through one of the three step
# functions; a step is nudged when it carries an observation with a positive
# gain (sv_observer_step is only called then).
_COUNTERS = {
    "upwind_power_moment": _count_interfaces,
    "run_twin": _count_truth_steps,
    "sv_forward_step": _count_step(lambda args, kwargs: False),
    "sv_observer_step": _count_step(lambda args, kwargs: True),
    "step_collapse_macroscopic": _count_step(_collapse_nudged),
}


class Tracer:
    def __init__(self):
        # one entry per span, in flat integer arrays so that hundreds of
        # thousands of spans add no work for the garbage collector
        self.names = list(SPANS)
        self.span = array("h")  # index into self.names
        self.parent = array("q")  # index of the enclosing span, -1 at the top
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(("interfaces", "steps", "nudged_steps", "truth_steps"), 0)
        self._patched: list = []

    def _wrap(self, span: str, fn):
        span_id = self.names.index(span)
        spans, parents, starts, ends = self.span, self.parent, self.start, self.end
        stack, clock, counts = self._stack, time.perf_counter_ns, self.counts
        count = _COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(span_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self, callers=()):
        """Patch every binding of every traced function in the loaded kinassim
        modules and in the ``callers`` modules (the benchmark's own)."""
        for module, _ in SPANS.values():
            importlib.import_module(f"kinassim.{module}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kinassim" or name.startswith("kinassim."))]
        modules += list(callers)
        for span, (module, names) in SPANS.items():
            home = importlib.import_module(f"kinassim.{module}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, plus the driver's step counters."""
        covered = [0] * len(self.span)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span, start, end, child in zip(self.span, self.start, self.end, covered):
            calls[span] += 1
            self_ns[span] += end - start - child
        out = {}
        for i, span in enumerate(self.names):
            if span != "assimilation":
                out[f"{span}.calls"] = calls[i]
            out[f"{span}.self_s"] = self_ns[i] * 1e-9
        upwind = self_ns[self.names.index("kinetic.upwind_power_moment")]
        counts = self.counts
        out["kinetic.upwind_power_moment.ns_per_interface"] = (
            upwind / counts["interfaces"] if counts["interfaces"] else 0.0
        )
        observer_steps = counts["steps"] - counts["truth_steps"]
        out["assimilation.truth_steps"] = counts["truth_steps"]
        out["assimilation.observer_steps"] = observer_steps
        out["assimilation.nudged_ratio"] = (
            counts["nudged_steps"] / observer_steps if observer_steps else 0.0
        )
        return out

    def write(self, path):
        """Write every span (name, parent, start_ns, end_ns) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
