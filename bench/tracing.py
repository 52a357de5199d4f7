"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each public function listed in TARGETS is replaced by a wrapper in every
`defectchain` module that holds it (the defining module, `defectchain`
itself, `cli` and any module that imported it by name), so no call can go
around the wrapper.  A span is (name, start, end, parent); a layer's self
time is its span's duration minus the part its wrapped children cover.

The span stack is shared by all threads.  That is exact here because the
benchmark leaves every sweep at one worker (the CLI's pool then runs one
job at a time while its caller waits); interleaved spans raise.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric prefix -> (module, attribute path, work counts)
# A work count is (metric name, fn(args, kwargs, result) -> int).
TARGETS = {
    "spectral.find_poles": ("defectchain.spectral", "find_poles",
                            (("spectral.find_poles.poles", lambda a, k, r: int(r.x_retained.size)),)),
    "single_defect.build_defect_system": ("defectchain.single_defect", "build_defect_system", ()),
    "single_defect.steady_corrections": ("defectchain.single_defect", "steady_corrections", ()),
    "single_defect.steady_occupation": ("defectchain.single_defect", "steady_occupation", ()),
    "single_defect.steady_moment_defect": ("defectchain.single_defect", "steady_moment_defect", ()),
    "single_defect.occupation_defect_series": ("defectchain.single_defect", "occupation_defect_series",
                                               (("single_defect.occupation_defect_series.rows",
                                                 lambda a, k, r: len(r)),)),
    "single_defect.moment_defect_series": ("defectchain.single_defect", "moment_defect_series",
                                           (("single_defect.moment_defect_series.rows",
                                             lambda a, k, r: len(r)),)),
    "homogeneous.moment_series": ("defectchain.homogeneous", "moment_series",
                                  (("homogeneous.moment_series.rows", lambda a, k, r: len(r)),)),
    "homogeneous.estimate_tstar": ("defectchain.homogeneous", "estimate_tstar", ()),
    "homogeneous.green_profiles": ("defectchain.homogeneous", "green_profiles", ()),
    "strong_defect.steady_profile_infinite_q": ("defectchain.strong_defect",
                                                "steady_profile_infinite_q", ()),
    "multi_defect.build_two_defect_system": ("defectchain.multi_defect", "build_two_defect_system", ()),
    "multi_defect.two_defect_occupation": ("defectchain.multi_defect", "two_defect_occupation", ()),
    "oracle.from_hamiltonian": ("defectchain.oracle", "SpectralDecomposition.from_hamiltonian", ()),
    "oracle.time_average_exact": ("defectchain.oracle", "time_average_exact", ()),
    "oracle.occupation_exact": ("defectchain.oracle", "occupation_exact", ()),
    "cli.main": ("defectchain.cli", "main", ()),
    "cli.write": ("defectchain.cli", "ResultTable.write",
                  (("cli.records", lambda a, k, r: len(a[0].records)),)),
}

# The per-layer metrics a traced run reports; `.calls` only where a call
# count can move (the others are fixed by the workload).
WITH_CALLS = {"spectral.find_poles", "single_defect.build_defect_system",
              "single_defect.steady_corrections", "homogeneous.moment_series",
              "homogeneous.estimate_tstar", "strong_defect.steady_profile_infinite_q",
              "multi_defect.build_two_defect_system", "multi_defect.two_defect_occupation",
              "oracle.from_hamiltonian"}

# Workloads on which each target must be called (the README's table); a
# traced run that records no call there has a wrapper that was bypassed.
_ALL = ("paper_figures", "steady_sweep", "time_series")
EXERCISED_BY = {
    "spectral.find_poles": _ALL,
    "single_defect.build_defect_system": _ALL,
    "single_defect.steady_corrections": ("paper_figures", "steady_sweep"),
    "single_defect.steady_occupation": ("paper_figures", "steady_sweep"),
    "single_defect.steady_moment_defect": ("paper_figures", "steady_sweep"),
    "single_defect.occupation_defect_series": ("time_series",),
    "single_defect.moment_defect_series": ("time_series",),
    "homogeneous.moment_series": ("paper_figures", "time_series"),
    "homogeneous.estimate_tstar": ("paper_figures", "time_series"),
    "homogeneous.green_profiles": ("time_series",),
    "strong_defect.steady_profile_infinite_q": ("paper_figures", "steady_sweep"),
    "multi_defect.build_two_defect_system": ("time_series",),
    "multi_defect.two_defect_occupation": ("time_series",),
    "oracle.from_hamiltonian": ("paper_figures",),
    "oracle.time_average_exact": ("paper_figures",),
    "cli.main": ("paper_figures",),
    "cli.write": ("paper_figures",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, child_time]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, prefix, fn, works):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [prefix, perf_counter(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                if stack.pop() != idx:
                    raise RuntimeError(f"interleaved spans around {prefix}")
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            for name, count in works:
                counts[name] = counts.get(name, 0) + count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every reference to each target inside the defectchain modules."""
        for prefix, (modname, path, works) in TARGETS.items():
            module = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(prefix, raw.__func__, works)))
                continue
            wrapped = self._wrap(prefix, raw, works)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "defectchain" or name.startswith("defectchain."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics over the spans so far, and the call count of
        every target."""
        out = {prefix + ".s": 0.0 for prefix in TARGETS}
        calls = dict.fromkeys(TARGETS, 0)
        for name, start, end, _, child in self.spans:
            out[name + ".s"] += (end - start) - child
            calls[name] += 1
        for prefix, (_, _, works) in TARGETS.items():
            if prefix in WITH_CALLS:
                out[prefix + ".calls"] = calls[prefix]
            for name, _ in works:
                out[name] = self.counts.get(name, 0)
        return out, calls
