"""Span recorder for the traced run.

`install()` wraps, in place, the public functions of every hlsixv module
named in MODULES, the public methods of the public classes those modules
define, and `apply` on every lattice object that `hl_process.get_lattice`
returns.  Each name is patched wherever an hlsixv module binds it, so a
caller that imported a function by name (`verify` imports `tv_distance`)
calls the wrapper too.  A target that does not exist is skipped: the
per-layer metrics that need it are left out and the run goes on.

Spans (name, start, end, parent) are kept in flat arrays for one round at a
time.  `end_round()` folds them into per-layer sums; the spans of the last
round are what `write()` saves.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "hl_process",
    "_kernels",
    "six_vertex",
    "rsk",
    "moments",
    "tboson",
    "partitions",
    "verify",
    "distributions",
    "cli",
)

# (module, qualified name) groups behind the per-layer metrics
SIX_VERTEX_EXACT = {
    "exact_outgoing_distribution",
    "exact_outgoing_string_distribution",
    "exact_joint_height_distribution",
    "joint_height_distribution",
    "exact_cut_column_distribution",
}
SIX_VERTEX_SAMPLERS = {
    "sample_state",
    "sample_outgoing_counts",
    "sample_half_continuous",
    "half_continuous_height_ensemble",
}
RSK_ENSEMBLES = {"rsk_first_column_ensemble", "rsk_top_level_ensemble"}
INTEGRANDS = {"hl_integrand", "sixv_integrand"}
APPLY = "get_lattice().apply"  # wrapped per lattice object, whatever its class


def layer_name(module: str) -> str:
    """Metric prefix of a module: `_kernels` reports as `kernels`."""
    return module.lstrip("_")


class Tracer:
    """Collects spans around calls into hlsixv and sums them per layer."""

    def __init__(self):
        self.names: list = []  # span name id -> (module, qualname)
        self._ids: dict = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.stack = [-1]
        self.wrapped: set = set()  # (module, qualname) found and wrapped
        self.builds: list = []  # (span index, edge count) per lattice build
        self.edges_unknown = False
        self.ensemble_runs = 0
        self.integrand_points = 0
        self.totals: dict = defaultdict(float)
        self.rounds = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, module, qualname):
        key = (module, qualname)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def wrap(self, module, qualname, fn, hook=None):
        """fn wrapped so that every call records one span."""
        nid = self._name_id(module, qualname)
        self.wrapped.add((module, qualname))
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result, idx)
            return result

        return traced

    # -- hooks that count work at the boundary -------------------------------

    def _on_lattice(self, fn, args, kwargs, lat, idx):
        try:
            own = vars(lat)
        except TypeError:
            return
        if "apply" in own:  # already wrapped: a cache hit
            return
        apply = getattr(lat, "apply", None)
        if apply is not None:
            lat.apply = self.wrap("hl_process", APPLY, apply)
        edges = getattr(lat, "mu_idx", None)
        if edges is None:
            self.edges_unknown = True
        self.builds.append((idx, 0 if edges is None else len(edges)))

    def _on_ensemble(self, fn, args, kwargs, result, idx):
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except (TypeError, ValueError):
            return
        n_runs = bound.arguments.get("n_runs")
        if n_runs is not None:
            self.ensemble_runs += int(n_runs)

    def _on_integrand(self, fn, args, kwargs, result, idx):
        self.integrand_points += int(np.size(result))

    def hook_for(self, module, qualname):
        if (module, qualname) == ("hl_process", "get_lattice"):
            return self._on_lattice
        if module == "rsk" and qualname in RSK_ENSEMBLES:
            return self._on_ensemble
        if module == "moments" and qualname in INTEGRANDS:
            return self._on_integrand
        return None

    # -- per-round folding ---------------------------------------------------

    def begin_round(self):
        for arr in (self.start, self.end, self.name, self.parent):
            del arr[:]
        self.stack[:] = [-1]
        self.builds.clear()
        self.ensemble_runs = 0
        self.integrand_points = 0

    def end_round(self):
        """Fold this round's spans into the per-layer totals."""
        self.rounds += 1
        names = np.array(self.name, dtype=np.int32)
        n = names.size
        tot = self.totals
        tot["trace.spans"] += n
        tot["hl_process.lattice_builds"] += len(self.builds)
        tot["rsk.ensemble_runs"] += self.ensemble_runs
        tot["moments.integrand_points"] += self.integrand_points
        if n == 0:
            return
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        n_names = len(self.names)
        self_by_name = np.bincount(names, weights=self_time, minlength=n_names)
        dur_by_name = np.bincount(names, weights=dur, minlength=n_names)
        calls_by_name = np.bincount(names, minlength=n_names)
        for nid, (module, qualname) in enumerate(self.names):
            tot[f"{layer_name(module)}.self_s"] += self_by_name[nid]
            tot[f"call_s:{module}:{qualname}"] += dur_by_name[nid]
            tot[f"calls:{module}:{qualname}"] += calls_by_name[nid]

        # inclusive time of the outermost span of a group, so that a group
        # member calling another member is not counted twice
        def outermost(module, group):
            ids = [i for i, key in enumerate(self.names) if key[0] == module and key[1] in group]
            if not ids:
                return 0.0
            member = np.isin(names, ids)
            parent_member = np.zeros(n, dtype=bool)
            parent_member[has_parent] = member[parent[has_parent]]
            return float(dur[member & ~parent_member].sum())

        tot["six_vertex.exact_sweep_s"] += outermost("six_vertex", SIX_VERTEX_EXACT)
        tot["six_vertex.sampler_s"] += outermost("six_vertex", SIX_VERTEX_SAMPLERS)
        builds = [i for i, _ in self.builds]
        tot["hl_process.lattice_build_s"] += float(dur[builds].sum()) if builds else 0.0
        tot["hl_process.lattice_edges"] += sum(e for _, e in self.builds)

    # -- results -------------------------------------------------------------

    def has(self, module, *qualnames):
        return any((module, q) in self.wrapped for q in qualnames)

    def per_layer(self) -> dict:
        """Per-round values of every per-layer metric whose target exists."""
        rounds = max(self.rounds, 1)
        tot = self.totals
        out = {}

        def calls(module, *qualnames):
            return sum(tot.get(f"calls:{module}:{q}", 0) for q in qualnames)

        def call_s(module, *qualnames):
            return sum(tot.get(f"call_s:{module}:{q}", 0.0) for q in qualnames)

        def per_round(name, unit, total):
            out[name] = {"value": float(total) / rounds, "unit": unit}

        def per_call_us(name, module, qualname):
            n = calls(module, qualname)
            us = 1e6 * call_s(module, qualname) / n if n else 0.0
            out[name] = {"value": us, "unit": "us"}

        for module in MODULES:
            if any(key[0] == module for key in self.wrapped):
                per_round(f"{layer_name(module)}.self_s", "s",
                          tot.get(f"{layer_name(module)}.self_s", 0.0))
        if self.has("hl_process", "get_lattice"):
            per_round("hl_process.lattice_build_s", "s", tot["hl_process.lattice_build_s"])
            per_round("hl_process.lattice_builds", "count", tot["hl_process.lattice_builds"])
            if not self.edges_unknown:
                per_round("hl_process.lattice_edges", "count", tot["hl_process.lattice_edges"])
            per_round("hl_process.apply_s", "s", call_s("hl_process", APPLY))
            per_round("hl_process.apply_calls", "count", calls("hl_process", APPLY))
        if self.has("_kernels", "build_interlacing_edges"):
            per_round("kernels.build_edges_s", "s", call_s("_kernels", "build_interlacing_edges"))
        if self.has("_kernels", "scatter_accumulate"):
            per_round("kernels.scatter_s", "s", call_s("_kernels", "scatter_accumulate"))
        if self.has("six_vertex", *SIX_VERTEX_EXACT):
            per_round("six_vertex.exact_sweep_s", "s", tot["six_vertex.exact_sweep_s"])
        if self.has("six_vertex", *SIX_VERTEX_SAMPLERS):
            per_round("six_vertex.sampler_s", "s", tot["six_vertex.sampler_s"])
        steppers = ("rsk_apply_signal", "sets_apply_signal")
        if self.has("rsk", *steppers):
            per_round("rsk.signals", "count", calls("rsk", *steppers))
        if self.has("rsk", "rsk_apply_signal"):
            per_call_us("rsk.array_step_us", "rsk", "rsk_apply_signal")
        if self.has("rsk", "sets_apply_signal"):
            per_call_us("rsk.set_step_us", "rsk", "sets_apply_signal")
        if self.has("rsk", *RSK_ENSEMBLES):
            per_round("rsk.ensemble_runs", "count", tot["rsk.ensemble_runs"])
        if self.has("moments", *INTEGRANDS):
            per_round("moments.integrand_points", "count", tot["moments.integrand_points"])
        if self.has("tboson", "operator_matrix"):
            per_round("tboson.operator_matrices", "count", calls("tboson", "operator_matrix"))
        if self.has("partitions", "skew_p_one", "skew_q_one"):
            per_round("partitions.skew_calls", "count",
                      calls("partitions", "skew_p_one", "skew_q_one"))
        checks = [q for m, q in self.wrapped if m == "verify" and q.startswith("check_")]
        if checks:
            per_round("verify.checks", "count", calls("verify", *checks))
        per_round("trace.spans", "count", tot["trace.spans"])
        return out

    def write(self, path):
        """Save the last round's spans as arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            names=np.array([f"{m}.{q}" for m, q in self.names]),
        )


def install() -> Tracer:
    """Wrap the public functions and methods of every module in MODULES."""
    tracer = Tracer()
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"hlsixv.{short}")
        except ImportError:
            continue
    package = [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "hlsixv" or name.startswith("hlsixv."))
    ]
    done: set = set()
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and obj not in done:
                wrapper = tracer.wrap(short, name, obj, tracer.hook_for(short, name))
                done.add(obj)
                for other in package:
                    for gname, gobj in list(vars(other).items()):
                        if gobj is obj:
                            setattr(other, gname, wrapper)
            elif inspect.isclass(obj):
                _wrap_methods(tracer, short, obj)
    return tracer


def _wrap_methods(tracer, short, cls):
    for mname, member in list(vars(cls).items()):
        if mname.startswith("_"):
            continue
        qual = f"{cls.__name__}.{mname}"
        if inspect.isfunction(member):
            setattr(cls, mname, tracer.wrap(short, qual, member))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, mname, type(member)(tracer.wrap(short, qual, member.__func__)))
