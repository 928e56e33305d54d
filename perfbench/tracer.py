"""In-memory span tracer around bakerfr's public functions.

The tracer replaces every module binding of each traced function (the
defining module, modules that imported it by name, and the package
namespace) with one shared wrapper, so a call is recorded whichever name
it goes through.  Modules that bakerfr imports lazily (the sampler) are
patched when they load.  Each span keeps its name, its parent span and
its start and end; counters record the work a call did.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import Counter

# defining module -> {function name: span name}
TRACED = {
    "bakerfr.maps": {
        "build_simple_baker": "maps.build",
        "build_generalized_baker": "maps.build",
        "build_composite": "maps.build",
        "build_involution": "maps.build",
        "build_perturbation": "maps.build",
        "verify_reversibility": "maps.verify_reversibility",
    },
    "bakerfr.transfer": {
        "region_measures": "transfer.region_measures",
        "transition_matrix": "transfer.transition_matrix",
        "invariant_density": "transfer.invariant_density",
    },
    "bakerfr.observables": {
        "mean_g_per_step": "observables.mean_g_per_step",
    },
    "bakerfr.fluctuation": {
        "chain_spec": "fluctuation.chain_spec",
        "exact_distribution": "fluctuation.exact_distribution",
        "brute_force_distribution": "fluctuation.brute_force_distribution",
        "fr_report": "fluctuation.fr_report",
        "binned_fr_report": "fluctuation.binned_fr_report",
        "alpha_bounds_check": "fluctuation.alpha_bounds_check",
    },
    "bakerfr.periodic_orbits": {
        "enumerate_orbits": "periodic_orbits.enumerate_orbits",
    },
    "bakerfr.ensembles": {
        "sample_g": "ensembles.sample_g",
        "step": "ensembles.step",
        "region_index": "ensembles.region_index",
        "compile_map": "ensembles.compile_map",
    },
    "bakerfr.multibaker": {
        "simulate_current": "multibaker.simulate_current",
        "analytic_current": "multibaker.analytic_current",
    },
    "bakerfr.cli": {
        "main": "cli.main",
    },
}

SPAN_NAMES = sorted({name for funcs in TRACED.values() for name in funcs.values()})


def _sampler_work(bound: inspect.BoundArguments) -> dict:
    a = bound.arguments
    shards = -(-a["ensemble"] // a["shard"])
    return {"ensembles.particle_steps": a["ensemble"] * (a["n"] + a["transient"]),
            "ensembles.region_lookups": a["ensemble"] * a["n"],
            "ensembles.shards": shards}


COUNTER_NAMES = (
    "fluctuation.exact_distribution.cells",
    "fluctuation.alpha_bounds_check.sequences",
    "periodic_orbits.enumerate_orbits.orbits",
    "maps.verify_reversibility.points",
    "ensembles.particle_steps",
    "ensembles.region_lookups",
    "ensembles.shards",
)

# span name -> counters of one call, from its bound arguments and result
COUNTERS = {
    "fluctuation.alpha_bounds_check":
        lambda bound, res: {"fluctuation.alpha_bounds_check.sequences": res.sequences},
    "periodic_orbits.enumerate_orbits":
        lambda bound, res: {"periodic_orbits.enumerate_orbits.orbits": len(res)},
    "maps.verify_reversibility":
        lambda bound, res: {"maps.verify_reversibility.points": res.samples},
    "ensembles.sample_g": lambda bound, res: _sampler_work(bound),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.dp_calls: list[tuple] = []  # (family, l, n, start) per DP call
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of every loaded bakerfr module and
        patch modules that load later."""
        self._patch_loaded()
        sys.meta_path.insert(0, _PatchOnLoad(self))

    def _patch_loaded(self) -> None:
        for modname, funcs in TRACED.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for fname, span in funcs.items():
                fn = getattr(module, fname)
                if not hasattr(fn, "__traced__") and id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(span, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "bakerfr" and not modname.startswith("bakerfr."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counter is not None or name == "fluctuation.exact_distribution":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter is not None:
                    self.counts.update(counter(bound, result))
                else:
                    a = bound.arguments
                    self.dp_calls.append((a["family"], a["l"], a["n"], a["start"]))
            return result

        wrapper.__traced__ = True
        return wrapper

    # -- summary ----------------------------------------------------------

    def summary(self, wall: float) -> dict[str, float]:
        """Per span name: inclusive seconds (outermost calls only), calls
        and self seconds; counters; and the part of `wall` no span covers."""
        durations = [end - start for _n, _p, start, end in self.spans]
        children = [0.0] * len(self.spans)
        for (_n, parent, _s, _e), d in zip(self.spans, durations):
            if parent >= 0:
                children[parent] += d
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        covered = 0.0
        for i, (name, parent, _s, _e) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += durations[i] - children[i]
            if parent < 0:
                covered += durations[i]
            if not self._has_ancestor(i, name):
                out[f"{name}.s"] += durations[i]
        out.update({name: self.counts[name] for name in COUNTER_NAMES})
        out["fluctuation.exact_distribution.cells"] = sum(
            dp_cells(*call) for call in self.dp_calls)
        out["trace.unattributed_s"] = wall - covered
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    """Finds bakerfr submodules as usual and patches each after it runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TRACED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer._patch_loaded()

        spec.loader.exec_module = exec_and_patch
        return spec


@functools.lru_cache(maxsize=None)
def dp_cells(family: str, l, n: int, start: str) -> int:
    """(region, g) cell updates the forward DP of `exact_distribution`
    makes: one per reachable cell and positive-probability successor, on
    each of the n - 1 steps.  Counted on the key sets alone."""
    from bakerfr.fluctuation import chain_spec

    spec = getattr(chain_spec, "__wrapped__", chain_spec)(family, l, start)
    succ = {lab: spec.successors(lab) for lab in spec.labels}
    delta = {lab: spec.delta(lab) for lab in spec.labels}
    keys = {(lab, delta[lab]) for lab, w in spec.initial.items() if w > 0}
    cells = 0
    for _ in range(n - 1):
        nxt = set()
        for lab, g in keys:
            cells += len(succ[lab])
            nxt.update((s, g + delta[s]) for s in succ[lab])
        keys = nxt
    return cells
