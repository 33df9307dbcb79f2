"""Outside-in tracing of the unicrit layers, and the per-layer metrics
derived from the spans.

The tracer wraps the public functions of each module without touching the
package's source.  Modules import each other's functions by name (verify
does `from .factorz import factor`), so wrapping `unicrit.factorz.factor`
alone would miss most calls: install() rebinds every attribute of every
loaded `unicrit` module that *is* a target function.

A span is a list [name, parent, call, start, end, extra, error,
outer_name, outer_layer]: the qualified function name, the index of the
enclosing span (-1 at the top), the index of the CLI call it belongs to,
perf_counter start and end, a small dict of counts or None, 1 if it raised,
and whether it is the outermost active span of its own name and of its
own layer (so inclusive times can be summed without double counting).
Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "dynmaps", "polycore", "factorz", "numfield", "raytrace")
# private functions wrapped in addition to each module's public ones
EXTRA = {"cli": ("_with_cache",)}


def _targets():
    for layer in LAYERS:
        mod = importlib.import_module(f"unicrit.{layer}")
        names = [
            name
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
            and not name.startswith("_")
        ]
        for name in sorted(names) + list(EXTRA.get(layer, ())):
            yield layer, name, getattr(mod, name)


def _factor_extra(args, kwargs, result):
    pieces = result.factors
    return {
        "in": args[0].degree,
        "out": len(pieces),
        "irr": int(len(pieces) == 1 and pieces[0][1] == 1),
    }


PROBES = {
    "factorz.factor": _factor_extra,
    "polycore.resultant": lambda a, k, r: {"out": r.degree},
    "raytrace.trace_param_ray": lambda a, k, r: {"points": len(r.points)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.call = -1
        self._stack = []
        self._active = defaultdict(int)

    def install(self):
        wrappers = {}
        for layer, name, fn in _targets():
            qual = f"{layer}.{name}"
            if name == "_with_cache":
                wrappers[id(fn)] = (fn, self._wrap_cache(qual, fn))
            else:
                wrappers[id(fn)] = (fn, self._wrap(qual, layer, fn, PROBES.get(qual)))
        for modname, mod in list(sys.modules.items()):
            if modname != "unicrit" and not modname.startswith("unicrit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, qual, layer, fn, probe=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [qual, stack[-1] if stack else -1, self.call, 0.0, 0.0, None, 0,
                   active[qual] == 0, active[layer] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[qual] += 1
            active[layer] += 1
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = 1
                raise
            finally:
                rec[4] = clock()
                active[qual] -= 1
                active[layer] -= 1
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_cache(self, qual, fn):
        """_with_cache(ns, key, build): a hit is a lookup that never builds."""
        inner = self._wrap(qual, "cli", fn)

        @functools.wraps(fn)
        def wrapper(ns, key, build):
            built = []

            def counted_build():
                built.append(1)
                return build()

            idx = len(self.spans)  # inner() appends this lookup's span here
            result = inner(ns, key, counted_build)
            if getattr(ns, "cache_dir", None) and not getattr(ns, "timings", False):
                self.spans[idx][5] = {"hit": int(not built)}
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
    + [
        ("factorz.factor_s", "s"), ("factorz.factor.calls", "count"),
        ("factorz.factor.max_s", "s"), ("factorz.in_degree_sum", "count"),
        ("factorz.in_degree_max", "count"), ("factorz.factors_out", "count"),
        ("factorz.irreducible_share", "ratio"),
        ("polycore.resultant_s", "s"), ("polycore.resultant.calls", "count"),
        ("polycore.resultant.max_s", "s"), ("polycore.resultant.out_degree_sum", "count"),
        ("polycore.gcd_s", "s"), ("polycore.gcd.calls", "count"),
        ("polycore.squarefree_s", "s"),
        ("dynmaps.parabolic_s", "s"), ("dynmaps.misiurewicz_s", "s"),
        ("dynmaps.transform_s", "s"),
        ("raytrace.trace_s", "s"), ("raytrace.points", "count"),
        ("raytrace.extrapolate_s", "s"), ("raytrace.roots_s", "s"),
        ("raytrace.land_max_s", "s"),
        ("numfield_s", "s"),
        ("verify.cells", "count"), ("verify.cell_max_s", "s"),
        ("cli.build_parser_s", "s"), ("cli.cache_hits", "count"),
        ("cli.cache_misses", "count"), ("cli.cache_hit_ratio", "ratio"),
        ("cli.cache_bytes", "bytes"),
        ("trace_overhead", "ratio"),
    ]
)

VERIFY_CELLS = frozenset(
    "verify." + name
    for name in (
        "verify_thm_1_4", "verify_thm_3_1", "verify_monic_structure",
        "verify_congruences", "verify_dynamical_units", "galois_experiment",
    )
)


def layer_metrics(spans, cache_bytes=0):
    """Per-layer metrics of one pass (all but trace_overhead)."""
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    m = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = m[f"{layer}.calls"] = m[f"{layer}.errors"] = 0
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        m[f"{layer}.self_s"] += dur[i] - child[i]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.errors"] += s[6]
        by_name[s[0]].append(i)

    def inclusive(name):
        return sum(dur[i] for i in by_name[name] if spans[i][7])

    def longest(names):
        return max((dur[i] for n in names for i in by_name[n]), default=0.0)

    factors = [spans[i][5] for i in by_name["factorz.factor"] if spans[i][5]]
    m["factorz.factor_s"] = inclusive("factorz.factor")
    m["factorz.factor.calls"] = len(by_name["factorz.factor"])
    m["factorz.factor.max_s"] = longest(["factorz.factor"])
    m["factorz.in_degree_sum"] = sum(f["in"] for f in factors)
    m["factorz.in_degree_max"] = max((f["in"] for f in factors), default=0)
    m["factorz.factors_out"] = sum(f["out"] for f in factors)
    m["factorz.irreducible_share"] = (
        sum(f["irr"] for f in factors) / len(factors) if factors else 0.0
    )
    m["polycore.resultant_s"] = inclusive("polycore.resultant")
    m["polycore.resultant.calls"] = len(by_name["polycore.resultant"])
    m["polycore.resultant.max_s"] = longest(["polycore.resultant"])
    m["polycore.resultant.out_degree_sum"] = sum(
        spans[i][5]["out"] for i in by_name["polycore.resultant"] if spans[i][5]
    )
    m["polycore.gcd_s"] = inclusive("polycore.gcd_fast")
    m["polycore.gcd.calls"] = len(by_name["polycore.gcd_fast"])
    m["polycore.squarefree_s"] = inclusive("polycore.squarefree_part")
    m["dynmaps.parabolic_s"] = inclusive("dynmaps.parabolic_param_poly")
    m["dynmaps.misiurewicz_s"] = inclusive("dynmaps.misiurewicz_poly")
    m["dynmaps.transform_s"] = inclusive("dynmaps.coord_transform")
    m["raytrace.trace_s"] = inclusive("raytrace.trace_param_ray")
    m["raytrace.points"] = sum(
        spans[i][5]["points"] for i in by_name["raytrace.trace_param_ray"] if spans[i][5]
    )
    m["raytrace.extrapolate_s"] = sum(
        dur[i] - child[i] for i in by_name["raytrace.land_and_match"]
    )
    m["raytrace.roots_s"] = inclusive("raytrace.complex_roots")
    m["raytrace.land_max_s"] = longest(["raytrace.land_and_match"])
    m["numfield_s"] = sum(
        dur[i] for i, s in enumerate(spans) if s[8] and s[0].startswith("numfield.")
    )
    m["verify.cells"] = sum(len(by_name[n]) for n in VERIFY_CELLS)
    m["verify.cell_max_s"] = longest(VERIFY_CELLS)
    m["cli.build_parser_s"] = inclusive("cli.build_parser")
    lookups = [spans[i][5]["hit"] for i in by_name["cli._with_cache"] if spans[i][5]]
    m["cli.cache_hits"] = sum(lookups)
    m["cli.cache_misses"] = len(lookups) - sum(lookups)
    m["cli.cache_hit_ratio"] = sum(lookups) / len(lookups) if lookups else 0.0
    m["cli.cache_bytes"] = cache_bytes
    return dict(m)


def median_metrics(per_pass):
    """Median of each metric over the traced passes of one run."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
