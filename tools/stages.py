"""Time the exact-elimination, factoring and ray-tracing stages of unicrit
calls in two checkouts.

    python3 tools/stages.py --parent DIR --change DIR [--rounds N] [CALL ...]

Each CALL is one `unicrit` command line in quotes, such as
"verify thm31 --n 4 --t 1 --h 4 --tau 4", "poly parabolic --n 3 --h 4
--m 1" or "ray land --n 2 --angle 1/3 --candidates parabolic:1,2"; with
none, the default `verify sweep thm31`.
A round runs every call once on each side, each side in a fresh child
interpreter started in its checkout, through the `unicrit.cli.main` of
that checkout's `src`, with no result cache configured.  The parent goes
first in odd rounds and the change first in even ones, so a drift of the
machine's speed does not favour one side.

The child wraps each function named in STAGES, wherever a `unicrit`
module holds it, before the first call.  A stage's time is its self time:
the time spent in the function less the time spent in the other wrapped
stages it calls, so the stages of one module add up to the time spent in
its work.  A stage whose function the checkout's module lacks is reported
as absent.  For each side the tool prints every stage's calls and the
median over the rounds of its self seconds, then the median wall time of
the calls.  A stage called from more than one place (another stage, or
none) gets one more line per place with the calls made from it: the
orbit kernel's lines split its cheap calls from the precision ledger from
its full-bit calls in the Newton solve, and the CRT step's split the
resultant's images from the modular gcd's inside the squarefree part.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (stage, module, the function it times).  polycore: the modular
# resultant's loop keeps its prime choice, batching and symmetric lift;
# each batch's images are timed by evaluation (`_resultant_images_mod_p`
# keeps the Horner loop over the points), vector PRS and interpolation,
# and each prime's image by the h-th root and the CRT step.  The
# squarefree part keeps its modular gcd.  factorz: `factor` keeps what no
# other stage takes: the multiplicities, the root scaling of a non-monic
# input and the re-multiplication check.  Lifting is
# timed by its two kernels, so it reads the same whether a checkout lifts
# again from p or resumes one lift; `_recombine` keeps the rest of the
# lift, its products mod p and its check against G.  raytrace: the Newton
# solve keeps its full-bit loop, and the continuation and matching that
# call it are left out
STAGES = (
    ("parabolic bounds", "dynmaps", "_parabolic_bounds"),
    ("modular resultant: primes, lift", "polycore", "_resultant_points_modular"),
    ("resultant evaluation", "polycore", "_resultant_images_mod_p"),
    ("resultant vector PRS", "polycore", "_vector_resultants_mod_p"),
    ("resultant interpolation", "polycore", "_newton_interpolate_mod_p"),
    ("h-th root of an image", "polycore", "_gf_root"),
    ("CRT step", "polycore", "_crt"),
    ("squarefree part", "polycore", "squarefree_part"),
    ("factor: multiplicities, scaling, self-check", "factorz", "factor"),
    ("squarefree monic", "factorz", "_factor_squarefree_monic"),
    ("Newton polygon", "factorz", "_newton_polygon_irreducible"),
    ("prime choice", "factorz", "_candidate_primes"),
    ("Frobenius", "factorz", "_frobenius"),
    ("echelon", "factorz", "_berlekamp_echelon"),
    ("split", "factorz", "_berlekamp_split"),
    ("Bezout pairs", "factorz", "_bezout"),
    ("Hensel steps", "factorz", "_hensel_step"),
    ("recombination", "factorz", "_recombine"),
    ("Newton solve: full-bit loop", "raytrace", "_solve_ray_point"),
    ("precision ledger: cheap iterations", "raytrace", "_ledger"),
    ("orbit kernel", "raytrace", "_orbit"),
    ("ray target", "raytrace", "_ray_target"),
    ("landing extrapolation", "raytrace", "_neville_zero"),
    ("candidate roots", "raytrace", "complex_roots"),
)

# reads [stages, calls] as JSON on stdin, each stage a [module, function]
# pair, and writes {"wall": s, "stages": {"module.function": [calls, self
# s, {caller: calls}] or null when the module lacks it}}, the caller being
# the innermost wrapped stage it was called from, or "" for none
CHILD = """
import contextlib, importlib, io, json, sys, time
sys.path.insert(0, 'src')
import unicrit.cli

stages, calls = json.load(sys.stdin)
stack, seen = [], {}


def wrap(key, fn):
    def timed(*args, **kwargs):
        caller = stack[-1][0] if stack else ''
        t0 = time.perf_counter()
        stack.append([key, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            entry = seen[key]
            entry[0] += 1
            entry[1] += elapsed - stack.pop()[1]
            entry[2][caller] = entry[2].get(caller, 0) + 1
            if stack:
                stack[-1][1] += elapsed
    return timed


for module_name, name in stages:
    fn = getattr(importlib.import_module('unicrit.' + module_name), name, None)
    if fn is None:
        continue
    key = module_name + '.' + name
    seen[key] = [0, 0.0, {}]
    timed = wrap(key, fn)
    for module in [m for k, m in sys.modules.items() if k.startswith('unicrit')]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, timed)

t0 = time.perf_counter()
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        unicrit.cli.main(argv)
wall = time.perf_counter() - t0
json.dump({"wall": wall, "stages": {m + '.' + n: seen.get(m + '.' + n) for m, n in stages}},
          sys.stdout)
"""


def run_side(root: Path, calls: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UNICRIT_CACHE"}
    payload = [[[module, fn] for _, module, fn in STAGES], [call.split() for call in calls]]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=root, env=env, capture_output=True,
        text=True, input=json.dumps(payload),
    )
    if proc.returncode != 0:
        sys.exit(f"stages: {root}: child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def column(runs: list[dict], key: str) -> str:
    entries = [run["stages"][key] for run in runs]
    if entries[0] is None:
        return f"{'absent':>16}"
    seconds = statistics.median(e[1] for e in entries)
    return f"{entries[0][0]:>7} {seconds:8.3f}"


def callers(runs: dict, key: str) -> list[str]:
    """The places a stage was called from on either side, when more than one."""
    places = {c for side in runs.values() for run in side
              if run["stages"][key] for c in run["stages"][key][2]}
    return sorted(places) if len(places) > 1 else []


def caller_column(runs: list[dict], key: str, caller: str) -> str:
    entry = runs[0]["stages"][key]
    return f"{'absent':>16}" if entry is None else f"{entry[2].get(caller, 0):>7} {'':8}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("calls", nargs="*", metavar="CALL")
    args = ap.parse_args(argv)
    calls = args.calls or ["verify sweep thm31"]
    runs = {"parent": [], "change": []}
    for i in range(1, args.rounds + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            runs[side].append(run_side(getattr(args, side), calls))
    width = max(len(stage) for stage, _, _ in STAGES) + len("  from ")
    names = {f"{module}.{fn}": stage for stage, module, fn in STAGES}
    names[""] = "no stage"
    print(f"{'stage':<{width}}  {'parent calls, s':>16}  {'change calls, s':>16}")
    for stage, module, fn in STAGES:
        key = f"{module}.{fn}"
        print(f"{stage:<{width}}  {column(runs['parent'], key)}  {column(runs['change'], key)}")
        for caller in callers(runs, key):
            label = f"  from {names[caller]}"
            print(f"{label:<{width}}  {caller_column(runs['parent'], key, caller)}"
                  f"  {caller_column(runs['change'], key, caller)}")
    walls = {side: statistics.median(run["wall"] for run in runs[side]) for side in runs}
    print(f"{'wall of the calls':<{width}}  {walls['parent']:16.3f}  {walls['change']:16.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
