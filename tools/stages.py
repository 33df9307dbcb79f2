"""Time the factoring stages of unicrit calls in two source checkouts.

    python3 tools/stages.py --parent DIR --change DIR [--rounds N] [CALL ...]

Each CALL is one `unicrit` command line in quotes, such as
"verify thm31 --n 4 --t 1 --h 4 --tau 4"; with none, the default
`verify sweep thm31`.  A round runs every call once on each side, each
side in a fresh child interpreter started in its checkout, through the
`unicrit.cli.main` of that checkout's `src`, with no result cache
configured.  The parent goes first in odd rounds and the change first in
even ones, so a drift of the machine's speed does not favour one side.

The child wraps each `factorz` function named in STAGES, wherever a
`unicrit` module holds it, before the first call.  A stage's time is its
self time: the time spent in the function less the time spent in the
other wrapped stages it calls, so the stages add up to the time spent
factoring.  A stage whose function the checkout's `factorz` lacks is
reported as absent.  For each side the tool prints every stage's calls
and the median over the rounds of its self seconds, then the median wall
time of the calls.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (stage, the factorz function it times); `factor` keeps what no other
# stage takes: the squarefree part, the multiplicities, the root scaling of
# a non-monic input and the re-multiplication check
STAGES = (
    ("factor: squarefree part, multiplicities, scaling, self-check", "factor"),
    ("squarefree monic", "_factor_squarefree_monic"),
    ("Newton polygon", "_newton_polygon_irreducible"),
    ("prime choice", "_candidate_primes"),
    ("Frobenius", "_frobenius"),
    ("echelon", "_berlekamp_echelon"),
    ("split", "_berlekamp_split"),
    ("Hensel lift", "_hensel_lift"),
    ("recombination", "_recombine"),
)

# reads [stages, calls] as JSON on stdin and writes {"wall": s, "stages":
# {function: [calls, self s] or null when factorz lacks it}}
CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, 'src')
import unicrit.cli
from unicrit import factorz

names, calls = json.load(sys.stdin)
stack, seen = [], {}


def wrap(name, fn):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            entry = seen[name]
            entry[0] += 1
            entry[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
    return timed


for name in names:
    fn = getattr(factorz, name, None)
    if fn is None:
        continue
    seen[name] = [0, 0.0]
    timed = wrap(name, fn)
    for module in [m for k, m in sys.modules.items() if k.startswith('unicrit')]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, timed)

t0 = time.perf_counter()
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        unicrit.cli.main(argv)
wall = time.perf_counter() - t0
json.dump({"wall": wall, "stages": {n: seen.get(n) for n in names}}, sys.stdout)
"""


def run_side(root: Path, calls: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UNICRIT_CACHE"}
    payload = [[fn for _, fn in STAGES], [call.split() for call in calls]]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=root, env=env, capture_output=True,
        text=True, input=json.dumps(payload),
    )
    if proc.returncode != 0:
        sys.exit(f"stages: {root}: child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def column(runs: list[dict], fn: str) -> str:
    entries = [run["stages"][fn] for run in runs]
    if entries[0] is None:
        return f"{'absent':>16}"
    seconds = statistics.median(e[1] for e in entries)
    return f"{entries[0][0]:>7} {seconds:8.3f}"


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
    width = max(len(stage) for stage, _ in STAGES)
    print(f"{'stage':<{width}}  {'parent calls, s':>16}  {'change calls, s':>16}")
    for stage, fn in STAGES:
        print(f"{stage:<{width}}  {column(runs['parent'], fn)}  {column(runs['change'], fn)}")
    walls = {side: statistics.median(run["wall"] for run in runs[side]) for side in runs}
    print(f"{'wall of the calls':<{width}}  {walls['parent']:16.3f}  {walls['change']:16.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
