"""A/B benchmark of two source checkouts, in alternating pairs.

    python3 tools/perfpair.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--out BENCH_<pr>.json]

Pair i runs `perfbench/run.py --workload W --seed i --seconds S --trace 0`
once in each checkout, where S is the `run_seconds` of the parent's
BENCHMARK.json, each from the checkout's own root, with the parent
first in odd pairs and the change first in even ones, so a drift of the
machine's speed does not favour one side.  After the pairs, one run with
`--trace 1` per side gives the per-layer metrics of its spans.  A run that
is not `correct` or that reports failed calls stops the tool with an error.

Both sides run from bytecode compiled from their own sources: every run
reads and writes no `__pycache__` in either checkout, only a fresh
PYTHONPYCACHEPREFIX that one import per side fills before the first pair
(a stale cache in a checkout would otherwise skew `setup_s`), and the
timed runs write nothing there either (PYTHONDONTWRITEBYTECODE).

For each end-to-end metric of the parent's BENCHMARK.json it reports every
run's value, both sides' medians and quartiles, and the pairs the change
won (ties count for neither side), and prints the matching CHANGES.md
table row, then each per-layer metric of the traced runs.  With --out the
result is stored under the workload's name in that JSON file, next to the
workloads already there, and the traced metrics of both sides under that
workload's `trace` key.  It also prints, and
with --out stores as `src_lines`, the lines of `src/unicrit/*.py` in each
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# what a perfbench child imports: warming these leaves no module of a timed
# run to compile from source
WARM_IMPORTS = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; "
    "import unicrit.cli, run, contextlib, io, resource, signal"
)


def warm(root: Path, env: dict) -> None:
    subprocess.run([sys.executable, "-c", WARM_IMPORTS], cwd=root, check=True,
                   env={k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"})


def run_once(root: Path, workload: str, seed: int, seconds: float, env: dict,
             trace: int = 0) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"perfpair: {root}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfpair: {root}: seed {seed}: {result['failed']} of "
                 f"{result['attempted']} calls failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def src_lines(root: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (root / "src" / "unicrit").glob("*.py"))


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(metrics: list[dict], runs: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": summary(parent),
            "change": summary(change),
            "change_won": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        }
    return out


def table_row(workload: str, pairs: int, stats: dict) -> str:
    def side(name, who, iqr=False):
        s = stats[name][who]
        text = f"{s['median']:.3f}"
        return f"{text} ({s['q3'] - s['q1']:.3f})" if iqr else text

    cells = [f"`{workload}`", str(pairs)]
    for i, name in enumerate(stats):
        cells.append(f"{side(name, 'parent', i == 0)} → {side(name, 'change', i == 0)}")
        if i == 0:
            cells.append(f"{stats[name]['change_won']}/{pairs}")
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="perfpair-pycache-") as pycache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": pycache, "PYTHONDONTWRITEBYTECODE": "1"}
        for side in ("parent", "change"):
            warm(getattr(args, side), env)
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(getattr(args, side), args.workload, seed, seconds, env)
            runs.append(run)
            print(f"pair {seed}: " + json.dumps(run), file=sys.stderr, flush=True)
        traced = {side: run_once(getattr(args, side), args.workload, 1, seconds, env, trace=1)
                  for side in ("parent", "change")}
    stats = compare(metrics, runs)
    lines = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {"seconds": seconds, "runs": runs, "metrics": stats,
                              "trace": traced}
        doc["src_lines"] = lines
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(table_row(args.workload, len(runs), stats))
    for name in sorted(traced["parent"]):
        print(f"trace {name}: {traced['parent'][name]} → {traced['change'].get(name)}")
    print("src_lines: " + json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
