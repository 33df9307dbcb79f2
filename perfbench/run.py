"""Benchmark of the unicrit CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding
`src/unicrit`).  The package is imported from that tree, never from an
installed copy.  Each pass of the workload runs in a fresh child
interpreter (perfbench/child.py), so the memo tables of dynmaps and the
prime table of polycore start empty, as they do for every `unicrit`
invocation.  Passes repeat, closed loop, until S seconds are spent (at
least MIN_PASSES); the run reports medians over its passes.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced passes (see spans.py),
after one untraced pass that gives the tracing overhead and the reference
stdout that every traced call must reproduce byte for byte.  The line
before it is a report: environment, load average, pass times, per-call
latency percentiles and every problem found.

Times are scaled to a fixed machine speed.  A shared machine's speed drifts
by a third or more within seconds, so each child times a fixed reference
loop from a timer signal while it works (child.py).  A call's time counts
as its measured time times REF_LOOP_S over the mean reference-loop time
around the call: the seconds it would take where the loop runs at
REF_LOOP_S.  A change to the program moves these times as it moves the
clock; a slow spell of the machine does not.  The unscaled times are in
the report.

Every call's document is checked: exit code, a digest of its mathematical
content recorded at the seed commit (expected.json), the workload's own
checks, and on cache-replay byte identity of each warm document with its
cold one.  A call that fails any check counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, content_digest  # noqa: E402

MIN_PASSES = 2
MAX_PASSES = 200
SETUP_PROBES = 8  # set-up-only children per run, on top of one per pass
REF_LOOP_S = 2.5e-4  # reference-loop time at the speed all times are scaled to
RUN_DEADLINE_S = 170.0  # a run that would pass this is killed and fails
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The run could not measure anything; no result line is printed."""


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _environment(root: Path, child_env: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
    src_lines = sum(
        p.read_bytes().count(b"\n") for p in sorted((root / "src" / "unicrit").rglob("*.py"))
    )
    return {
        **child_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_unicrit_lines": src_lines,
    }


class Children:
    """Starts child passes one at a time and waits for each to end."""

    def __init__(self, root: Path, tmp: Path, deadline: float):
        self.root, self.tmp, self.deadline = root, tmp, deadline
        self.count = 0
        env = dict(os.environ)
        env.pop("UNICRIT_CACHE", None)
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONHASHSEED"] = "0"
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def run(self, calls, *, trace=False):
        self.count += 1
        spec_path = self.tmp / f"spec-{self.count}.json"
        result_path = self.tmp / f"result-{self.count}.json"
        spans_path = self.tmp / f"spans-{self.count}.json" if trace else None
        spec = {
            "src": str(self.root / "src"),
            "calls": [call.split() for call in calls],
            "result": str(result_path),
            "spans": str(spans_path) if trace else None,
        }
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t_spawn)],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a pass ran past the run deadline") from None
        if rc != 0:
            raise BenchError(f"child pass exited {rc}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        spec_path.unlink()
        if trace:
            result["spans"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        return result


def _scaled(seconds, ref_s):
    """A time measured while the reference loop took ref_s, at REF_LOOP_S."""
    return seconds * REF_LOOP_S / ref_s


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*.json")) if path.is_dir() else 0


def _pass_calls(workload, calls, rng):
    """The calls of one pass, in seeded order, and how many of them are timed.

    A cache workload times its cold calls, then replays them warm, in
    another order, against the cache they filled.
    """
    order = list(calls)
    rng.shuffle(order)
    if not workload.cache:
        return order, len(order)
    warm = list(calls)
    rng.shuffle(warm)
    return order + warm, len(order)


def run(args) -> tuple[dict, dict]:
    root = Path.cwd().resolve()
    if not (root / "src" / "unicrit" / "cli.py").is_file():
        raise BenchError(f"no unicrit source tree under {root / 'src'}; run from a checkout root")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())
    rng = random.Random(args.seed)
    calls = workload.calls(rng)
    load_before = _loadavg()
    started = time.perf_counter()
    scratch_root = root / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))

    checked = []  # (call, rc, stdout, stdout it must equal or None)
    reference = {}  # call -> stdout of the untraced pass, in a traced run

    def one_pass(index, trace):
        cache_dir = tmp / f"cache-{index}"
        order, timed = _pass_calls(workload, calls, rng)
        argv = [f"{c} --cache-dir {cache_dir}" for c in order] if workload.cache else order
        res = kids.run(argv, trace=trace)
        outs = res["calls"]
        cold = {c: out["out"] for c, out in zip(order[:timed], outs)}
        for i, (call, out) in enumerate(zip(order, outs)):
            ref = cold[call] if i >= timed else reference.get(call)
            checked.append((call, out["rc"], out["out"], ref))
        for out in outs:
            out["scaled_s"] = _scaled(out["s"], out["ref_s"])
        res["wall_s"] = sum(out["scaled_s"] for out in outs[:timed])
        res["raw_wall_s"] = sum(out["s"] for out in outs[:timed])
        res["warm_s"] = sum(out["scaled_s"] for out in outs[timed:])
        res["timed"] = timed
        res["cache_bytes"] = _dir_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return res

    try:
        kids = Children(root, tmp, started + RUN_DEADLINE_S)
        probes = [kids.run([]) for _ in range(SETUP_PROBES)]
        baseline = None
        if args.trace:
            baseline = one_pass(-1, trace=False)
            reference = {call: out for call, _, out, _ in checked}
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MAX_PASSES:
            passes.append(one_pass(len(passes), trace=bool(args.trace)))
            spent = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and spent + spent / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    load_after = _loadavg()

    problems, distances = [], []
    failed = 0
    for call, rc, out, ref in checked:
        bad, doc = _check_call(workload, expected, call, rc, out, ref)
        if bad:
            failed += 1
            problems.extend(f"{call}: {p}" for p in bad)
        if doc and "match_distance" in doc:
            distances.append(float(doc["match_distance"]))

    walls = [p["wall_s"] for p in passes]
    setups = [_scaled(p["setup_s"], p["setup_ref_s"]) for p in probes + passes]
    timed = [out["scaled_s"] for p in passes for out in p["calls"][: p["timed"]]]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "pass_wall_s": walls,
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [p["setup_s"] for p in probes + passes],
        "ref_loop_s": {
            "scaled_to": REF_LOOP_S,
            "median": statistics.median(out["ref_s"] for p in passes for out in p["calls"]),
        },
        "call_latency_ms": _percentiles(timed),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "environment": _environment(root, probes[0]["environment"]),
        "problems": problems[:20],
    }
    if workload.cache:
        report["warm_s"] = statistics.median(p["warm_s"] for p in passes)
        report["warm_call_latency_ms"] = _percentiles(
            [out["scaled_s"] for p in passes for out in p["calls"][p["timed"]:]]
        )
    if distances:
        report["match_distance_max"] = max(distances)
    if args.trace:
        per_pass = [spans.layer_metrics(p["spans"], p["cache_bytes"]) for p in passes]
        layer = spans.median_metrics(per_pass)
        layer["trace_overhead"] = statistics.median(walls) / baseline["wall_s"]
        report["trace_overhead"] = layer["trace_overhead"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
                "unit": "MiB",
            },
        }
    return report, {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }


def _percentiles(values):
    if len(values) < 2:
        return {"n": len(values)}
    q = statistics.quantiles(values, n=10)
    return {"n": len(values), "p50": statistics.median(values) * 1e3, "p90": q[8] * 1e3}


def _check_call(workload, expected, call, rc, out, ref):
    """(problems, parsed document or None) for one call's output."""
    want = expected.get(call)
    if want is None:
        return ["no recorded digest for this call"], None
    if rc != want["rc"]:
        return [f"exit {rc!r}, expected {want['rc']}"], None
    try:
        doc = json.loads(out)
    except ValueError:
        return ["stdout is not one JSON document"], None
    problems = []
    if content_digest(doc) != want["digest"]:
        problems.append("mathematical content differs from the recorded digest")
    if ref is not None and out != ref:
        problems.append("stdout differs from the cold or untraced reference")
    check = workload.checks.get(call)
    if check is not None:
        problems.extend(check(doc))
    return problems, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
