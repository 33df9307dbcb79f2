"""Check that two source checkouts print the same bytes for the same calls.

    python3 tools/samebytes.py --parent DIR --change DIR [CALL ...]

The calls are every call of the parent's `perfbench/workloads.all_calls()`,
then each CALL given: one `unicrit` command line in quotes, such as
"verify units --n 2 --c 1 --h 5".  Each side runs all of them, in order,
in one child interpreter started in its checkout, through the
`unicrit.cli.main` of that checkout's `src`, with no result cache
configured.  Every call whose exit code or stdout differs between the two
sides is printed; the tool exits 1 if there is one and 0 otherwise.

Each call runs under a SIGALRM of CALL_SECONDS.  A call still running when
it fires is reported as `timeout` on that side, and the next call starts;
the tool exits 1 if any call timed out on either side, even on both.  The
alarm is only seen between Python bytecodes, so a single long big-integer
product can overrun it by as long as that product takes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

# seconds a single call may run on one side before it counts as a timeout
CALL_SECONDS = 300

# reads a JSON list of argument lists on stdin and writes [exit code, stdout]
# per call; a call that raises records the exception in place of its code,
# and one the alarm stops records "timeout"
CHILD = """
import contextlib, io, json, signal, sys
sys.path.insert(0, 'src')
import unicrit.cli

class Timeout(BaseException):
    pass

def on_alarm(signum, frame):
    raise Timeout

signal.signal(signal.SIGALRM, on_alarm)
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    signal.alarm(%d)
    try:
        with contextlib.redirect_stdout(buf):
            rc = unicrit.cli.main(argv)
    except Timeout:
        rc = 'timeout'
    except Exception as exc:
        rc = f'{type(exc).__name__}: {exc}'
    finally:
        signal.alarm(0)
    out.append([rc, buf.getvalue()])
json.dump(out, sys.stdout)
""" % CALL_SECONDS


def parent_calls(parent: Path) -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "parent_workloads", parent / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.all_calls()


def run_side(root: Path, calls: list[str]) -> list[list]:
    env = {k: v for k, v in os.environ.items() if k != "UNICRIT_CACHE"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=root, env=env, capture_output=True,
        text=True, input=json.dumps([call.split() for call in calls]),
    )
    if proc.returncode != 0:
        sys.exit(f"samebytes: {root}: child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("calls", nargs="*", metavar="CALL")
    args = ap.parse_args(argv)
    calls = list(dict.fromkeys(parent_calls(args.parent) + args.calls))
    parent = run_side(args.parent, calls)
    change = run_side(args.change, calls)
    differ = timeouts = 0
    for call, (rc_p, out_p), (rc_c, out_c) in zip(calls, parent, change):
        if "timeout" in (rc_p, rc_c):
            timeouts += 1
            print(f"timeout: {call}: exit {rc_p} -> {rc_c}")
        elif rc_p != rc_c or out_p != out_c:
            differ += 1
            print(f"differs: {call}: exit {rc_p} -> {rc_c}, "
                  f"stdout {len(out_p)} -> {len(out_c)} chars")
    print(f"samebytes: {len(calls)} calls, {differ} differ, {timeouts} timed out")
    return 1 if differ or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
