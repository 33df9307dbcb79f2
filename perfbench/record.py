"""Record the content digest and exit code of every call the workloads can
make, into expected.json.

    python3 perfbench/record.py

Run it from a checkout root, at the commit whose output the benchmark is
to hold later commits to.  Only a change to the benchmark itself (a new
workload or call) should re-record; a change to the program must match the
digests as they stand.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from run import Children, HERE
from workloads import all_calls, content_digest


def main():
    root = Path.cwd().resolve()
    calls = all_calls()
    scratch = root / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        kids = Children(root, Path(tmp), time.perf_counter() + 3600)
        result = kids.run(calls)
    scratch.rmdir()
    expected = {}
    for call, out in zip(calls, result["calls"]):
        if out["rc"] != 0:
            sys.exit(f"{call}: exit {out['rc']}; the pool admits only successful calls")
        doc = json.loads(out["out"])
        expected[call] = {"rc": out["rc"], "digest": content_digest(doc)}
        if "reports" in doc:
            incomplete = [r["cell"] for r in doc["reports"] if r["verdict"] == "incomplete"]
            print(f"{call}: {len(doc['reports'])} reports, incomplete {incomplete}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} calls")


if __name__ == "__main__":
    main()
