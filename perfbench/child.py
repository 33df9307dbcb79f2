"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON T_SPAWN

T_SPAWN is the parent's time.perf_counter() just before it started this
process.  On Linux perf_counter reads CLOCK_MONOTONIC, which is shared by
all processes, so the difference to the same clock after `unicrit.cli` is
imported is the set-up time: interpreter start, numpy, mpmath and the
package itself.

The spec names the calls (argument lists for unicrit.cli.main), whether to
trace, and where to write the result.  Each call's stdout is captured in
memory; nothing is checked here, so checking costs no measured time.

The speed of a shared machine drifts by a third or more within seconds,
for the process's CPU time as much as for its wall time.  So a SpeedProbe
times a fixed pure-Python reference loop every PROBE_PERIOD_S seconds from
a timer signal, in this same thread.  Each call reports its own time with
the probe's time taken out, and the trimmed mean reference-loop time
around it; the parent scales the one by the other (see run.py).
"""

import sys
import time

REF_LOOP_N = 3000  # iterations of the reference loop, ~0.25 ms
PROBE_PERIOD_S = 0.05
MIN_PROBES = 8  # reference samples behind each figure, taken from before a short call
TRIM = 0.2  # share of the slowest reference samples left out of each mean

T_SPAWN = float(sys.argv[2])

import unicrit.cli  # noqa: E402  (set-up ends here)

T_READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402


def _ref_loop():
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times _ref_loop() on every SIGALRM of a periodic real-time timer."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # total probe time, to take out of call times

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        _ref_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        for _ in range(MIN_PROBES):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mean_since(self, k):
        """Mean of the samples from index k on, widened back to MIN_PROBES.

        The slowest TRIM of them are left out: a sample that the host
        preempted for a few milliseconds would otherwise outweigh dozens
        of others.
        """
        window = sorted(self.samples[min(k, len(self.samples) - MIN_PROBES):])
        window = window[: max(1, round(len(window) * (1 - TRIM)))]
        return sum(window) / len(window)


def _environment():
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(unicrit.cli.__file__).resolve().parents:
        sys.exit(f"unicrit imported from {unicrit.cli.__file__}, not from {src}")
    tracer = None
    if spec.get("spans"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    setup_ref_s = probe.mean_since(0)
    calls = []
    for i, argv in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.call = i
        buf = io.StringIO()
        k, spent = len(probe.samples), probe.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = unicrit.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed pass
            rc = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start - (probe.spent - spent)
        calls.append({"rc": rc, "s": took, "ref_s": probe.mean_since(k), "out": buf.getvalue()})
    probe.stop()
    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {
        "setup_s": T_READY - T_SPAWN,
        "setup_ref_s": setup_ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "environment": _environment(),
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
