"""Run one rinehart check config in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds the source directory, the config (m, n, deg, samples,
seed, suites) and a mode:

- ``probe``: import rinehart and build the suite environment, then stop;
- ``run``: also run the suites;
- ``trace``: as ``run``, with the per-layer wrappers of ``tracer.py``.

In ``run``/``trace`` mode the line before the last on stdout is the exact
``--json`` report.  The last line is always one JSON object of timings:
``t_ready`` (after set-up) and ``t_end`` (after the report is written)
on the ``time.monotonic`` clock, which the parent shares, the timings of
``speed_loop`` taken around and during the run, the peak RSS, the check
counts and, when traced, the tracer's counters.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.2
SAMPLE_LOOPS = 500
PROBE_SAMPLES = 6
REF_LOOP_S = 0.0025  # speed_loop(SAMPLE_LOOPS) on the reference machine


def speed_loop(n: int) -> float:
    """Seconds taken by a fixed pure-Python loop of ``n`` steps (Fraction
    arithmetic and dict updates, as in rinehart's inner loops)."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(n):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 2)
    return time.perf_counter() - t0


def sample_speed(samples: list, times: int = 1):
    for _ in range(times):
        samples.append(speed_loop(SAMPLE_LOOPS))


@contextlib.contextmanager
def periodic_samples(samples: list):
    """Append a speed sample every SAMPLE_EVERY_S seconds (on SIGALRM), to
    follow the speed of the shared machine while the suites run."""
    signal.signal(signal.SIGALRM, lambda signum, frame: sample_speed(samples))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(spec: dict) -> int:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import rinehart
    from rinehart import suites

    if not os.path.abspath(rinehart.__file__).startswith(src + os.sep):
        print(f"rinehart was imported from {rinehart.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = suites.SuiteConfig(
        m=spec["m"], n=spec["n"], deg=spec["deg"], samples=spec["samples"],
        seed=spec["seed"], suites=tuple(spec["suites"]),
    )
    env = suites.build_env(cfg)
    stats = {"t_ready": time.monotonic()}
    samples: list[float] = []
    if spec["mode"] == "probe":
        sample_speed(samples, PROBE_SAMPLES)
    else:
        # run_suite builds its own Env; hand it the one timed as set-up.
        build_env = suites.build_env
        suites.build_env = lambda c: env if c is cfg else build_env(c)
        sample_speed(samples)
        # Periodic samples would land inside the traced spans.
        with periodic_samples(samples) if tracer is None else contextlib.nullcontext():
            code, report = suites.run_suite(cfg)
            sys.stdout.write(suites.report_json(report) + "\n")
            sys.stdout.flush()
        sample_speed(samples)
        stats["t_end"] = time.monotonic()
        stats["code"] = code
        stats["failures"] = report["failures"]
        stats["cases"] = sum(c["cases"] for c in report["checks"])
        if tracer is not None:
            stats["trace"] = tracer.export()
    stats["speed_samples"] = samples
    stats["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(stats) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
