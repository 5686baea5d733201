"""Benchmark of rinehart's seeded ``check`` workloads (stdlib only).

    python3 perfbench/run.py [--workload {algebra,kernel,grid}] [--seed N]
                             [--seconds S] [--trace 0|1] [--tiny]
    python3 perfbench/run.py --frontier
    python3 perfbench/run.py --record 0-12

Run from the root of a source checkout; ``src/`` is imported as is.
Without ``--workload`` every workload runs, one after another.

A workload is a fixed list of check configs; ``--seed`` is the check
seed of every config.  Each config runs in a fresh child interpreter, one
at a time, and emits the exact ``rinehart check ... --json`` report.  One
*pass* runs every config once.  A run first times set-up-only children
(``SETUP_PROBES`` in all, at least three per config), then repeats passes
while the next one still fits in ``--seconds`` (at least two, so that
every report is seen twice).  A config run fails on a nonzero exit,
``failures > 0``, a report that differs from ``reference.json`` (where
that seed is recorded) or from the same config's earlier report in this
run.  Children run with ``PYTHONHASHSEED=0`` so that traced counters
repeat exactly.

``--trace 0`` prints the end-to-end metrics (medians over passes):

- ``wall_s``: child launch to the end of its report, summed over configs;
- ``setup_s``: interpreter start + ``import rinehart`` +
  ``suites.build_env``, the per-config median summed over configs;
- ``cases_per_s``: check cases / (``wall_s`` - set-up of that pass);
- ``peak_rss_mb``: the largest child peak RSS of a pass.

Times are scaled to the speed of the reference machine (2 cores, Python
3.11.7).  The machine is shared, and its speed drifts by tens of percent
within a minute.  Each child therefore times a fixed pure-Python loop
(``child.speed_loop``) before, after and every 0.2 s during its suites;
its times are multiplied by ``REF_LOOP_S`` / (mean loop time), with the
time spent sampling taken out.  The unscaled pass times are printed as
``raw_wall_s``.  Per-layer seconds are not scaled.

``--trace 1`` runs one untraced pass, then traced passes (see
``tracer.py``), and prints the per-layer metrics listed in
``BENCHMARK.json``: counters, which must repeat exactly between passes,
and seconds, as medians; ``trace.overhead_s`` is the traced minus the
untraced pass time.  A traced run also fails a config whose Scalar
arithmetic produced a ``float`` or ``complex`` component, or whose report
differs from the untraced one.

The line before the result holds the run's environment (Python version,
CPU count, platform, git commit) and the unscaled pass times.  The last
line is the result, ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 whenever a result is printed.

``--frontier`` (opt-in, never gated) times ``check all --deg 2
--samples 20`` at (2,3) and (3,3), capped at 60 s each.  ``--record``
re-records ``reference.json`` for the given seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from child import REF_LOOP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 12  # set-up-only children per run, at least 3 per config
FRONTIER = ((2, 3), (3, 3))
FRONTIER_CAP_S = 60


@dataclass(frozen=True)
class Config:
    m: int
    n: int
    deg: int
    samples: int
    suites: tuple

    @property
    def label(self) -> str:
        return f"m{self.m}n{self.n}-deg{self.deg}-samples{self.samples}"


ALGEBRA = ("koszul", "jacobi", "filtration", "theta", "psi", "centralizer",
           "qp", "equalities", "loop", "roundtrip")
KERNEL = ("phi", "annihilate", "iso")
WORKLOADS = {
    "algebra": (Config(2, 2, 3, 100, ALGEBRA),),
    "kernel": (Config(2, 3, 2, 20, KERNEL),),
    "grid": tuple(Config(m, n, 3, 30, ("all",)) for m in (1, 2) for n in (1, 2)),
}
TINY = {  # same suites at the smallest size, for the smoke test
    "algebra": (Config(1, 1, 1, 2, ALGEBRA),),
    "kernel": (Config(1, 1, 1, 2, KERNEL),),
    "grid": (Config(1, 1, 1, 2, ("all",)),),
}


class ChildError(Exception):
    pass


def run_child(cfg: Config, seed: int, mode: str, timeout: float | None) -> dict:
    """Run one config in a fresh interpreter; ``mode`` as in child.py."""
    spec = {"src": SRC, "m": cfg.m, "n": cfg.n, "deg": cfg.deg,
            "samples": cfg.samples, "seed": seed, "suites": list(cfg.suites),
            "mode": mode}
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < (1 if mode == "probe" else 2):
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildError(f"{cfg.label} seed {seed}: exit {proc.returncode}: "
                         + " | ".join(tail))
    stats = json.loads(lines[-1])
    samples = stats["speed_samples"]
    out = {
        "setup": stats["t_ready"] - t_launch,
        "rss_mb": stats["rss_kb"] / 1024,
        "sampling": sum(samples),
        "speed": REF_LOOP_S / statistics.mean(samples),
    }
    if mode != "probe":
        report = lines[-2] + "\n"
        out.update(
            wall=stats["t_end"] - t_launch - out["sampling"],
            cases=stats["cases"],
            failures=stats["failures"],
            digest=hashlib.sha256(report.encode()).hexdigest(),
            trace=stats.get("trace"),
        )
    return out


class Bench:
    """One benchmark run: its clock, operations and failures."""

    def __init__(self, workload: str, seed: int, configs, reference: dict):
        self.seed = seed
        self.configs = configs
        self.reference = reference.get(workload, {}).get(str(seed), {})
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] = {}
        self.raw_walls: list[float] = []  # unscaled wall_s of each pass

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fail(self, why: str):
        self.failed += 1
        self.problems.append(why)

    def run(self, cfg: Config, mode: str) -> dict:
        """One operation: run ``cfg`` and check its report."""
        self.attempted += 1
        r = run_child(cfg, self.seed, mode, DEADLINE_S - self.elapsed())
        why = None
        if r["trace"] and r["trace"]["counts"]["scalars.float_results"]:
            why = "a Scalar result has a float or complex component"
        elif r["failures"]:
            why = f"{r['failures']} checks failed"
        elif cfg.label in self.reference and r["digest"] != self.reference[cfg.label]:
            why = "report differs from the recorded reference"
        elif r["digest"] != self._digests.setdefault(cfg.label, r["digest"]):
            why = "report differs from the earlier run of this config"
        if why:
            self.fail(f"{cfg.label}: {why}")
        return r

    def passes(self, seconds: int, mode: str, minimum: int) -> list[list[dict]]:
        """Repeat passes over the configs while the next one fits."""
        out = []
        while True:
            t0 = time.monotonic()
            out.append([self.run(cfg, mode) for cfg in self.configs])
            took = time.monotonic() - t0
            budget = min(seconds, DEADLINE_S - 10)
            if len(out) >= minimum and self.elapsed() + took > budget:
                return out

    def end_to_end(self, seconds: int) -> dict:
        run_child(self.configs[0], self.seed, "probe", 60)  # warm the bytecode cache
        setups = {cfg.label: [] for cfg in self.configs}
        for _ in range(max(3, SETUP_PROBES // len(self.configs))):
            for cfg in self.configs:
                r = run_child(cfg, self.seed, "probe", 60)
                setups[cfg.label].append(r["setup"] * r["speed"])
        walls, rates, rss = [], [], []
        for runs in self.passes(seconds, "run", 2):
            wall = sum(r["wall"] * r["speed"] for r in runs)
            busy = wall - sum(r["setup"] * r["speed"] for r in runs)
            walls.append(wall)
            rates.append(sum(r["cases"] for r in runs) / busy)
            rss.append(max(r["rss_mb"] for r in runs))
            for cfg, r in zip(self.configs, runs):
                setups[cfg.label].append(r["setup"] * r["speed"])
            self.raw_walls.append(sum(r["wall"] for r in runs))
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
            "cases_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def per_layer(self, seconds: int) -> dict:
        plain = sum(r["wall"] * r["speed"]
                    for r in (self.run(cfg, "run") for cfg in self.configs))
        passes = self.passes(seconds, "trace", 1)
        layers = [layer_metrics([r["trace"] for r in runs]) for runs in passes]
        out = {}
        for name, value in layers[0].items():
            unit = layer_unit(name)
            if unit == "s":
                value = statistics.median(m[name] for m in layers)
            elif any(m[name] != value for m in layers[1:]):
                self.fail(f"counter {name} differs between traced passes")
            out[name] = (value, unit)
        traced = statistics.median(
            sum(r["wall"] * r["speed"] for r in runs) for runs in passes)
        out["trace.overhead_s"] = (traced - plain, "s")
        return out


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one pass, summed (peaks: max) over its configs."""
    spans: dict[str, list] = {}
    out: dict = {}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        for name, v in t["counts"].items():
            out[name] = out.get(name, 0) + v
        for name, v in t["peaks"].items():
            out[name] = max(out.get(name, 0), v)
    for name, (calls, incl, self_s) in spans.items():
        if name.startswith("suites."):
            out[f"{name}.s"] = incl
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s

    def ratio(num, den):
        return num / den if den else 0.0

    out["scalars.nonint_share"] = ratio(out["scalars.nonint"], out["scalars.ops"])
    out["linalg.rref.density"] = ratio(out["linalg.rref.nonzero"], out["linalg.rref.cells"])
    out["tensorqp.omega_extract.useful_ratio"] = ratio(
        out["tensorqp.omega_extract.distinct"], out["tensorqp.omega_extract.calls"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio", ".density")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def measure(workload: str, args):
    doc = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = {} if args.tiny else load_json(REFERENCE)
    configs = (TINY if args.tiny else WORKLOADS)[workload]
    bench = Bench(workload, args.seed, configs, reference)
    try:
        if args.trace:
            computed, wanted = bench.per_layer(args.seconds), doc["per_layer"]
        else:
            computed, wanted = bench.end_to_end(args.seconds), doc["end_to_end"]
        metrics = {}
        for entry in wanted:
            value, unit = computed[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": unit}
    except (ChildError, subprocess.TimeoutExpired) as exc:
        bench.fail(str(exc))
        metrics = {}
    for why in bench.problems:
        print(f"FAIL {why}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": args.seed,
                      "trace": args.trace, "configs": [c.label for c in configs],
                      "raw_wall_s": bench.raw_walls,
                      "env": environment()}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))


def frontier() -> int:
    out = {}
    for m, n in FRONTIER:
        try:
            r = run_child(Config(m, n, 2, 20, ("all",)), 0, "run", FRONTIER_CAP_S)
        except subprocess.TimeoutExpired:
            out[f"{m},{n}"] = "timeout"
        else:
            out[f"{m},{n}"] = "fail" if r["failures"] else r["wall"]
    print(json.dumps({"frontier": out, "env": environment()}))
    return 0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(seeds: list[int]) -> int:
    reference = load_json(REFERENCE) if os.path.isfile(REFERENCE) else {}
    for workload, configs in WORKLOADS.items():
        for seed in seeds:
            for cfg in configs:
                r = run_child(cfg, seed, "run", None)
                if r["failures"]:
                    print(f"{workload} {cfg.label} seed {seed}: checks failed",
                          file=sys.stderr)
                    return 1
                reference.setdefault(workload, {}).setdefault(str(seed), {})[
                    cfg.label] = r["digest"]
                print(workload, seed, cfg.label, r["digest"], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="default: every workload, one after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--frontier", action="store_true")
    p.add_argument("--record", metavar="SEEDS", help="e.g. 0-12 or 1,7")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rinehart", "__init__.py")):
        print(f"error: no rinehart sources under {SRC}", file=sys.stderr)
        return 2
    if args.frontier:
        return frontier()
    if args.record:
        return record(parse_seeds(args.record))
    for workload in [args.workload] if args.workload else WORKLOADS:
        measure(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
