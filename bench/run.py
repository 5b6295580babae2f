"""Benchmark of heisenfock: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
operations once under the tracer (``tracer.py``) and once without, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it, ``{"report": ...}``, holds the run facts
(machine, seed, sample counts, tail percentile, output digest, failures);
it is also written, with the trace spans of a traced run, under
``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
MIN_PASSES = 2
REF_S = 0.5e-3  # the reference loop's time at the speed times are scaled to
REF_EVERY_S = 0.01  # least time between two reference samples in a pass
REF_WINDOW = 2  # samples on each side of an operation that set its speed
SETUP_REFS = 5  # reference samples on each side of a set-up probe
LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10
NAN = float("nan")

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("build_p50_ms", "ms"),
              ("replay_p50_ms", "ms"))


# -- statistics ---------------------------------------------------------------

def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the nearest-rank p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail(samples: List[float], cap: float) -> dict:
    """The highest ladder percentile up to ``cap`` with at least MIN_BEYOND
    samples beyond it, its value and the count beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in LADDER:
        if p > cap:
            break
        rank = nearest_rank(p, n)
        if n - rank >= MIN_BEYOND:
            best = {"percentile": p, "value": ordered[rank - 1],
                    "beyond": n - rank, "samples": n}
    return best


# -- facts --------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def reference_loop() -> float:
    """Time of a fixed stretch of the standard library's ``Fraction``
    arithmetic and dict updates, the package's own hot path: work that no
    commit of the package can change, timed beside the operations to
    measure how fast the host runs at the moment."""
    t0 = time.perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        acc[i & 7] = acc.get(i & 7, 0) + x
    return time.perf_counter() - t0


def setup_time(workload: str) -> float:
    """Fresh interpreter -> package imported and warm-up call done."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "probe.py"),
                           "setup", workload], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1]) - start


# -- running operations -------------------------------------------------------

class Pass:
    """One sequence of operations run in order, with each operation's times
    and, with ``reference``, samples of ``reference_loop`` taken between the
    operations, one whenever REF_EVERY_S have passed since the last;
    ``ref_at`` holds the index of the last sample before each operation.

    A time is NaN where the operation has no such route or raised.
    """

    def __init__(self, reference: bool = False):
        self.kinds: List[str] = []
        self.latency = array("d")
        self.build = array("d")
        self.replay = array("d")
        self.reference = reference
        self.refs = array("d")
        self.ref_at = array("l")
        self.attempted = 0
        self.total_s = 0.0
        self.failures: List[str] = []
        self.outcomes = []  # (kind, outcome) kept for the digest
        self.nbytes = 0
        self.children: List[dict] = []

    def run(self, ops, keep: bool, tracer=None,
            stop: Optional[float] = None) -> None:
        """Run ``ops`` in order; with ``stop``, a monotonic time, end early
        once it has passed."""
        next_ref = 0.0
        for op in ops:
            if stop is not None and time.monotonic() >= stop:
                break
            if self.reference and time.perf_counter() >= next_ref:
                self.refs.append(reference_loop())
                next_ref = time.perf_counter() + REF_EVERY_S
            if self.reference:
                self.ref_at.append(len(self.refs) - 1)
            if tracer is not None:
                tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                outcome = op.run()
                why = "" if outcome.ok else outcome.why or "check failed"
            except Exception as exc:  # an operation that raises has failed
                outcome = None
                why = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if why:
                self.failures.append(f"op {self.attempted} ({op.kind}): {why}")
            build = replay = NAN
            if outcome is not None:
                build = NAN if outcome.build_s is None else outcome.build_s
                replay = NAN if outcome.replay_s is None else outcome.replay_s
            self.attempted += 1
            self.total_s += elapsed
            self.kinds.append(op.kind)
            self.latency.append(elapsed)
            self.build.append(build)
            self.replay.append(replay)
            if outcome is not None:
                self.nbytes += outcome.nbytes
                if outcome.child is not None:
                    outcome.child["op"] = self.attempted - 1
                    self.children.append(outcome.child)
            if keep:
                self.outcomes.append((op.kind, outcome))

    def speeds(self) -> List[float]:
        """Each operation's speed: how much slower than REF_S the median of
        the REF_WINDOW samples before it and after it ran (fewer at the ends
        of the pass)."""
        by_sample: Dict[int, float] = {}
        for j in self.ref_at:
            if j not in by_sample:
                window = self.refs[max(0, j + 1 - REF_WINDOW):j + 1 + REF_WINDOW]
                by_sample[j] = statistics.median(window) / REF_S
        return [by_sample[j] for j in self.ref_at]

    def digest(self) -> str:
        """SHA-256 of the kept operations' canonical outputs; drops them."""
        h = hashlib.sha256()
        for kind, outcome in self.outcomes:
            text = "ERROR" if outcome is None else outcome.canonical()
            h.update(f"{kind}\n{text}\n\x00".encode())
        self.outcomes = []
        return h.hexdigest()


def per_operation(passes: List[Pass], field: str, scaled: bool) -> List[float]:
    """Each operation's median over the passes of its time ``field``, each
    time divided by the operation's speed in that pass (``Pass.speeds``)
    when ``scaled``; NaN where no pass has the time."""
    speeds = [p.speeds() if scaled else [1.0] * p.attempted for p in passes]
    out = []
    for i in range(len(passes[0].kinds)):
        times = present([getattr(p, field)[i] / speed[i]
                         for p, speed in zip(passes, speeds) if i < p.attempted])
        out.append(statistics.median(times) if times else NAN)
    return out


def present(times) -> List[float]:
    return [t for t in times if not math.isnan(t)]


def kind_summary(kinds: List[str], latency: List[float]) -> dict:
    by_kind: Dict[str, List[float]] = {}
    for kind, t in zip(kinds, latency):
        by_kind.setdefault(kind, []).append(t)
    return {kind: {"count": len(v), "p50_ms": 1000 * statistics.median(v),
                   "mean_ms": 1000 * statistics.fmean(v)}
            for kind, v in by_kind.items()}


def make_workload(name: str, workdir: str):
    import workloads
    cls = workloads.WORKLOADS[name]
    return cls(ROOT, workdir) if name == "cli" else cls()


def operations(wl, seed: int, repeat: int) -> list:
    """The operations of one pass: the workload's fixed shapes with the
    values of the (seed, repeat) stream, as new objects."""
    import gen
    shape, rng = gen.shapes(wl.name), gen.stream(wl.name, seed, repeat)
    return [op for index in range(wl.rounds) for op in wl.round(shape, rng, index)]


def timed_run(wl, seed: int, seconds: float) -> dict:
    """Passes over the workload's operations until ``seconds`` have passed
    since the run's first set-up probe.

    Every pass runs the same ``wl.rounds`` rounds of shapes, so every run
    does the same work, but draws fresh values for them (``operations``), so
    no pass reuses an input of an earlier one and a cache across calls gets
    no more hits than it would on fresh user inputs.  Passes run at least
    MIN_PASSES times, and a pass after those ends early when the time is up.

    A shared host (measured on a 2-core Xeon) runs the same code up to 2x
    slower for stretches from seconds to many minutes, longer than a run.
    So every pass also samples ``reference_loop``, and each operation's
    times are divided by its speed (``Pass.speeds``): they are the times at
    the speed where the loop takes REF_S.  An operation's time is the
    median over its passes.  The SETUP_REPEATS set-up probes are spread
    over the run between passes, and each is divided by the speed of the
    SETUP_REFS samples timed on each side of it.  The report keeps the
    unscaled figures.  The output digest is that of the first pass.
    """
    def probe() -> tuple:
        refs = [reference_loop() for _ in range(SETUP_REFS)]
        t = setup_time(wl.name)
        refs += [reference_loop() for _ in range(SETUP_REFS)]
        return t, statistics.median(refs) / REF_S

    start = time.monotonic()
    setup = [probe()]  # (time, speed)
    first = Pass(reference=True)
    first.run(operations(wl, seed, 0), keep=True)
    digest = first.digest()
    # The peak of the work itself: later passes repeat the same work, while
    # the times they add grow with the pass count, that is with the speed.
    usage = resource.getrusage(resource.RUSAGE_SELF)
    passes = [first]
    failures = first.failures
    while time.monotonic() - start < seconds or len(passes) < MIN_PASSES:
        again = Pass(reference=True)
        again.run(operations(wl, seed, len(passes)), keep=False,
                  stop=start + seconds if len(passes) >= MIN_PASSES else None)
        if again.attempted:
            passes.append(again)
        failures.extend(again.failures)
        while (len(setup) < SETUP_REPEATS
               and time.monotonic() - start >= len(setup) * seconds / SETUP_REPEATS):
            setup.append(probe())
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())
    if wl.name == "cli":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    def figures(scaled: bool) -> dict:
        latency = per_operation(passes, "latency", scaled)
        build = present(per_operation(passes, "build", scaled))
        replay = present(per_operation(passes, "replay", scaled))
        return {
            "ops_per_s": len(latency) / sum(latency),
            "latency_p50_ms": 1000 * statistics.median(latency),
            "latency_tail_ms": 1000 * tail(latency, wl.tail_percentile)["value"],
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "build_p50_ms": 1000 * statistics.median(build),
            "replay_p50_ms": 1000 * statistics.median(replay),
            "setup_s": statistics.median(t / (speed if scaled else 1.0)
                                         for t, speed in setup),
        }

    latency = per_operation(passes, "latency", True)
    t = tail(latency, wl.tail_percentile)
    facts = {"rounds": wl.rounds, "operations": len(latency), "passes": len(passes),
             "measured_s": [p.total_s for p in passes],
             "speed_per_pass": [statistics.median(p.speeds()) for p in passes],
             "reference_samples": sum(len(p.refs) for p in passes),
             "setup_samples_s": [t for t, _ in setup],
             "setup_speed": [speed for _, speed in setup],
             "unscaled": figures(False),
             "tail": {k: t[k] for k in ("percentile", "beyond", "samples")},
             "build_samples": len(present(first.build)),
             "replay_samples": len(present(first.replay)),
             "kinds": kind_summary(first.kinds, latency)}
    return {"attempted": sum(p.attempted for p in passes), "failures": failures,
            "problems": [], "metrics": figures(True), "facts": facts,
            "digest": digest}


def traced_run(wl, seed: int, workdir: str) -> dict:
    """Each round of the first pass's operations once under the tracer and
    once without it, on a second copy made from the same values: the two
    halves share no object, and their outputs must agree."""
    import gen
    import probe
    import tracer as tracing
    import workloads

    def rounds():
        shape, rng = gen.shapes(wl.name), gen.stream(wl.name, seed, 0)
        return [wl.round(shape, rng, index) for index in range(wl.rounds)]

    tr = tracing.Tracer()
    tr.install()
    try:
        probe.sweep()
    finally:
        tr.uninstall()
    sweep_cli = workloads.Cli(ROOT, workdir)
    sweep_cli.traced = True
    sweep = sweep_cli._request(["cmn", "--order", "1"], 0)
    problems = [] if sweep.ok else [f"sweep request failed: {sweep.why}"]
    children = [sweep.child] if sweep.child else []
    traced, plain = Pass(), Pass()
    for ops, copy in zip(rounds(), rounds()):  # alternate: both see one machine
        if wl.name == "cli":
            wl.traced = True
            traced.run(ops, keep=True)
            wl.traced = False
        else:
            tr.install()
            try:
                traced.run(ops, keep=True, tracer=tr)
            finally:
                tr.uninstall()
        plain.run(copy, keep=True)
    agg = tr.dump()
    log_names = agg["names"]
    children += traced.children
    for child in children:
        tracing.merge(agg, child)
    agg["counts"]["serialize.bytes"] = sweep.nbytes + traced.nbytes
    extra = {"trace.overhead_s": traced.total_s - plain.total_s,
             "cli.import_s": statistics.median(c["import_s"] for c in children),
             "cli.spawn_s": statistics.median(c["spawn_s"] for c in children)}
    metrics = tracing.layer_metrics(agg, extra)
    spans_path = write_spans(wl.name, seed, log_names, agg["log"], children)
    digest = traced.digest()
    if plain.digest() != digest:
        problems.append("traced and untraced outputs differ")
    facts = {"rounds": wl.rounds, "operations": traced.attempted,
             "traced_s": traced.total_s, "untraced_s": plain.total_s,
             "overhead_ratio": traced.total_s / plain.total_s - 1,
             "spans_file": os.path.relpath(spans_path, ROOT),
             "spans_dropped": agg.get("dropped", 0),
             "kinds": kind_summary(traced.kinds, traced.latency)}
    return {"attempted": traced.attempted + plain.attempted,
            "failures": traced.failures + plain.failures, "problems": problems,
            "metrics": metrics, "facts": facts, "digest": digest}


def write_spans(name: str, seed: int, names: List[str], log: List[list],
                children: List[dict]) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["process", "id", "name", "parent", "op", "start", "end"])
        for sid, nid, parent, op, start, end in log:
            out.writerow([0, sid, names[nid], parent, op, repr(start), repr(end)])
        for proc, child in enumerate(children, start=1):
            for sid, nid, parent, _, start, end in child["log"]:
                out.writerow([proc, sid, child["names"][nid], parent,
                              child.get("op", -1), repr(start), repr(end)])
    return path


# -- main ---------------------------------------------------------------------

def parse_args():
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "heisenfock", "__init__.py")):
        print(f"no package source at {os.path.relpath(SRC)}/heisenfock; run from "
              "the root of a heisenfock checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import probe
    probe.WARMUPS[args.workload]()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(args.workload, workdir)
        if args.trace:
            import tracer
            res = traced_run(wl, args.seed, workdir)
            units = dict(tracer.PER_LAYER)
        else:
            res = timed_run(wl, args.seed, args.seconds)
            units = dict(END_TO_END)
        attempted, failures, metrics = res["attempted"], res["failures"], res["metrics"]
        problems = res["problems"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "attempted": attempted,
        "failed": len(failures), "error_rate": len(failures) / attempted,
        "digest_sha256": res["digest"], "problems": problems,
        "failures": failures[:20], **res["facts"],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps({"report": report}))
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
