"""coxlat benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload roster --seed 271828 --seconds 30 --trace 0

Runs from the root of a source checkout and imports coxlat from its
``src`` directory.  One single-threaded process drives coxlat in a closed
loop: each subject starts when the previous one has finished.  Passes over
the workload's subjects repeat until the measuring time is spent, and
every output is checked against a known answer after its pass.  Times are
scaled to a fixed host speed (see speed.py); the raw wall times are kept
in the result file.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
on untraced passes and half on passes with span-recording wrappers
installed, and prints the per-layer metrics.  The last line of standard
output is one JSON object; a fuller result file (and, when traced, the
span JSONL) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
MIN_PASSES = 2     # roster and query then have >= 100 subject samples per run
LAYERS = ("lattice.charpoly", "lattice.quotient", "lattice.induced", "lattice.coxeter",
          "lattice.form", "lattice.matmul", "series.hilbert", "series.direct",
          "exact.rational", "exact.compare", "star.build")
COUNTED = ("lattice.charpoly", "lattice.quotient", "lattice.induced", "lattice.coxeter",
           "series.hilbert", "exact.rational", "star.build")
COMMANDS = ("charpoly", "poincare", "hilbert")


def import_program():
    """Import coxlat from this checkout's source tree and nowhere else."""
    if not (SRC / "coxlat" / "__init__.py").is_file():
        raise SystemExit(f"error: no coxlat source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import coxlat
    if not Path(coxlat.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported coxlat from {coxlat.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter until its inputs
    are ready, scaled by the host speed sampled here while the probes run."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    with speed.SpeedSampler() as sampler:
        window = time.perf_counter()
        for i in range(SETUP_SAMPLES + 1):
            start = time.monotonic()
            done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
            if i:   # the first start also writes bytecode caches
                samples.append(float(done.stdout.split()[-1]) - start)
        window = (window, time.perf_counter())
    return statistics.median(samples) * sampler.factor(*window)


class Pass:
    """One pass: subject boundaries, CPU time, the program's own check
    times and (traced) spans.  Outputs are judged and dropped right after
    the pass, so they do not add to the peak memory of later passes.

    ``wall``, ``cpu`` and ``latencies`` are filled in by ``scale`` once the
    sampler has stopped.
    """

    def __init__(self, marks, cpu, check_times, spans=None, keys=None):
        self.marks, self.raw_cpu, self.check_times = marks, cpu, check_times
        self.spans, self.keys = spans, keys

    @property
    def raw_wall(self) -> float:
        return self.marks[-1] - self.marks[0]

    def scale(self, sampler):
        self.latencies = [sampler.scaled(a, b) for a, b in zip(self.marks, self.marks[1:])]
        self.wall = sampler.scaled(self.marks[0], self.marks[-1])
        self.factor = self.wall / self.raw_wall
        self.cpu = self.raw_cpu * self.factor


def run_pass(workloads, subjects, gate, tracer=None) -> Pass:
    outputs = []
    clock = time.perf_counter
    cpu0 = time.process_time()
    marks = [clock()]
    for s in subjects:
        if tracer is not None:
            tracer.subject = s.sid
        try:
            out = s.run()
        except Exception as exc:    # counted as failed checks by the gate
            out = exc
        marks.append(clock())
        outputs.append(out)
    cpu = time.process_time() - cpu0
    gate.judge(subjects, outputs)
    check_times = {}
    for out in outputs:
        for check, seconds in workloads.check_times(out).items():
            check_times[check] = check_times.get(check, 0.0) + seconds
    done = Pass(marks, cpu, check_times)
    if tracer is not None:
        done.spans, done.keys = tracer.take()
    return done


def run_passes(workloads, subjects, gate, budget: float, min_passes: int, tracer=None) -> list:
    """Passes until one more would overrun the budget (at least ``min_passes``)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workloads, subjects, gate, tracer))
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + statistics.median(p.raw_wall for p in passes) > budget):
            return passes


class Gate:
    """Known-answer verdicts over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = self.bits = 0
        self.messages = []
        self.witnesses = {}

    def fail(self, message: str, checks: int = 1):
        self.failed += checks
        self.messages.extend([message] * checks)

    def judge(self, subjects, outputs):
        for s, out in zip(subjects, outputs):
            self.attempted += s.checks
            if isinstance(out, Exception):
                self.fail(f"{s.sid}: raised {out!r}", s.checks)
                continue
            try:
                failures, bits, witness = s.check(out)
            except Exception as exc:   # malformed output
                self.fail(f"{s.sid}: {exc!r}", s.checks)
                continue
            for message in failures:
                self.fail(message)
            self.bits = max(self.bits, bits)
            if s.control:
                self.witnesses[s.sid] = witness


def fit_exponent(points) -> float:
    """Least-squares slope of log time against log rank."""
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def subject_medians(subjects, passes) -> dict:
    return {s.sid: statistics.median(p.latencies[i] for p in passes)
            for i, s in enumerate(subjects)}


def end_to_end(subjects, passes, setup_s) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    p90 = statistics.quantiles(latencies, n=10)[8]
    med = subject_medians(subjects, passes)
    rank_points = [(s.rank, med[s.sid]) for s in subjects if not s.control]
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(p.wall for p in passes), "s"),
        "verdict_cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "subject_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "subject_ms_p90": (p90 * 1000, "ms"),
        "rank_exponent": (fit_exponent(rank_points), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workloads, plain, traced, gate) -> dict:
    """Self times per pass (scaled like the pass), call counts and waste ratios."""
    import spans

    rows = []
    for p in traced:
        self_time, inclusive, calls = spans.layer_times(p.spans)
        ms = 1000 * p.factor
        row = {f"{layer}_ms": self_time[layer] * ms for layer in LAYERS}
        row.update({f"{layer}_calls": calls[layer] for layer in COUNTED})
        for layer in ("lattice.coxeter", "lattice.charpoly"):
            row[f"{layer}_useful_ratio"] = (
                len(p.keys.get(layer, ())) / calls[layer] if calls[layer] else 1.0)
        row["verify.self_ms"] = self_time["verify.lattices"] * ms
        for cmd in COMMANDS:
            row[f"cli.{cmd}_ms"] = inclusive[f"cli.{cmd}"] * ms
        row["cli.self_ms"] = sum(self_time[f"cli.{cmd}"] for cmd in COMMANDS) * ms
        row["trace.coverage_frac"] = sum(self_time.values()) / p.raw_wall
        rows.append(row)
    metrics = {name: (statistics.median(r[name] for r in rows),
                      "count" if name.endswith("_calls") else
                      "ratio" if name.endswith(("_ratio", "_frac")) else "ms")
               for name in rows[0]}
    for check in workloads.CHECKS:
        name = f"verify.{check.replace('-', '_')}_ms"
        metrics[name] = (statistics.median(p.check_times.get(check, 0.0) * p.factor
                                           for p in plain) * 1000, "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1,
        "ratio")
    metrics["failed_frac"] = (gate.failed / gate.attempted, "ratio")
    return metrics


def rank_table(subjects, gate) -> list:
    """Time char_poly(V_zero) once per rung, checked against the closed form."""
    from coxlat import build, char_poly, coxeter_matrix, kleinian_invariants

    timed = []
    for s in sorted(subjects, key=lambda s: s.rank):
        tau = coxeter_matrix(build(kleinian_invariants(s.alphas)).zero)
        t0 = time.perf_counter()
        delta = char_poly(tau)
        timed.append((s, t0, time.perf_counter()))
        gate.attempted += 1
        if delta != oracles.star_deltas(s.alphas)["zero"]:
            gate.fail(f"{s.sid}: char_poly(V_zero) differs from the closed form")
    return timed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("roster", "rank_sweep", "query"))
    parser.add_argument("--seed", type=int, default=271828)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    subjects = workloads.make(args.workload, args.seed)
    if args.probe:
        print(time.monotonic())
        return 0
    workloads.check_generator()
    gate = Gate()
    timed = []
    with speed.SpeedSampler() as sampler:
        if args.trace:
            import spans

            plain = run_passes(workloads, subjects, gate, args.seconds / 2, 1)
            tracer = spans.Tracer()
            tracer.install(workloads)
            try:
                traced = run_passes(workloads, subjects, gate, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes = run_passes(workloads, subjects, gate, args.seconds, MIN_PASSES)
            if args.workload == "rank_sweep":
                timed = rank_table(subjects, gate)
    for p in passes:
        p.scale(sampler)
    if args.trace:
        metrics = per_layer(workloads, plain, traced, gate)
    else:
        metrics = end_to_end(subjects, passes, measure_setup(args.workload, args.seed))
    med = subject_medians(subjects, passes)
    table = [{"input": s.sid, "rank": s.rank, "subject_s": med[s.sid],
              "charpoly_zero_s": sampler.scaled(a, b)} for s, a, b in timed]

    positives = [s for s in subjects if not s.control]
    descriptors = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "subjects": len(positives), "controls": len(subjects) - len(positives),
        "min_rank": min(s.rank for s in positives), "max_rank": max(s.rank for s in positives),
        "order": workloads.QUERY_ORDER if args.workload == "query" else workloads.ORDER,
        "passes": len(passes), "subject_samples": sum(len(p.latencies) for p in passes),
        "max_coeff_bits": gate.bits,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans.write_jsonl(stem.with_suffix(".jsonl"), [p.spans for p in traced])
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, descriptors=descriptors, rank_table=table,
                  controls=gate.witnesses, failures=gate.messages[:20],
                  passes=[{"wall_s": p.wall, "cpu_s": p.cpu, "raw_wall_s": p.raw_wall,
                           "raw_cpu_s": p.raw_cpu} for p in passes])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# " + " ".join(f"{k}={v}" for k, v in descriptors.items()))
    for p in passes:
        print(f"# pass: {p.wall:.3f} s scaled, {p.raw_wall:.3f} s wall")
    for sid, w in gate.witnesses.items():
        print(f"# negative control {sid}: theorem fails at index {w and w['index']}")
    if table:
        print("# input  rank  subject_s  charpoly_zero_s")
        for row in table:
            print(f"# {row['input']:<6} {row['rank']:>4} {row['subject_s']:10.3f} "
                  f"{row['charpoly_zero_s']:10.3f}")
        print(f"# rank_exponent {metrics['rank_exponent'][0]:.3f}")
    for message in gate.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
