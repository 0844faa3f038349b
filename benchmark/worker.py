"""One fresh benchmark process for one workload (started by run.py).

It imports coverspec, builds the first round of inputs and prints `ready`;
run.py times that as one set-up sample.  With --setup-only it stops there.
Otherwise it runs the closed loop (one client, no threads or pools): the
next job starts when the previous one has returned, and each job is timed
on its own, so checks and input generation between jobs stay outside the
timings.  The last stdout line is a JSON record of the measurements.

Right after `ready` every worker times a fixed pure-Python kernel (the
machine's speed at that moment), and a measuring worker times it again
every half second between jobs; run.py scales the run's timings by
CAL_REF / (mean kernel time), the mean being a time average because the
timings are taken at even intervals.

Untraced runs go round by round and start another round only while it is
expected to end within --seconds.  The twist workload is one pass over its
fixed family.  A traced run does a fixed amount of work (`TRACE_ROUNDS`)
so that its counts repeat exactly: every job runs once untraced and then
once traced, which gives the tracing overhead on identical work.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_ROUNDS = {"census": 2, "search": 4, "twist": 1, "cli": 30}
SPEED_INTERVAL = 0.5  # seconds between kernel timings in a measuring run
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = ROOT / ".bench_out"


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        reference = json.loads(REFERENCE.read_text())
        self.reference = (reference["digests"][workload.name]
                          if seed == reference["seed"] else [])
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job(self, job, call):
        """Run one job through `call`, check it; returns seconds or None."""
        index, self.index = self.index, self.index + 1
        self.attempted += 1
        w = self.workload
        try:
            output, seconds = call(job)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return None
        try:
            issues = w.check(job, output)
            if index < len(self.reference) and \
                    w.digest(job, output) != self.reference[index]:
                issues.append("output differs from the reference")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            issues = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if issues:
            self.fail(index, "; ".join(issues))
            return None
        return seconds

    def fail(self, index, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"job {index}: {message}")


def kernel():
    """Fixed interpreter work that shares no code with coverspec."""
    acc = 0
    table = {}
    for i in range(20000):
        pair = (i, i * 7 % 13)
        acc += pair[1] * (i & 15)
        table[i & 63] = acc % 1009
    return acc


def kernel_seconds():
    """Median time of three kernel calls: the machine's current speed."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Kernel timings taken between jobs, at most every SPEED_INTERVAL."""

    def __init__(self, first):
        self.samples = [first]
        self.last = perf_counter()

    def tick(self):
        if perf_counter() - self.last >= SPEED_INTERVAL:
            self.samples.append(kernel_seconds())
            self.last = perf_counter()


def timed(workload):
    def call(job):
        start = perf_counter()
        output = workload.run(job)
        return output, perf_counter() - start
    return call


def measure(workload, stream, seconds, run, speed):
    call = timed(workload)
    rounds = []       # work units per busy second, per round without failures
    latencies = []
    round_walls = []
    start = perf_counter()
    for jobs in stream:
        began = perf_counter()
        units = busy = 0.0
        clean = True
        for job in jobs:
            speed.tick()
            took = run.job(job, call)
            if took is None:
                clean = False
                continue
            units += job["units"]
            busy += took
            latencies.append(took)
        if clean:
            rounds.append(units / busy)
        round_walls.append(perf_counter() - began)
        elapsed = perf_counter() - start
        if workload.single_pass or \
                elapsed + statistics.median(round_walls) > seconds:
            break
    if not latencies:
        return {}, {}
    metrics = {
        "throughput": statistics.median(rounds) if rounds else 0.0,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
    }
    samples = {"throughput": len(rounds), "latency_p50_s": len(latencies),
               "latency_p90_s": len(latencies)}
    return metrics, samples


def measure_traced(workload, stream, seconds, run, spans_path):
    tracer = tracing.Tracer()
    plain = timed(workload)
    totals = {"untraced": 0.0, "traced": 0.0}

    def paired(job):
        output, untraced = plain(job)
        tracer.install()
        try:
            traced_output, traced = tracer.run_job(run.index, workload.run, job)
        finally:
            tracer.uninstall()
        if workload.digest(job, traced_output) != workload.digest(job, output):
            raise AssertionError("traced and untraced outputs differ")
        totals["untraced"] += untraced
        totals["traced"] += traced
        return output, traced

    start = perf_counter()
    for number, jobs in enumerate(stream):
        for job in jobs:
            run.job(job, paired)
        if number + 1 >= TRACE_ROUNDS[workload.name] or \
                perf_counter() - start > 2 * seconds:
            break
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_s"] = totals["untraced"]
    metrics["trace.traced_s"] = totals["traced"]
    metrics["trace.overhead_ratio"] = (
        totals["traced"] / totals["untraced"] if totals["untraced"] else 0.0)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return metrics, {"trace.jobs": run.index}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import coverspec  # noqa: F401  (the import is part of set-up)
    workload = WORKLOADS[args.workload]
    stream = workload.rounds(args.seed)
    first = next(stream)
    print("ready", flush=True)
    cal = kernel_seconds()
    print(f"kernel {cal!r}", flush=True)
    if args.setup_only:
        return 0

    def rounds():
        yield first
        yield from stream

    run = Run(workload, args.seed)
    if args.trace:
        spans = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, samples = measure_traced(workload, rounds(), args.seconds,
                                          run, spans)
    else:
        speed = Speed(cal)
        metrics, samples = measure(workload, rounds(), args.seconds, run,
                                   speed)
        speed.tick()
        metrics["kernel_s"] = statistics.fmean(speed.samples)
        samples["kernel_s"] = len(speed.samples)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        samples["peak_rss_mib"] = 1
    print(json.dumps({
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": metrics, "samples": samples,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
