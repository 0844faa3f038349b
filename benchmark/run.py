"""coverspec benchmark: one workload, one seed, one result line.

    python3 benchmark/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from a checkout that holds `src/coverspec` and BENCHMARK.json.  It
starts fresh worker processes (benchmark/worker.py), one after another:
first set-up-only workers, whose time from start to `ready` (interpreter,
`import coverspec`, first round of inputs) gives `setup_s` as a median,
then the measuring worker, whose own set-up time is one more sample.
With --trace 0 it reports BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics (and writes the spans under .bench_out/).

End-to-end times are scaled to a machine of fixed speed.  Each worker times
a fixed pure-Python kernel (see worker.py); a time measured while the
kernel took k seconds on average is reported as time * CAL_REF / k, a rate
as rate * k / CAL_REF.  On a shared 2-CPU virtual machine the kernel time
drifted by a third and more within minutes, and the raw timings of every
workload drifted with it, so unscaled figures from runs minutes apart were
not comparable.  The record line keeps the raw figures and the kernel
times.  Per-layer figures are not scaled: they are compared within one
traced run.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it records the Python version, CPU count, commit, seed
and the sample count behind each metric.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 10     # set-up-only workers, after one unmeasured warm-up
CAL_REF = 0.004        # seconds per kernel call on the reference machine
RATES = {"throughput"}
TIMES = {"latency_p50_s", "latency_p90_s"}
WORKER_TIMEOUT = 170   # seconds; every worker is killed after this


def start_worker(args, setup_only):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    began = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        setup = perf_counter() - began
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        kernel = float(out.split("\n", 1)[0].split()[1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, kernel, out


def commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coverspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coverspec" / "__init__.py").is_file():
        print("benchmark: no coverspec sources under src/", file=sys.stderr)
        return 2

    try:
        setups = []  # (seconds, kernel seconds) per fresh process
        for i in range(0 if args.trace else SETUP_SAMPLES + 1):
            setup, kernel, _ = start_worker(args, setup_only=True)
            if i:
                setups.append((setup, kernel))
        setup, kernel, out = start_worker(args, setup_only=False)
        setups.append((setup, kernel))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])

    raw = dict(record["metrics"],
               setup_s=statistics.median(s for s, _ in setups))
    measured = dict(raw, setup_s=statistics.median(
        s * CAL_REF / k for s, k in setups))
    if not args.trace:
        speed = raw["kernel_s"] / CAL_REF
        measured.update({m: raw[m] * speed for m in RATES if m in raw})
        measured.update({m: raw[m] / speed for m in TIMES if m in raw})
    samples = dict(record["samples"], setup_s=len(setups))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for problem in record["problems"]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": record["python"], "nproc": record["nproc"],
        "affinity_cpus": record["affinity"], "commit": commit(),
        "source_sha256": source_digest(), "samples": samples,
        "raw": raw, "setup_kernel_s": [k for _, k in setups]}))
    failed = record["failed"]
    print(json.dumps({
        "correct": failed == 0 and record["attempted"] > 0,
        "attempted": record["attempted"], "failed": failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
