"""Regenerate benchmark/reference.json: output digests for the reference seed.

    python3 benchmark/make_reference.py

Runs the first rounds of every workload for seed 0, untimed, and stores
one digest per job in stream order.  worker.py compares the outputs of a
run with this seed against it job by job.  Regenerate only when a change
to the benchmark's inputs is intended, never to make a failing run pass.
"""

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

SEED = 0
ROUNDS = {"census": 12, "search": 30, "twist": 1, "cli": 200}


def main():
    digests = {}
    for name, count in ROUNDS.items():
        w = WORKLOADS[name]
        digests[name] = [w.digest(job, w.run(job))
                         for jobs in islice(w.rounds(SEED), count)
                         for job in jobs]
        print(f"{name}: {len(digests[name])} jobs", file=sys.stderr)
    text = json.dumps({"seed": SEED, "digests": digests}, indent=1)
    (HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
