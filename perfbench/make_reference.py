"""Regenerate reference.json: the gated values of one untraced pass per
workload and seed, as the current sources compute them.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference; a change that
claims the same results must pass the benchmark's checks against the file
as it stands.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, Runner
from workloads import WORKLOADS

SEEDS = tuple(range(16)) + (42,)
RTOL = 1e-9
ATOL = 1e-10


def main() -> int:
    values = {}
    for name in WORKLOADS:
        values[name] = {}
        for seed in SEEDS:
            runner = Runner(name, seed, time.monotonic() + 3600.0)
            values[name][str(seed)] = runner.child("pass")["values"]
            print(name, seed, file=sys.stderr, flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"rtol": RTOL, "atol": ATOL, "values": values}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
