"""Record the op pool: run every candidate op once and store its output digest.

Run from the repository root on the reference commit:

    python3 perfbench/make_pool.py

Candidates that fail (raise, exit nonzero, overrun 20 s or fail the oracle)
are left out of the workloads and listed under "rejected" with the reason,
so the pool records which inputs the program cannot serve yet.  The known
defects (``ops.DEFECTS``) are stored with the failure they show.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
import ops


def main():
    src = Path.cwd() / "src"
    program = harness.load_program(src)
    pool = {"workloads": {}, "rejected": {}}
    for workload, strata in ops.candidates(src).items():
        pool["workloads"][workload] = {}
        for stratum, keys in strata.items():
            kept = {}
            for key in keys:
                deadline = harness.DEADLINE_S[workload]
                outcome = harness.run_op(program, key, None, deadline)
                if workload == "defects":
                    kept[key] = {"digest": outcome.digest, "failure": outcome.failure}
                elif outcome.ok:
                    kept[key] = {"digest": outcome.digest, "ms": round(outcome.seconds * 1000, 1)}
                else:
                    pool["rejected"][key] = outcome.failure
            pool["workloads"][workload][stratum] = kept
            need = ops.PASS_COUNTS[workload][stratum]
            print(f"{workload}/{stratum}: {len(kept)} kept of {len(keys)} (a pass draws {need})")
            if not kept:
                sys.exit(f"stratum {stratum} has no usable op")
    ops.POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
