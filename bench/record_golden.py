"""Record bench/golden.json: digests of every canonical output of every
workload on the default seed.  Run from the repository root on a commit
whose answers are trusted:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import sys

from child import GOLDEN, check_pass, import_crtasep, run_instances
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    import_crtasep()
    golden = {}
    for name, workload in WORKLOADS.items():
        instances = workload.make_inputs(DEFAULT_SEED)
        checked = check_pass(workload, instances, run_instances(workload, instances), None)
        if checked["failed"]:
            print(f"{name}: {checked['failures']}", file=sys.stderr)
            return 1
        golden[name] = checked["digests"]
        print(f"{name}: {len(instances)} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
