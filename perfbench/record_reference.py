"""Record the reference output digest of every op in the workload pools.

    python3 perfbench/record_reference.py [workload ...]

Runs each pool op once through the same path as the benchmark, requires its
independent invariant to hold, and writes ``reference/<workload>.json``
(op key -> sha256 prefix of the ``--format json`` stdout, or of the result
rows for large_reps). Record only from a commit whose outputs are known to
be right: later runs count any difference as a failed op.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
import worker

HERE = Path(__file__).resolve().parent
MODULES = worker.ROOT / ".perfbench_out" / "modules"


def record(workload: str) -> dict:
    MODULES.mkdir(parents=True, exist_ok=True)
    digests = {}
    for op in workloads.pool(workload):
        if op["kind"].startswith("certify"):
            (MODULES / op["module_file"]).write_text(op["module"])
        output = worker.execute(op, str(MODULES))
        key = workloads.op_key(op)
        digests[key] = worker.output_digest(op, output)
        reason = worker.check(op, output, digests)
        if reason:
            raise SystemExit(f"{workload}: {key[:120]}: {reason}")
    return digests


def main(argv: list[str]) -> int:
    worker.import_greenhrt()
    for workload in argv or workloads.WORKLOADS:
        digests = record(workload)
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(digests)} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
