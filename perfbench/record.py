"""Record the reference outputs that every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record.py

Run from the root of a checkout, at the commit whose outputs are the
references.  Each operation of each input variant of every scale and
workload runs once in this process; its output must already pass the
invariant checks.  references.json is rewritten as a whole, so every
reference comes from the same commit.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads


def record(workload: str, scale: str, workdir: Path) -> dict:
    api = workloads.Api()
    table = {}
    for variant in range(workloads.VARIANTS):
        plan = workloads.prepare(workload, scale, variant, workdir)
        ops = plan["ops"]
        cell = (workloads.load_cell(ops[0]) if ops[0]["kind"] == "calibrate"
                else None)
        refs = {}
        for op in ops:
            out = workloads.execute(api, op, cell)
            op["ref"] = refs[op["key"]] = workloads.reference_of(op, out)
            errors = workloads.verify(op, out)
            if errors:
                raise SystemExit(f"{workload} variant {variant} {op['key']}: "
                                 + "; ".join(errors))
        table[str(variant)] = refs
        print(f"{scale} {workload} variant {variant} recorded", flush=True)
    return table


def main() -> int:
    refs = {}
    workdir = Path.cwd() / ".bench_work" / "record"
    try:
        for scale in workloads.SCALES:
            for workload in workloads.WORKLOADS:
                table = record(workload, scale, workdir)
                refs.setdefault(scale, {})[workload] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
