"""Record reference.json: the default seed's outputs, to compare later runs with.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good; every later run at the
default seed is checked against what it writes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmpdir:
        for workload in workloads.WORKLOADS:
            for inst in workloads.make_instances(workload, workloads.DEFAULT_SEED, tmpdir):
                out = inst.run()
                problems = inst.check(out)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                reference[inst.name] = inst.summary(out)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
