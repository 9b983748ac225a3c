"""Record the reference outputs that `run.py` compares every pass with.

    python3 tppbench/record_references.py

For each workload and each seed in `SEEDS`, and for the tiny variant on
`run.CANARY_SEED`, runs one pass and stores the loss at every step
(mae-tpp, dino-tpp) or the test Dice and HD95 (cli-seg) in
`references.json`. Run it only on a commit whose outputs are known to
be right; the values are compared within `run.REL_TOL`.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS threads and puts src/ on the path
import workloads

SEEDS = range(20)


def main() -> int:
    references = {}
    for name, cls in workloads.WORKLOADS.items():
        runs = [(name, False, seed) for seed in SEEDS]
        runs.append((run.TINY_KEY % name, True, run.CANARY_SEED))
        for key, tiny, seed in runs:
            workdir = tempfile.mkdtemp(dir=run.work_root())
            try:
                workload = cls(tiny=tiny)
                workload.setup(seed, workdir)
                result = workload.unit(workdir)
            finally:
                shutil.rmtree(workdir)
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            references.setdefault(key, {})[str(seed)] = result.outputs
            print(key, seed, flush=True)
    with open(os.path.join(run.HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
