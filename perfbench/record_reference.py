"""Record the output digests the benchmark checks each run against.

    python3 perfbench/record_reference.py [--first 0] [--count 32]

Runs one full-scale operation per workload and seed and rewrites
``perfbench/reference.json``: the canonical-JSON SHA-256 of the
``RunResult`` for single-run workloads, of the importance report for
``campaign_sweep``.  Rerun it only with a change that is meant to
change the program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import (
    SINGLE_RUN,
    WORKLOADS,
    bench_config,
    campaign_operation,
    run_operation,
    write_spec,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=32)
    args = parser.parse_args(argv)
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(SRC))
    from repro.campaign.spec import load_spec

    seeds = range(args.first, args.first + args.count)
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent))
    try:
        for workload in WORKLOADS:
            digests = reference[workload] = {}
            for seed in seeds:
                if workload in SINGLE_RUN:
                    op = run_operation(bench_config(workload, seed))
                else:
                    spec_path = write_spec(workdir / f"spec{seed}.json", seed)
                    op = campaign_operation(
                        load_spec(spec_path), workdir / f"cache{seed}"
                    )
                digests[str(seed)] = op.digest
                print(workload, seed, op.digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
