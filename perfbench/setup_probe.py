"""Set-up probe: a fresh interpreter's time to the first simulated event.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCALE SPEC T0

``T0`` is the parent's ``time.monotonic()`` taken just before it
started this interpreter (the clock is system-wide), so interpreter
start-up counts.  A single-run workload imports ``repro``, builds the
testbed, starts the load and dispatches the first simulated event;
``campaign_sweep`` imports ``repro``, loads the spec at ``SPEC`` and
expands it.  Prints the elapsed seconds.  ``repro`` must be on
``PYTHONPATH``.
"""

import sys
import time


def main(argv: list[str]) -> None:
    workload, seed, scale, spec_path, t0 = argv
    if workload == "campaign_sweep":
        from repro.campaign.matrix import expand
        from repro.campaign.spec import load_spec

        expand(load_spec(spec_path))
    else:
        from repro.loadgen.lancet import build_testbed
        from workloads import bench_config

        bed = build_testbed(bench_config(workload, int(seed), float(scale)))
        bed.start_load()
        bed.sim.step()
    print(repr(time.monotonic() - float(t0)))


if __name__ == "__main__":
    main(sys.argv[1:])
