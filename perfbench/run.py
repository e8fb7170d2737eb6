"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload set_nagle --seed 1 --seconds 28 --trace 0

It imports ``repro`` from the ``src/`` next to this directory, so run it
from a repository checkout.  ``--trace 0`` prints the ``end_to_end``
metrics of ``BENCHMARK.json``, ``--trace 1`` the ``per_layer`` ones,
from a separate run that adds a ``cProfile`` pass.  The last line of
standard output is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment, the
output digest, the guard outcomes and, untraced, the unscaled timings
(see ``calibrate.py``).  Exits 2, printing no result,
when there are no ``repro`` sources.

RATIONALE.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import itertools
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from workloads import (
    CAMPAIGN,
    CAMPAIGN_CELLS,
    WORKLOADS,
    bench_config,
    campaign_guards,
    campaign_operation,
    run_guards,
    run_operation,
    write_spec,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Fresh interpreters started per untraced run; setup_s is their median.
SETUP_REPEATS = 7
# Timed operations per run at least, however short --seconds is.
MIN_TIMED_OPS = 3
# Packages of src/repro that get their own self-time share; the rest
# of repro, the benchmark's files and third-party code are "other".
LAYERS = (
    "sim", "net", "tcp", "host", "apps", "core", "analysis", "loadgen",
    "faults", "obs",
)


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every simulated horizon (the benchmark's tests "
             "shrink runs with it; digests are checked against the "
             "stored reference only at 1)",
    )
    return parser.parse_args(argv)


def median(values) -> float:
    """Median, or 0.0 when every operation failed."""
    return statistics.median(values) if values else 0.0


def setup_probe(args, spec_path: Path | None) -> tuple[float, float]:
    """One fresh interpreter's time to the first simulated event, and
    the calibration kernel's time right before it."""
    kernel = kernel_seconds()
    command = [
        sys.executable, str(HERE / "setup_probe.py"), args.workload,
        str(args.seed), repr(args.scale), str(spec_path or "-"),
    ]
    start = time.monotonic()
    done = subprocess.run(
        command + [repr(start)], capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]), kernel


def host_scaled(
    timed, kernels: dict, closing: float, setups: list, outcome: Outcome,
) -> dict:
    """``requests_per_s`` and ``setup_s`` at the reference host speed.

    ``kernels`` maps each operation to the calibration kernel's time
    right before it; ``closing`` is one more taken after the last.  Each
    operation's rate is scaled by the mean of the kernel times before
    and after it over :data:`calibrate.REFERENCE_S`, each set-up time by
    the inverse of its own kernel's; the values are the medians.  The
    details line keeps the unscaled figures beside them.
    """
    rates = [op.requests_per_s for op in timed]
    before = [kernels[op] for op in timed]
    around = [(a + b) / 2 for a, b in zip(before, before[1:] + [closing])]
    outcome.details["host"] = {
        "kernel_s": before + [closing],
        "rates": rates,
        "requests_per_s": median(rates),
        "setup_s": median([seconds for seconds, _ in setups]),
    }
    return {
        "requests_per_s": median(
            [rate * kernel / REFERENCE_S for rate, kernel in zip(rates, around)]
        ),
        "setup_s": median(
            [seconds * REFERENCE_S / kernel for seconds, kernel in setups]
        ),
    }


def repeat_timed(attempt, args, probe) -> tuple[list, list]:
    """Call ``attempt`` for the run's time budget.

    ``attempt`` returns the operations it completed.  ``probe`` (``None``
    in a traced run) measures one set-up; the :data:`SETUP_REPEATS`
    probes go one before each operation, so a burst of load on the host
    cannot skew them all.  A traced run spends half its budget here and
    the rest profiling.  At least :data:`MIN_TIMED_OPS` operations are
    tried past the budget when too few succeeded, so a short budget
    still gives a median.  Otherwise no step (a probe and an operation)
    starts that would end more than half a step past the budget, as
    long as the last one took, so a run does not overshoot it on
    average.  Returns the timed operations and the set-up times.
    """
    budget = args.seconds / 2 if args.trace else args.seconds
    timed, setups, tries, step = [], [], 0, 0.0
    start = time.monotonic()
    while time.monotonic() - start + step / 2 < budget or (
        len(timed) < MIN_TIMED_OPS and tries < 2 * MIN_TIMED_OPS
    ):
        began = time.monotonic()
        if probe is not None and len(setups) < SETUP_REPEATS:
            setups.append(probe())
        tries += 1
        timed += attempt()
        step = time.monotonic() - began
    while probe is not None and len(setups) < SETUP_REPEATS:
        setups.append(probe())
    return timed, setups


def layer_of(filename: str, repro_dir: str, stdlib_dirs: tuple) -> str:
    """The layer a profiled code object's file belongs to."""
    if filename.startswith(repro_dir):
        package = filename[len(repro_dir):].split(os.sep)[0]
        package = package.removesuffix(".py")
        return package if package in LAYERS else "other"
    if filename == "~" or filename.startswith("<frozen"):
        return "stdlib"
    if filename.startswith(stdlib_dirs) and "-packages" not in filename:
        return "stdlib"
    return "other"


def layer_shares(profiler: cProfile.Profile) -> dict:
    """Self time grouped by ``src/repro/<pkg>``, as shares of the total."""
    repro_dir = str(SRC / "repro") + os.sep
    paths = sysconfig.get_paths()
    stdlib_dirs = tuple({paths["stdlib"], paths["platstdlib"]})
    totals = dict.fromkeys(LAYERS + ("stdlib", "other"), 0.0)
    for (filename, _, _), stat in pstats.Stats(profiler).stats.items():
        totals[layer_of(filename, repro_dir, stdlib_dirs)] += stat[2]
    whole = sum(totals.values()) or 1.0
    return {f"{layer}.self_share": t / whole for layer, t in totals.items()}


def peak_rss_mb(children: bool) -> float:
    """Maximum resident set size in MB (``ru_maxrss`` is in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def reference_digest(args) -> str | None:
    """The stored output digest for this workload and seed, if shipped."""
    if args.scale != 1.0:
        return None
    stored = json.loads(REFERENCE.read_text())
    return stored.get(args.workload, {}).get(str(args.seed))


def environment() -> dict:
    """The facts a result depends on besides the code."""
    from repro.config import resolve_backend

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "default_backend": resolve_backend(None),
        "platform": platform.platform(),
    }


def check_digests(ops, reference, outcome: Outcome, per_op: int) -> list:
    """Fail every operation whose digest differs from the expected one.

    The expected digest is the stored reference when one ships for this
    seed, else the first operation's, so repetitions must agree.
    Returns the operations that passed.
    """
    if not ops:
        outcome.problems.append("no operation completed")
        return []
    expected = reference or ops[0].digest
    passed = [op for op in ops if op.digest == expected]
    outcome.failed += per_op * (len(ops) - len(passed))
    if len(passed) < len(ops):
        outcome.problems.append(
            f"{len(ops) - len(passed)} operation(s) gave another digest"
        )
    outcome.details["digest"] = ops[0].digest
    outcome.details["reference"] = (
        "absent" if reference is None
        else "match" if reference == ops[0].digest else "mismatch"
    )
    return passed


def run_single(args) -> Outcome:
    """A single-run workload: repeated ``run_benchmark`` calls."""
    outcome = Outcome()
    config = bench_config(args.workload, args.seed, args.scale)
    ops, kernels = [], {}

    def attempt(profiler=None):
        gc.collect()
        outcome.attempted += 1
        kernel = None if args.trace else kernel_seconds()
        try:
            op = run_operation(config, profiler)
        except Exception:
            outcome.failed += 1
            traceback.print_exc()
            return []
        ops.append(op)
        kernels[op] = kernel
        return [op]

    # Warm-up: lazy imports and allocator growth, checked but not timed.
    attempt()
    probe = None if args.trace else (lambda: setup_probe(args, None))
    timed, setups = repeat_timed(attempt, args, probe)
    closing = None if args.trace else kernel_seconds()
    profiled = []
    if args.trace:
        profiler = cProfile.Profile()
        profiled = attempt(profiler)

    passed = check_digests(ops, reference_digest(args), outcome, 1)
    timed = [op for op in timed if op in passed]
    last = passed[-1] if passed else None
    if last is not None:
        outcome.problems += run_guards(args.workload, last)
        if any(op.counts != last.counts for op in passed):
            outcome.problems.append("layer counts differ between repetitions")
        outcome.details["counts"] = last.counts

    if not args.trace:
        outcome.values = {
            "peak_rss_mb": peak_rss_mb(children=False),
            "estimate_err": (last.estimate_err or 0.0) if last else 0.0,
            **host_scaled(timed, kernels, closing, setups, outcome),
        }
        return outcome

    values = dict.fromkeys(declared_names(per_layer=True), 0)
    if last is not None:
        values.update(last.counts)
    values.update({
        "loadgen.build_testbed_s": median([op.build_s for op in timed]),
        "loadgen.start_load_s": median([op.start_load_s for op in timed]),
        "loadgen.summarize_s": median([op.summarize_s for op in timed]),
        "sim.run_s": median([op.run_s for op in timed]),
    })
    if profiled and profiled[0] in passed and timed:
        values.update(layer_shares(profiler))
        values["trace.overhead"] = (
            profiled[0].total_s / median([op.total_s for op in timed])
        )
    outcome.values = values
    return outcome


def run_campaign(args) -> Outcome:
    """``campaign_sweep``: cold ``run_spec`` calls, then a warm re-run.

    The spec and the caches live in a scratch directory inside the
    checkout, removed when the run ends.
    """
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        return campaign_runs(args, Path(work))


def campaign_runs(args, workdir: Path) -> Outcome:
    """The body of :func:`run_campaign`, writing under ``workdir``."""
    from repro.campaign.matrix import expand
    from repro.campaign.spec import load_spec

    outcome = Outcome()
    spec_path = write_spec(workdir / "campaign.json", args.seed, args.scale)
    spec = load_spec(spec_path)
    ops, kernels = [], {}
    cache_dirs = (workdir / f"cache{index}" for index in itertools.count())

    def attempt(cache_dir):
        gc.collect()
        outcome.attempted += CAMPAIGN_CELLS
        kernel = None if args.trace else kernel_seconds()
        try:
            op = campaign_operation(spec, cache_dir)
        except Exception:
            outcome.failed += CAMPAIGN_CELLS
            traceback.print_exc()
            return []
        ops.append(op)
        kernels[op] = kernel
        return [op]

    # Warm-up: lazy imports in this process, checked but not timed.
    attempt(next(cache_dirs))
    probe = None if args.trace else (lambda: setup_probe(args, spec_path))
    timed, setups = repeat_timed(
        lambda: attempt(next(cache_dirs)), args, probe
    )
    closing = None if args.trace else kernel_seconds()
    cold = ops[-1] if ops else None
    warm = None
    if cold is not None:
        # The warm re-run reads the cache the last cold run filled.
        warm = next(iter(attempt(cold.cache_dir)), None)

    passed = check_digests(
        ops, reference_digest(args), outcome, CAMPAIGN_CELLS
    )
    timed = [op for op in timed if op in passed]
    if cold is not None and warm is not None:
        outcome.problems += campaign_guards(cold, warm)
    else:
        outcome.problems.append("no cold and warm campaign pair completed")

    if not args.trace:
        outcome.values = {
            "peak_rss_mb": peak_rss_mb(children=True),
            "estimate_err": (cold.estimate_err or 0.0) if cold else 0.0,
            **host_scaled(timed, kernels, closing, setups, outcome),
        }
        return outcome

    # No profile: the cells run in pool workers, out of this process's
    # view, so the self-time shares and trace.overhead stay 0 here.
    expand_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        expand(spec)
        expand_times.append(time.perf_counter() - start)
    values = dict.fromkeys(declared_names(per_layer=True), 0)
    values["campaign.expand_s"] = statistics.median(expand_times)
    values["campaign.cells_per_s"] = median([op.cells_per_s for op in timed])
    if cold is not None and warm is not None:
        values.update({
            "campaign.executed": cold.executed,
            "campaign.deduped": cold.deduped,
            "cache.stores": cold.cache_stores,
            "cache.hits": warm.cache_hits,
            "cache.rerun_s": warm.seconds,
            "core.hint_err": cold.hint_err or 0.0,
        })
        values.update(
            {f"supervise.{k}": v for k, v in cold.supervise.items()}
        )
    outcome.values = values
    return outcome


def declared_metrics() -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_names(per_layer: bool) -> list[str]:
    section = "per_layer" if per_layer else "end_to_end"
    return [m["name"] for m in declared_metrics()[section]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Measure the program's own default backend.
    os.environ.pop("REPRO_BACKEND", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(SRC))

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared_metrics()[section]}
    if args.workload == CAMPAIGN:
        outcome = run_campaign(args)
    else:
        outcome = run_single(args)

    if set(outcome.values) != set(units):
        raise RuntimeError(
            f"measured {sorted(outcome.values)} but BENCHMARK.json "
            f"declares {sorted(units)}"
        )
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "env": environment(),
        "problems": outcome.problems,
        **outcome.details,
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
