"""Tests of the benchmark itself, on tiny horizons.

    python3 -m pytest perfbench/tests -q

Each workload runs at a quarter of its horizon with two seeds, untraced
and traced.  The tests check the printed metrics against
``BENCHMARK.json``, that every workload guard holds, and that the seed
changes the outputs but not the metric names.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SINGLE_RUN = [w for w in WORKLOADS if w != "campaign_sweep"]
SEEDS = (1, 2)


def invoke(workload: str, seed: int, trace: int, cwd: Path):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace), "--scale", "0.25",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(details, result): the last two lines of one run's output."""
    done = invoke(workload, seed, trace, ROOT)
    assert done.returncode == 0, done.stderr
    details, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def declared_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_match_the_declaration(workload, trace):
    _, result = bench(workload, SEEDS[0], trace)
    section = "per_layer" if trace else "end_to_end"
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared_units(section)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_guards_hold_and_nothing_fails(workload, seed):
    details, result = bench(workload, seed, 0)
    assert details["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    _, result = bench(workload, SEEDS[0], 0)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_digest_not_metric_names(workload):
    first, first_result = bench(workload, SEEDS[0], 0)
    second, second_result = bench(workload, SEEDS[1], 0)
    assert first["digest"] != second["digest"]
    assert list(first_result["metrics"]) == list(second_result["metrics"])


def test_environment_is_recorded():
    details, _ = bench(WORKLOADS[0], SEEDS[0], 0)
    env = details["env"]
    assert env["cpu_count"] >= 1
    assert env["default_backend"] in ("legacy", "python", "numpy")
    assert isinstance(env["numpy_importable"], bool)
    assert env["python"].count(".") == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unscaled_timings_are_recorded(workload):
    details, _ = bench(workload, SEEDS[0], 0)
    host = details["host"]
    assert len(host["kernel_s"]) == len(host["rates"]) + 1
    assert all(k > 0 for k in host["kernel_s"])
    assert host["requests_per_s"] > 0 and host["setup_s"] > 0


def shares(workload: str) -> dict:
    _, result = bench(workload, SEEDS[0], 1)
    return {
        name.removesuffix(".self_share"): m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".self_share")
    }


def test_traced_shares_separate_the_workloads():
    by_workload = {w: shares(w) for w in SINGLE_RUN}
    for workload, layer_shares in by_workload.items():
        assert sum(layer_shares.values()) == pytest.approx(1.0), workload
    estimator = {
        w: s["core"] + s["analysis"] for w, s in by_workload.items()
    }
    assert estimator["mix_dense"] > estimator["set_nagle"]
    assert by_workload["chaos_mixed"]["faults"] > 0
    assert by_workload["set_nagle"]["faults"] == 0
    assert by_workload["mix_dense"]["faults"] == 0
    for workload in SINGLE_RUN:
        _, result = bench(workload, SEEDS[0], 1)
        assert result["metrics"]["trace.overhead"]["value"] > 1


def test_layer_counts_reach_their_workloads():
    def counts(workload):
        _, result = bench(workload, SEEDS[0], 1)
        return {name: m["value"] for name, m in result["metrics"].items()}

    nagle, dense, chaos, sweep = (
        counts(w)
        for w in ("set_nagle", "mix_dense", "chaos_mixed", "campaign_sweep")
    )
    assert nagle["tcp.retransmits"] == nagle["tcp.sack_retransmits"] == 0
    assert chaos["tcp.retransmits"] > 0 and chaos["faults.injected"] > 0
    assert nagle["faults.injected"] == dense["faults.injected"] == 0
    assert dense["core.samples"] > nagle["core.samples"]
    assert sweep["campaign.executed"] == 16
    assert sweep["campaign.deduped"] == 8
    assert sweep["cache.hits"] == 24


def test_reference_covers_every_workload():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert sorted(reference) == sorted(WORKLOADS)
    for digests in reference.values():
        assert digests
        for digest in digests.values():
            assert re.fullmatch(r"[0-9a-f]{64}", digest)


def test_refuses_to_run_without_the_program():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = invoke(WORKLOADS[0], SEEDS[0], 0, bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
