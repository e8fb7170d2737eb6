"""The benchmark's workloads and the one operation each of them times.

Single-run workloads (``set_nagle``, ``mix_dense``, ``chaos_mixed``):
one operation is one :func:`repro.loadgen.lancet.run_benchmark` call.
The phases are timed from outside through its ``tweak`` hook: the hook
runs right after ``build_testbed`` returns, and it wraps the testbed's
``Simulator.run`` so the simulation's start and end are stamped too.

``campaign_sweep``: one operation is one cold
:func:`repro.campaign.engine.run_spec` into an empty
:class:`repro.cache.ResultCache`, with a pool of one worker per CPU.

Every call uses the program's defaults (no ``backend=``), so a change
of default shows in the numbers.  ``repro`` is imported inside the
functions, after the caller has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

SINGLE_RUN = ("set_nagle", "mix_dense", "chaos_mixed")
CAMPAIGN = "campaign_sweep"
WORKLOADS = SINGLE_RUN + (CAMPAIGN,)

SPEC_TEMPLATE = Path(__file__).with_name("campaign_sweep.json")

# Runaway guard for every simulated run: over 40x the event count of
# the largest operation at full scale, so only a stuck run trips it.
MAX_EVENTS = 20_000_000

# The nagle x autocork ablation expands to 24 cells: 6 variants (all
# four families) x 2 rates x 2 repetitions.  all_but_one and only_one
# coincide for two components, so 8 cells dedupe onto 16 executed ones.
CAMPAIGN_CELLS = 24
CAMPAIGN_EXECUTED = 16
CAMPAIGN_DEDUPED = 8


def bench_config(name: str, seed: int, scale: float = 1.0):
    """The workload's :class:`~repro.loadgen.lancet.BenchConfig`.

    ``scale`` multiplies the warm-up and measurement windows; the
    benchmark's own tests shrink runs with it.
    """
    from repro.experiments.fig4a import default_config
    from repro.experiments.fig4b import mixed_config
    from repro.faults import named_plan
    from repro.loadgen.lancet import BenchConfig
    from repro.units import msecs, usecs

    def window(warmup_ms: int, measure_ms: int) -> dict:
        return {
            "warmup_ns": round(msecs(warmup_ms) * scale),
            "measure_ns": round(msecs(measure_ms) * scale),
        }

    if name == "set_nagle":
        # Fig. 4a: homogeneous 16 KiB SETs, Nagle on, one connection,
        # counters every 10 ms (the default period).
        return replace(
            default_config(), rate_per_sec=50_000.0, nagle=True, seed=seed,
            **window(20, 60),
        )
    if name == "mix_dense":
        # Fig. 4b: 95:5 SET:GET over four connections, counters every
        # 5 us.  With Nagle on the byte estimate diverges as in Fig. 4b.
        return replace(
            mixed_config(), rate_per_sec=35_000.0, nagle=True, connections=4,
            counter_period_ns=usecs(5), seed=seed, **window(10, 50),
        )
    if name == "chaos_mixed":
        # The golden "faults_mixed" shape: loss episodes, jitter,
        # receiver stalls and exchange corruption at 15 kRPS.  The
        # estimator error swings with where the episodes fall; 600 ms
        # measured holds its seed-to-seed spread near 4%.
        return BenchConfig(
            rate_per_sec=15_000.0, fault_plan=named_plan("mixed"),
            min_rto_ns=msecs(5), seed=seed, **window(10, 600),
        )
    raise KeyError(name)


def write_spec(path: Path, seed: int, scale: float = 1.0) -> Path:
    """Write the campaign spec for ``seed`` to ``path`` and return it."""
    document = json.loads(SPEC_TEMPLATE.read_text())
    document["seed"] = seed
    base = document["base"]
    for key in ("measure_ms", "warmup_ms"):
        base[key] = max(1, round(base[key] * scale))
    path.write_text(json.dumps(document, indent=2))
    return path


def digest_text(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(obj) -> str:
    """Canonical-JSON SHA-256 of a result tree.

    The reduction of the golden-digest suite: dataclasses flattened with
    :func:`dataclasses.asdict`, sorted keys, no whitespace, ``repr`` for
    anything JSON cannot hold.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    return digest_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    )


def estimator_error(result, use_hint: bool):
    """|estimate - measured mean send latency| / measured, or ``None``.

    One point of ``repro.experiments.fig4b``'s mean absolute error:
    ``use_hint`` picks the §3.3 hint estimate over the §3.2 byte one.
    """
    measured = result.send_latency.mean_ns
    if use_hint:
        estimate = result.hint_latency_ns
    elif result.estimate is not None and result.estimate.defined:
        estimate = result.estimate.latency_ns
    else:
        estimate = None
    if estimate is None or not measured > 0:
        return None
    return abs(estimate - measured) / measured


def mean_error(results, use_hint: bool):
    """Mean :func:`estimator_error` over the results that define one."""
    errors = [estimator_error(r, use_hint) for r in results]
    errors = [e for e in errors if e is not None]
    return sum(errors) / len(errors) if errors else None


@dataclass(eq=False)
class RunOp:
    """One single-run operation reduced to numbers.

    The testbed is dropped once its counts are read, so operations do
    not pile up in memory.  ``requests`` completed inside the
    measurement window; ``counts`` holds the per-layer counts and
    simulated statistics, which repeat exactly for a given config.
    """

    digest: str
    total_s: float
    build_s: float
    start_load_s: float
    run_s: float
    summarize_s: float
    requests: int
    estimate_err: float | None
    counts: dict
    facts: dict

    @property
    def requests_per_s(self) -> float:
        """Window requests per host second, first event to RunResult."""
        return self.requests / (self.run_s + self.summarize_s)


def run_operation(config, profiler=None) -> RunOp:
    """Time one ``run_benchmark`` call and read its layers' counts.

    ``profiler`` (a :class:`cProfile.Profile`) is enabled around the
    call only.
    """
    from repro.loadgen.lancet import run_benchmark
    from repro.supervise.watchdog import Watchdog

    marks: dict = {}

    def tweak(bed) -> None:
        marks["built"] = perf_counter()
        marks["bed"] = bed
        run = bed.sim.run

        def timed_run(until=None):
            marks["run_start"] = perf_counter()
            try:
                run(until=until)
            finally:
                marks["run_end"] = perf_counter()

        bed.sim.run = timed_run
        marks["tweaked"] = perf_counter()

    watchdog = Watchdog(max_events=MAX_EVENTS)
    if profiler is not None:
        profiler.enable()
    start = perf_counter()
    try:
        result = run_benchmark(config, tweak=tweak, watchdog=watchdog)
    finally:
        end = perf_counter()
        if profiler is not None:
            profiler.disable()

    bed = marks["bed"]
    return RunOp(
        digest=result_digest(result),
        total_s=end - start,
        build_s=marks["built"] - start,
        start_load_s=marks["run_start"] - marks["tweaked"],
        run_s=marks["run_end"] - marks["run_start"],
        summarize_s=end - marks["run_end"],
        requests=result.latency.count,
        estimate_err=estimator_error(result, use_hint=False),
        counts=layer_counts(bed, result),
        facts=run_facts(bed, result),
    )


def layer_counts(bed, result) -> dict:
    """Per-layer counts of one finished run, from public attributes."""
    from repro.obs.metrics import collect_run_metrics

    counters = collect_run_metrics(bed, result).snapshot()["counters"]
    conns = bed.conns
    completed = sum(len(conn.client.records) for conn in conns)
    sockets = [s for conn in conns for s in (conn.client_sock, conn.server_sock)]
    exchanges = [
        e for conn in conns for e in (conn.client_exchange, conn.server_exchange)
    ]
    received = sum(e.states_received for e in exchanges)
    rejected = sum(e.states_rejected for e in exchanges)
    events = bed.sim.events_executed
    wire = bed.client_host.nic.tx_wire_packets + bed.server_host.nic.tx_wire_packets
    hint_err = estimator_error(result, use_hint=True)
    return {
        "sim.events": events,
        "sim.events_per_request": events / completed if completed else 0.0,
        "sim.batch.flushes": counters.get("sim.batch.flushes", 0),
        "net.wire_packets": wire,
        "net.packets_per_request": wire / completed if completed else 0.0,
        "tcp.retransmits": sum(s.retransmits for s in sockets),
        "tcp.sack_retransmits": sum(s.sack_retransmits for s in sockets),
        "core.samples": sum(conn.collector.sample_count for conn in conns),
        "core.exchange_states_sent": sum(e.states_sent for e in exchanges),
        "core.exchange_reject_ratio": rejected / received if received else 0.0,
        "core.hint_err": hint_err if hint_err is not None else 0.0,
        "faults.injected": sum(
            value for name, value in counters.items()
            if name.startswith("faults.")
        ),
        "host.server_net_util": result.server_net_util,
        "host.server_app_util": result.server_app_util,
        "apps.server_mean_batch": result.server_mean_batch,
    }


def run_facts(bed, result) -> dict:
    """What the workload guards look at."""
    config = bed.config
    get = result.per_kind.get("GET")
    return {
        "nagle": all(conn.client_sock.heuristics.nagle for conn in bed.conns),
        "estimate_defined": result.estimate is not None and result.estimate.defined,
        "gets": get.count if get is not None else 0,
        "min_samples_per_connection": min(
            conn.collector.sample_count for conn in bed.conns
        ),
        "samples_needed": config.measure_ns // config.counter_period_ns,
    }


def run_guards(name: str, op: RunOp) -> list[str]:
    """The guards a single-run workload violates (empty when it still
    reaches the layers it exists for)."""
    facts, counts = op.facts, op.counts
    problems = []
    if not facts["estimate_defined"]:
        problems.append("no defined §3.2 estimate")
    if name == "set_nagle":
        if not facts["nagle"]:
            problems.append("Nagle is off")
        if counts["tcp.retransmits"] or counts["tcp.sack_retransmits"]:
            problems.append("retransmits on a loss-free run")
    elif name == "mix_dense":
        if facts["gets"] == 0:
            problems.append("no GETs completed")
        if facts["min_samples_per_connection"] < facts["samples_needed"]:
            problems.append(
                f"{facts['min_samples_per_connection']} samples on a "
                f"connection, need {facts['samples_needed']}"
            )
    elif name == "chaos_mixed":
        if counts["tcp.retransmits"] == 0:
            problems.append("no retransmits")
        if counts["faults.injected"] == 0:
            problems.append("no injected faults")
    return problems


@dataclass(eq=False)
class CampaignOp:
    """One ``run_spec`` call reduced to numbers."""

    cache_dir: Path
    digest: str
    seconds: float
    executed: int
    deduped: int
    requests: int
    estimate_err: float | None
    hint_err: float | None
    cache_stores: int
    cache_hits: int
    supervise: dict

    @property
    def cells_per_s(self) -> float:
        """Executed cells per host second."""
        return self.executed / self.seconds

    @property
    def requests_per_s(self) -> float:
        """Window requests of the executed cells per host second."""
        return self.requests / self.seconds


@contextmanager
def recording_runners():
    """Collect every :class:`repro.parallel.ParallelRunner` built inside.

    ``run_spec`` keeps its runner to itself; the runner's public
    ``last_metrics`` holds the ``supervise.*`` counters.
    """
    import repro.parallel as parallel

    original = parallel.ParallelRunner
    runners = []

    class RecordingRunner(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    parallel.ParallelRunner = RecordingRunner
    try:
        yield runners
    finally:
        parallel.ParallelRunner = original


def campaign_operation(spec, cache_dir: Path) -> CampaignOp:
    """Run ``spec`` once against the cache in ``cache_dir``."""
    from repro.cache import ResultCache
    from repro.campaign.engine import run_spec
    from repro.supervise.watchdog import Watchdog

    cache = ResultCache(cache_dir)
    try:
        with recording_runners() as runners:
            start = perf_counter()
            run = run_spec(
                spec, workers=0, checkpoint=cache,
                watchdog=Watchdog(max_events=MAX_EVENTS),
            )
            seconds = perf_counter() - start
    finally:
        cache.close()

    supervise = runners[-1].last_metrics.snapshot()["counters"]
    # Deduped cells repeat an executed cell's config; keep one of each.
    executed_results = {result_digest(r.config): r for r in run.results}
    return CampaignOp(
        cache_dir=cache_dir,
        digest=digest_text(run.report.to_canonical()),
        seconds=seconds,
        executed=run.executed,
        deduped=run.deduped,
        requests=sum(r.latency.count for r in executed_results.values()),
        estimate_err=mean_error(run.results, use_hint=False),
        hint_err=mean_error(run.results, use_hint=True),
        cache_stores=cache.stores,
        cache_hits=cache.hits,
        supervise={
            name: supervise.get(f"supervise.{name}", 0)
            for name in ("retries", "crashes", "pool_restarts")
        },
    )


def campaign_guards(cold: CampaignOp, warm: CampaignOp) -> list[str]:
    """The guards ``campaign_sweep`` violates."""
    problems = []
    if (cold.executed, cold.deduped) != (CAMPAIGN_EXECUTED, CAMPAIGN_DEDUPED):
        problems.append(
            f"cold run executed {cold.executed} and deduped {cold.deduped} "
            f"cells, expected {CAMPAIGN_EXECUTED} and {CAMPAIGN_DEDUPED}"
        )
    if warm.executed != 0 or warm.cache_hits != CAMPAIGN_CELLS:
        problems.append(
            f"warm run executed {warm.executed} cells with "
            f"{warm.cache_hits} cache hits, expected 0 and {CAMPAIGN_CELLS}"
        )
    if warm.digest != cold.digest:
        problems.append("warm report bytes differ from the cold report")
    if cold.estimate_err is None:
        problems.append("no cell defines a §3.2 estimate")
    return problems
