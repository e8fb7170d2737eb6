"""A fixed pure-Python workload that gauges the host's current speed.

The benchmark runs on shared VMs whose speed drifts by up to 2x between
busy and quiet minutes, far more than the bounds it sets on timings.
:func:`kernel_seconds` times a small discrete-event loop written here,
independent of ``repro``: a heap of timestamped events, small objects,
counter dictionaries and sample tuples, the shapes of the simulator's
hot path.  It keeps only the latest sample per flow, so it adds
nothing to the peak memory the benchmark reports.

The runner times the kernel before every timed operation and set-up
probe, and once after the last operation.  It scales each host time by
``REFERENCE_S / kernel time`` (for an operation, the mean of the kernel
times before and after it), giving the time on a host where the kernel
takes :data:`REFERENCE_S`.  A change to ``repro`` moves the scaled
times; a change of host speed between runs mostly does not.
"""

from __future__ import annotations

import heapq
from time import perf_counter

EVENTS = 150_000
FLOWS = 64
# About the kernel's time on the quiet 2-CPU VM the bounds were set on.
REFERENCE_S = 0.15
# What one loop must return, so a broken kernel cannot pass unseen.
EXPECTED_SAMPLES = 74_977


class _Event:
    __slots__ = ("at", "kind", "flow")

    def __init__(self, at: int, kind: str, flow: "_Flow") -> None:
        self.at = at
        self.kind = kind
        self.flow = flow


class _Flow:
    def __init__(self) -> None:
        self.queued = 0
        self.counters = {"inflight": 0}
        self.sampled = 0
        self.last = None


def _loop(events: int) -> int:
    """Run ``events`` events; returns the samples taken."""
    flows = [_Flow() for _ in range(FLOWS)]
    queue = []
    sequence = 0
    state = 12345
    for flow in flows:
        heapq.heappush(queue, (0, sequence, _Event(0, "send", flow)))
        sequence += 1
    for _ in range(events):
        now, _, event = heapq.heappop(queue)
        flow = event.flow
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if event.kind == "send":
            flow.queued += 1
            flow.counters["inflight"] += 1
            following = _Event(now + state % 997 + 1, "ack", flow)
        else:
            flow.counters["inflight"] -= 1
            flow.last = (now, flow.queued, flow.counters["inflight"])
            flow.sampled += 1
            following = _Event(now + state % 331 + 1, "send", flow)
        heapq.heappush(queue, (following.at, sequence, following))
        sequence += 1
    return sum(flow.sampled for flow in flows)


def kernel_seconds() -> float:
    """Host seconds one fixed loop of :data:`EVENTS` events takes."""
    start = perf_counter()
    samples = _loop(EVENTS)
    seconds = perf_counter() - start
    if samples != EXPECTED_SAMPLES:
        raise RuntimeError(
            f"calibration loop took {samples} samples, "
            f"expected {EXPECTED_SAMPLES}"
        )
    return seconds
