"""One benchmark run of one workload, in a fresh process.

``python3 perfbench/run.py`` starts this module with ``PYTHONHASHSEED``
pinned; it is not meant to be started by hand, though
``PYTHONHASHSEED=0 PYTHONPATH=src:. python3 -m perfbench.session
--workload edit_stream --seed 1 --seconds 2 --trace 0`` works.

A run:

1. times a fixed pure-Python loop (the machine reference);
2. makes the request stream from the seed, then runs half of its set-ups,
   each from the same cold state: the catalog, a started ``CatalogService``
   whose catalog is fully analysed, subscribers attached.  The last of them
   serves the timed phase;
3. drives the seeded request stream through the service as a closed loop:
   one asyncio client keeps ``WINDOW`` requests outstanding and never has
   two identical questions in flight, so coalescing never fires;
4. closes the service and checks every answer against
   :mod:`perfbench.oracle`, outside the timed phase;
5. runs the other half of the set-ups once nothing of the timed phase is
   left, so that ``setup_s`` samples the machine at two moments;
6. times the reference loop again and prints its work-done counters and, as
   the last line, one JSON object.

The amount of work is fixed by ``--seconds`` and the workload (``rate``
requests per nominal second), never by a clock, so two runs at one seed do
identical work.  With ``--trace 1`` the run also records per-layer spans
(:mod:`perfbench.layers`) and the service's stage spans, and reports
per-layer figures instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.catalog import Catalog
from repro.obs import Tracer, verify_trace
from repro.obs.profile import ENGINE_PROFILE
from repro.perf import cache_stats, clear_caches, interning
from repro.service import (
    CatalogService,
    DeltaJournal,
    ServiceRequest,
    recover_service,
)
from repro.service.subscriptions import EVENT_CLOSED, EVENT_DELTA, EVENT_RESYNC

from perfbench import inputs, oracle
from perfbench.layers import LayerProbe

#: Requests outstanding from the client at any time.
WINDOW = 3

#: Service executor workers.  With the event loop that makes two threads,
#: no more than the CPUs of any machine the benchmark is meant for.
JOBS = 1

#: The memo tables whose hit rates the traced run reports.
HIT_RATE_TABLES = {
    "perf.hom_hit_rate": "hom.has_homomorphism",
    "perf.reduce_hit_rate": "reduction.reduce_template",
    "perf.construction_hit_rate": "closure.find_construction",
}


def machine_reference_ms(chunks: int = 5, iterations: int = 200_000) -> float:
    """Median time of a fixed pure-Python loop: context, never a metric."""

    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- workloads
@dataclass
class Traffic:
    """A workload's request stream, made once per run from the seed."""

    #: The generated items (reads, questions or edits), for the checker.
    items: list
    requests: List[ServiceRequest]
    #: Coalescing key per request; ``None`` for edits, which never coalesce.
    keys: List[Optional[tuple]]


@dataclass
class Setup:
    """What one set-up leaves behind for the timed phase and the checks."""

    catalog: inputs.FamilyCatalog
    service: CatalogService
    tracer: Optional[Tracer] = None
    tmpdir: Optional[str] = None
    journal_path: Optional[str] = None
    subscribers: Dict[str, list] = field(default_factory=dict)
    drain_tasks: List[asyncio.Task] = field(default_factory=list)
    #: The service's stage spans, collected when it closes.
    service_spans: list = field(default_factory=list)


async def _started(catalog: inputs.FamilyCatalog, tracer, **options) -> Setup:
    """A started service over ``catalog`` with its dominance matrix decided."""

    service = CatalogService(catalog.views, jobs=JOBS, tracer=tracer, **options)
    await service.start()
    service.analyzer.dominance_matrix()
    return Setup(catalog, service, tracer)


@dataclass
class CatalogReads:
    """Warm derived reads on a family catalog of 96 views, no edits."""

    name: ClassVar[str] = "catalog_reads"
    #: Requests per nominal second of ``--seconds``.
    rate: int = 150
    #: Set-ups per run, half before the timed phase and half after the
    #: checks; ``setup_s`` is their median.
    setups: int = 4
    families: int = 24

    def traffic(self, catalog, size: int, seed: int) -> Traffic:
        reads = inputs.read_stream(catalog, size, seed)
        return Traffic(
            reads,
            [ServiceRequest(kind=r.kind, subject=r.subject, other=r.other) for r in reads],
            [r.key() for r in reads],
        )

    async def setup(self, traffic: Traffic, tracer) -> Setup:
        setup = await _started(inputs.family_catalog(self.families), tracer)
        # Warm derived reads: every view report is computed once here.
        analyzer = setup.service.analyzer
        for name in analyzer.names:
            analyzer.analyzer(name).analyze()
        return setup

    def check(self, setup: Setup, traffic: Traffic, responses) -> List[str]:
        views = setup.catalog.views
        seed_oracle = oracle.SeedOracle()
        hints = {f.padded: views[f.base] for f in setup.catalog.families}
        truth = oracle.CatalogTruth.of(views, seed_oracle, hints)
        problems: List[str] = []
        for read, response in zip(traffic.items, responses):
            if response.status != "ok":
                continue
            if read.kind == "view_report":
                got = response.answer["nonredundant_size"]
                expected = seed_oracle.nonredundant_size(views[read.subject])
            elif read.kind == "nonredundant_core":
                got, expected = tuple(response.answer), truth.core()
            elif read.kind == "dominance":
                got, expected = response.answer, truth.dominates(read.subject, read.other)
            else:
                got, expected = response.answer, truth.equivalent(read.subject, read.other)
            if got != expected:
                problems.append(f"{read.key()}: answered {got!r}, seed engine says {expected!r}")
        analyzer = setup.service.analyzer
        names = analyzer.names
        matrix = analyzer.dominance_matrix()
        wrong = [pair for pair, holds in truth.matrix().items() if matrix[pair] != holds]
        if wrong:
            problems.append(f"{len(wrong)} matrix cells differ from the seed engine, e.g. {wrong[:3]}")
        if not oracle.is_preorder(names, matrix):
            problems.append("the dominance matrix is not transitive")
        classes = analyzer.equivalence_classes()
        if not oracle.is_partition(names, classes):
            problems.append("the equivalence classes do not partition the catalog")
        if classes != truth.classes():
            problems.append("the equivalence classes differ from the seed engine's")
        problems.extend(oracle.core_problems(names, analyzer.nonredundant_core(), matrix))
        for family in setup.catalog.families:
            if not (matrix[(family.base, family.padded)] and matrix[(family.padded, family.base)]):
                problems.append(f"{family.padded} is not equivalent to {family.base}")
            if not matrix[(family.base, family.weak)]:
                problems.append(f"{family.base} does not dominate {family.weak}")
        return problems

    def direct_read_us(self, setup: Setup, traffic: Traffic) -> float:
        """The read stream answered on the analyzer itself, no service."""

        analyzer = setup.service.analyzer
        start = time.perf_counter()
        for read in traffic.items:
            if read.kind == "dominance":
                analyzer.dominance_matrix()[(read.subject, read.other)]
            elif read.kind == "equivalence":
                matrix = analyzer.dominance_matrix()
                matrix[(read.subject, read.other)] and matrix[(read.other, read.subject)]
            elif read.kind == "view_report":
                analyzer.analyzer(read.subject).analyze().to_dict()
            else:
                analyzer.nonredundant_core()
        return (time.perf_counter() - start) * 1e6 / len(traffic.items)


@dataclass
class ColdQuestions:
    """Distinct membership questions against a family catalog of 64 views."""

    name: ClassVar[str] = "cold_questions"
    rate: int = 400
    setups: int = 10
    families: int = 16

    def traffic(self, catalog, size: int, seed: int) -> Traffic:
        questions = inputs.question_stream(catalog, size, seed)
        return Traffic(
            questions,
            [ServiceRequest(kind="membership", subject=q.subject, query=q.query) for q in questions],
            [("membership", q.subject, q.query) for q in questions],
        )

    async def setup(self, traffic: Traffic, tracer) -> Setup:
        return await _started(inputs.family_catalog(self.families), tracer)

    def check(self, setup: Setup, traffic: Traffic, responses) -> List[str]:
        catalog = Catalog(schema=setup.catalog.schema, views=setup.catalog.views)
        verdicts = oracle.seed_memberships(catalog, [(q.subject, q.query) for q in traffic.items])
        problems: List[str] = []
        for question, response, expected in zip(traffic.items, responses, verdicts):
            if response.status != "ok":
                continue
            if response.answer != expected:
                problems.append(
                    f"membership {question.subject} {question.query}: answered "
                    f"{response.answer!r}, seed engine says {expected!r}"
                )
            elif question.derivable and not expected:
                problems.append(
                    f"{question.query} is derivable from {question.subject} by "
                    "construction, yet the seed engine says no"
                )
        return problems


@dataclass
class EditStream:
    """``add_view``/``drop_view`` edits on a family catalog of 32 views, with
    a journal and three delta subscribers."""

    name: ClassVar[str] = "edit_stream"
    topics: ClassVar[Tuple[str, ...]] = ("core", "equivalence_classes", "dominance")
    rate: int = 65
    setups: int = 16
    families: int = 8

    def traffic(self, catalog, size: int, seed: int) -> Traffic:
        edits = inputs.edit_stream(catalog, size, seed)
        return Traffic(
            edits,
            [ServiceRequest(kind=e.kind, subject=e.name, view=e.view) for e in edits],
            [None] * len(edits),
        )

    async def setup(self, traffic: Traffic, tracer) -> Setup:
        tmpdir = tempfile.mkdtemp(prefix="journal-", dir=scratch_dir())
        path = os.path.join(tmpdir, "journal.jsonl")
        # fsync off: the run measures the program's write path, not the
        # latency of a disk shared with other tenants.
        journal = DeltaJournal(path, fsync="off")
        setup = await _started(inputs.family_catalog(self.families), tracer, journal=journal)
        setup.tmpdir, setup.journal_path = tmpdir, path
        loop = asyncio.get_running_loop()
        for topic in self.topics:
            # A buffer above the edit count never overflows, so no push is
            # ever superseded by a resync whatever the timing.
            subscription = setup.service.subscribe([topic], buffer=len(traffic.items) + 8)
            events: list = []
            setup.subscribers[topic] = events
            setup.drain_tasks.append(loop.create_task(_drain(subscription, events)))
        return setup

    def check(self, setup: Setup, traffic: Traffic, responses) -> List[str]:
        problems: List[str] = []
        for index, response in enumerate(responses):
            if response.status == "ok" and response.answer["version"] != index + 1:
                problems.append(
                    f"edit {index} committed as version {response.answer['version']}"
                )
        # The truth at every version, from the seed engine.
        seed_oracle = oracle.SeedOracle()
        views = dict(setup.catalog.views)
        hints = {f.padded: views[f.base] for f in setup.catalog.families}
        truth = oracle.CatalogTruth.of(views, seed_oracle, hints)
        groups = dict(truth.groups)
        states = [(truth.core(), truth.classes())]
        first_matrix = truth.matrix()
        for edit in traffic.items:
            if edit.kind == "add_view":
                views[edit.name] = edit.view
                groups[edit.name] = seed_oracle.group(
                    edit.view, setup.catalog.views[edit.family_base]
                )
            else:
                del views[edit.name]
                del groups[edit.name]
            truth = oracle.CatalogTruth(groups, seed_oracle)
            states.append((truth.core(), truth.classes()))
        for topic, events in setup.subscribers.items():
            problems.extend(_fold_problems(topic, events, states, first_matrix, truth))
        analyzer = setup.service.analyzer
        if analyzer.nonredundant_core() != states[-1][0]:
            problems.append("the final core differs from the seed engine's")
        if analyzer.equivalence_classes() != states[-1][1]:
            problems.append("the final classes differ from the seed engine's")
        recovered = recover_service(setup.journal_path)
        if recovered.version != len(traffic.items):
            problems.append(f"recovery stopped at version {recovered.version}")
        if dict(recovered.views) != views:
            problems.append("the recovered catalog differs from the final catalog")
        if (recovered.state.nonredundant_core, recovered.state.equivalence_classes) != states[-1]:
            problems.append("the recovered core or classes differ from the seed engine's")
        return problems


async def _drain(subscription, events: list) -> None:
    while True:
        event = await subscription.get()
        if event.type == EVENT_CLOSED:
            return
        events.append(event)


def _fold_problems(topic, events, states, first_matrix, final_truth) -> List[str]:
    """Fold one subscriber's pushes and compare with the truth at every
    version (core and classes) and at the last (dominance)."""

    problems: List[str] = []
    core = set(states[0][0])
    classes = set(states[0][1])
    matrix = dict(first_matrix)
    by_version = {}
    for event in events:
        if event.type == EVENT_RESYNC:
            problems.append(f"{topic} subscriber was resynced at version {event.version}")
            return problems
        if event.type != EVENT_DELTA or event.version in by_version:
            problems.append(f"{topic} subscriber got a stray {event.type} event")
            return problems
        by_version[event.version] = event.delta
    for version in range(1, len(states)):
        delta = by_version.get(version)
        if delta is not None:
            core = (core - set(delta.core_left)) | set(delta.core_entered)
            classes = (classes - set(delta.classes_dissolved)) | set(delta.classes_formed)
            for pair in delta.edges_removed:
                matrix.pop(pair, None)
            matrix.update(delta.edges_set)
        if topic == "core" and tuple(sorted(core)) != states[version][0]:
            problems.append(f"folded core differs from the seed engine's at version {version}")
            break
        if topic == "equivalence_classes" and tuple(sorted(classes)) != states[version][1]:
            problems.append(f"folded classes differ from the seed engine's at version {version}")
            break
    if topic == "dominance" and matrix != final_truth.matrix():
        problems.append("the folded dominance matrix differs from the seed engine's")
    return problems


WORKLOADS = {w.name: w for w in (CatalogReads, ColdQuestions, EditStream)}


def scratch_dir() -> str:
    """A directory inside the checkout for the run's temporary files."""

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


# --------------------------------------------------------------- the client
async def closed_loop(service: CatalogService, requests, keys):
    """Submit every request, ``WINDOW`` at a time, in stream order.

    Returns ``(responses, latencies_s, wall_s)``.  A read waits while an
    identical read is in flight, so the service never coalesces.
    """

    count = len(requests)
    responses = [None] * count
    latencies = [0.0] * count
    inflight: Dict[tuple, asyncio.Event] = {}
    position = 0
    clock = time.perf_counter

    async def client() -> None:
        nonlocal position
        while position < count:
            index = position
            position += 1
            key = keys[index]
            if key is not None:
                while key in inflight:
                    await inflight[key].wait()
                done = inflight[key] = asyncio.Event()
            start = clock()
            responses[index] = await service.submit(requests[index])
            latencies[index] = clock() - start
            if key is not None:
                del inflight[key]
                done.set()

    start = clock()
    await asyncio.gather(*(client() for _ in range(WINDOW)))
    return responses, latencies, clock() - start


def nearest_rank(sorted_values: List[float], fraction: float) -> float:
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


#: Requests per segment of the tail estimate: ten of each segment's
#: requests lie beyond its 99th percentile.
TAIL_SEGMENT = 1000

#: Most segments the tail estimate uses.
TAIL_SEGMENTS = 5


def tail_p99(latencies: List[float]) -> Tuple[float, int]:
    """The median over consecutive segments of each segment's 99th
    percentile, and the fewest samples any segment has beyond its own.

    A slow spell of the machine that covers one segment moves one of the
    values, not the median; with fewer than two segments' worth of requests
    this is the plain 99th percentile.
    """

    count = max(1, min(TAIL_SEGMENTS, len(latencies) // TAIL_SEGMENT))
    bounds = [len(latencies) * i // count for i in range(count + 1)]
    values, beyond = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        segment = latencies[lo:hi]
        value = nearest_rank(sorted(segment), 0.99)
        values.append(value)
        beyond.append(sum(1 for latency in segment if latency > value))
    return statistics.median(values), min(beyond)


def _cache_counts() -> Dict[str, List[int]]:
    return {name: [s.hits, s.misses] for name, s in cache_stats().items()}


async def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    """One run; with ``trace`` the engine profiler is on for its duration."""

    if trace:
        ENGINE_PROFILE.enable()
    try:
        return await _run(workload, seed, seconds, trace)
    finally:
        ENGINE_PROFILE.disable()
        ENGINE_PROFILE.reset()


async def _run(workload, seed: int, seconds: int, trace: bool) -> dict:
    size = max(1, workload.rate * seconds)
    # The request stream is the client's, made once; set-up is what a
    # service start costs: the catalog, the started service and its analysis.
    traffic = workload.traffic(inputs.family_catalog(workload.families), size, seed)
    # Half of the set-ups run before the timed phase, the last of them
    # serving it; the other half run after the checks, once everything the
    # timed phase left behind is gone.  Every set-up starts from the same
    # cold state, and the median samples the machine at two moments.
    setup_times: List[float] = []
    result = await _measure(workload, traffic, trace, setup_times)
    for _ in range(workload.setups // 2):
        setup, seconds_taken = await timed_setup(workload, traffic, None)
        setup_times.append(seconds_taken)
        await close_setup(setup)
    result["end_to_end"]["setup_s"] = (statistics.median(setup_times), "s")
    result["setup_times_s"] = setup_times
    return result


async def _measure(workload, traffic: Traffic, trace: bool, setup_times: List[float]) -> dict:
    """The first set-ups, the timed phase and the checks; ``setup_s`` is
    filled in by the caller."""

    size = len(traffic.requests)
    setup = None
    for _ in range(workload.setups - workload.setups // 2):
        if setup is not None:
            await close_setup(setup)
            setup = None
        ENGINE_PROFILE.reset()
        tracer = Tracer(capacity=8 * size + 64) if trace else None
        setup, seconds_taken = await timed_setup(workload, traffic, tracer)
        setup_times.append(seconds_taken)
    service = setup.service
    caches_before = _cache_counts()
    profile_before = ENGINE_PROFILE.snapshot()
    probe = LayerProbe() if trace else None
    if probe is not None:
        probe.install()
    try:
        responses, latencies, wall = await closed_loop(service, traffic.requests, traffic.keys)
    finally:
        if probe is not None:
            probe.uninstall()
    rss = peak_rss_mb()
    metrics = service.metrics()
    caches_after = _cache_counts()
    profile_after = ENGINE_PROFILE.snapshot()
    # The direct-read ceiling runs on the same warm analyzer.
    direct_us = (
        workload.direct_read_us(setup, traffic)
        if trace and hasattr(workload, "direct_read_us")
        else 0.0
    )
    await close_setup(setup, keep_files=True)
    check_started = time.perf_counter()
    try:
        problems = workload.check(setup, traffic, responses)
    finally:
        remove_files(setup)
    check_s = time.perf_counter() - check_started
    count = len(responses)
    p99, beyond_p99 = tail_p99(latencies)
    counters = {
        "served": metrics.served,
        "coalesced": metrics.coalesced,
        "refused": metrics.refused,
        "edits": metrics.edits,
        # Memo hits and misses of the timed phase, then of set-up plus it.
        "cache": {
            name: [after[0] - caches_before[name][0], after[1] - caches_before[name][1]]
            for name, after in caches_after.items()
        },
        "cache_with_setup": caches_after,
    }
    if metrics.coalesced:
        problems.append(f"{metrics.coalesced} requests coalesced; the stream must not repeat in flight")
    result = {
        "problems": problems,
        "attempted": count,
        "failed": sum(1 for r in responses if r.status != "ok"),
        "counters": counters,
        "beyond_p99": beyond_p99,
        "end_to_end": {
            "throughput_rps": (count / wall, "requests/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        },
        "timed_s": wall,
        "check_s": check_s,
    }
    if trace:
        counters["hom_nodes"] = profile_after["hom_nodes"]
        counters["pairs_decided"] = profile_after["catalog_pairs_decided"]
        result["per_layer"] = per_layer(
            setup, responses, probe, metrics, direct_us,
            caches_before, caches_after, profile_before, profile_after,
        )
        tiling = verify_trace(
            responses, setup.service_spans, journal=setup.journal_path is not None
        )
        if tiling["mismatches"] or tiling["structural_problems"]:
            problems.append(
                f"stage spans do not tile latency: {tiling['mismatches'][:2]} "
                f"{tiling['structural_problems'][:2]}"
            )
        split = work_split(
            workload, metrics, probe, caches_before, caches_after, profile_before, profile_after
        )
        result["split"] = split
        if not split["as_designed"]:
            problems.append(
                f"after set-up {workload.name} should keep these at 0: "
                + ", ".join(f"{name} = {split[name]}" for name in split["off"])
            )
    return result


async def timed_setup(workload, traffic: Traffic, tracer):
    """One set-up from a cold state, and the seconds it took."""

    clear_caches()
    # A fresh process starts with an empty global interner too;
    # ``clear_caches`` leaves it alone.
    interning._GLOBAL.clear()
    gc.collect()
    start = time.perf_counter()
    setup = await workload.setup(traffic, tracer)
    return setup, time.perf_counter() - start


async def close_setup(setup: Setup, keep_files: bool = False) -> None:
    await setup.service.close()
    for task in setup.drain_tasks:
        await task
    if setup.tracer is not None:
        setup.service_spans = setup.tracer.spans()
    if not keep_files:
        remove_files(setup)


def remove_files(setup: Setup) -> None:
    """Remove the set-up's temporary directory, and its parent once empty."""

    if setup.tmpdir:
        shutil.rmtree(setup.tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(setup.tmpdir))
        except OSError:
            pass


def _mean(total: float, calls: float) -> float:
    return total / calls if calls else 0.0


def _rate(before, after, table: str) -> float:
    hits = after[table][0] - before[table][0]
    misses = after[table][1] - before[table][1]
    return _mean(hits, hits + misses)


def per_layer(setup, responses, probe, metrics, direct_us,
              caches_before, caches_after, profile_before, profile_after) -> Dict[str, tuple]:
    """Every per-layer figure of one traced run, as ``name -> (value, unit)``.

    A layer the workload never enters reads 0.
    """

    count = len(responses)
    totals = probe.totals()

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per_call(name, kind="total_us"):
        entry = totals.get(name)
        return _mean(entry[kind], entry["calls"]) if entry else 0.0

    stages: Dict[str, List[float]] = {}
    compute_of: Dict[int, float] = {}
    for span in setup.service_spans:
        stages.setdefault(span.stage, []).append(span.duration_s * 1e6)
        if span.stage == "compute":
            compute_of[span.trace_id] = span.duration_s
    overheads = [
        (r.latency_s - compute_of[r.trace_id]) * 1e6
        for r in responses
        if r.trace_id in compute_of
    ]
    out = {
        "templates.convert_us": (per_call("templates.convert", "self_us"), "us/call"),
        "templates.convert_calls": (calls("templates.convert") / count, "calls/request"),
        "templates.reduce_us": (per_call("templates.reduce"), "us/call"),
        "templates.reduce_calls": (calls("templates.reduce") / count, "calls/request"),
        "templates.hom_us": (per_call("templates.hom"), "us/call"),
        "templates.hom_calls": (calls("templates.hom") / count, "calls/request"),
        "templates.hom_nodes": (
            (profile_after["hom_nodes"] - profile_before["hom_nodes"]) / count,
            "nodes/request",
        ),
        "templates.substitute_us": (per_call("templates.substitute"), "us/call"),
        "views.construction_us": (per_call("views.construction", "self_us"), "us/call"),
        "views.construction_calls": (calls("views.construction") / count, "calls/request"),
        "engine.matrix_us": (per_call("engine.matrix"), "us/call"),
        "engine.matrix_calls": (calls("engine.matrix") / count, "calls/request"),
        "engine.classes_us": (per_call("engine.classes"), "us/call"),
        "engine.core_us": (per_call("engine.core"), "us/call"),
        "engine.read_direct_us": (direct_us, "us/request"),
        "engine.pairs_decided": (profile_after["catalog_pairs_decided"], "pairs/run"),
        "engine.with_view_us": (per_call("engine.with_view"), "us/call"),
        "engine.without_view_us": (per_call("engine.without_view"), "us/call"),
        "engine.diff_us": (per_call("engine.diff"), "us/call"),
        "engine.decision_reuse": (_mean(metrics.reuse_reused, metrics.reuse_needed), "ratio"),
        "service.admission_us": (_mean(sum(stages.get("admission", [])), count), "us/request"),
        "service.queue_us": (_mean(sum(stages.get("queue", [])), count), "us/request"),
        "service.dispatch_us": (_mean(sum(stages.get("dispatch", [])), count), "us/request"),
        "service.compute_us": (_mean(sum(stages.get("compute", [])), count), "us/request"),
        "service.overhead_us": (_mean(sum(overheads), len(overheads)), "us/request"),
        "service.journal_us": (statistics.fmean(stages["journal"]) if "journal" in stages else 0.0, "us/edit"),
        "service.publish_us": (statistics.fmean(stages["publish"]) if "publish" in stages else 0.0, "us/edit"),
    }
    for metric, table in HIT_RATE_TABLES.items():
        out[metric] = (_rate(caches_before, caches_after, table), "ratio")
    return out


def work_split(workload, metrics, probe, caches_before, caches_after,
               profile_before, profile_after) -> Dict[str, object]:
    """How the work splits after set-up, and whether it is as designed."""

    totals = probe.totals()
    pairs = profile_after["catalog_pairs_decided"] - profile_before["catalog_pairs_decided"]
    table = "closure.find_construction"
    searches = caches_after[table][1] - caches_before[table][1]
    matrix_calls = totals.get("engine.matrix", {}).get("calls", 0)
    reads = metrics.served - metrics.edits
    split = {
        "pairs_decided": pairs,
        "construction_searches": searches,
        "matrix_calls": matrix_calls,
        "reads_served": reads,
    }
    # The counters each workload is designed to keep at 0.
    designed_zero = {
        "catalog_reads": ("pairs_decided", "construction_searches"),
        "cold_questions": ("matrix_calls",),
        "edit_stream": ("reads_served",),
    }[workload.name]
    split["off"] = [name for name in designed_zero if split[name]]
    split["as_designed"] = not split["off"]
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    before = machine_reference_ms()
    result = asyncio.run(run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)))
    result["machine_ref_ms"] = {"before": before, "after": machine_reference_ms()}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
