"""Tests of the benchmark itself.

Each workload runs end to end at a small size with zero failures, a flipped
verdict planted into the checker's input makes the check fail, and two runs
at one seed print identical work-done counters.  Run them by path::

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository-wide run: the tier-1 suite
has a test whose outcome depends on what ran before it in the process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import inputs, session

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "catalog_reads": session.CatalogReads(rate=60, setups=1, families=4),
    "cold_questions": session.ColdQuestions(rate=80, setups=1, families=4),
    "edit_stream": session.EditStream(rate=30, setups=2, families=3),
}

PER_LAYER = {
    "templates.convert_us", "templates.convert_calls", "templates.reduce_us",
    "templates.reduce_calls", "templates.hom_us", "templates.hom_calls",
    "templates.hom_nodes", "templates.substitute_us", "views.construction_us",
    "views.construction_calls", "perf.hom_hit_rate", "perf.reduce_hit_rate",
    "perf.construction_hit_rate", "engine.matrix_us", "engine.matrix_calls",
    "engine.classes_us", "engine.core_us", "engine.read_direct_us",
    "engine.pairs_decided", "engine.with_view_us", "engine.without_view_us",
    "engine.diff_us", "engine.decision_reuse", "service.queue_us",
    "service.admission_us", "service.dispatch_us", "service.compute_us",
    "service.overhead_us", "service.journal_us", "service.publish_us",
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_runs_end_to_end_with_zero_failures(name):
    workload = SMALL[name]
    result = asyncio.run(session.run(workload, seed=3, seconds=1, trace=False))
    assert result["problems"] == []
    assert result["attempted"] == workload.rate
    assert result["failed"] == 0
    assert result["counters"]["coalesced"] == 0
    assert len(result["setup_times_s"]) == workload.setups
    for value, _unit in result["end_to_end"].values():
        assert value > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_and_the_designed_split(name):
    result = asyncio.run(session.run(SMALL[name], seed=4, seconds=1, trace=True))
    assert result["problems"] == []
    assert set(result["per_layer"]) == PER_LAYER
    assert result["split"]["as_designed"]
    assert result["counters"]["pairs_decided"] > 0


def test_a_counter_off_its_designed_zero_is_named():
    probe = types.SimpleNamespace(totals=lambda: {"engine.matrix": {"calls": 3}})
    metrics = types.SimpleNamespace(served=10, edits=0)
    caches = {"closure.find_construction": [0, 0]}
    profile = {"catalog_pairs_decided": 0}
    split = session.work_split(
        SMALL["cold_questions"], metrics, probe, caches, caches, profile, profile
    )
    assert split["off"] == ["matrix_calls"]
    assert not split["as_designed"]


def _flip_first_verdict(setup, responses):
    for index, response in enumerate(responses):
        if isinstance(response.answer, bool):
            flipped = list(responses)
            flipped[index] = dataclasses.replace(response, answer=not response.answer)
            return flipped
    raise AssertionError("the stream has no yes/no answer to flip")


def _flip_last_edge(setup, responses):
    """Flip the last pushed verdict on a pair that survives to the end."""

    events = setup.subscribers["dominance"]
    final = set(setup.service.analyzer.names)
    for index in reversed(range(len(events))):
        delta = events[index].delta
        for (a, b), holds in delta.edges_set.items():
            if a in final and b in final:
                edges = dict(delta.edges_set)
                edges[(a, b)] = not holds
                events[index] = dataclasses.replace(
                    events[index], delta=dataclasses.replace(delta, edges_set=edges)
                )
                return responses
    raise AssertionError("no dominance delta to flip")


@pytest.mark.parametrize(
    "name, plant",
    [
        ("catalog_reads", _flip_first_verdict),
        ("cold_questions", _flip_first_verdict),
        ("edit_stream", _flip_last_edge),
    ],
)
def test_a_planted_flipped_verdict_fails_the_check(name, plant):
    workload = SMALL[name]

    async def scenario():
        traffic = workload.traffic(inputs.family_catalog(workload.families), workload.rate, 5)
        setup = await workload.setup(traffic, None)
        responses, _, _ = await session.closed_loop(setup.service, traffic.requests, traffic.keys)
        await session.close_setup(setup, keep_files=True)
        try:
            clean = workload.check(setup, traffic, responses)
            planted = workload.check(setup, traffic, plant(setup, responses))
        finally:
            session.remove_files(setup)
        return clean, planted

    clean, planted = asyncio.run(scenario())
    assert clean == []
    assert len(planted) == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_two_runs_at_one_seed_do_identical_work():
    args = ("--workload", "edit_stream", "--seed", "6", "--seconds", "1", "--trace", "0")
    outputs = [_bench(*args) for _ in range(2)]
    counters = []
    for completed in outputs:
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        counters.append([line for line in lines if line.startswith("counters ")])
    assert counters[0] and counters[0] == counters[1]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = _bench("--workload", "edit_stream", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
