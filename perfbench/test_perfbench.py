"""Tests of the benchmark itself: output checks, the layer trace, and the
seed-to-input mapping.  They run on a tiny 4-segment video.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.spec import ScenarioSpec  # noqa: E402
from repro.experiments.fleet import ClientGroup, FleetSpec  # noqa: E402
from repro.prep.prepare import prepare  # noqa: E402
from repro.video.content import ContentProfile  # noqa: E402
from repro.video.encoder import encode_video  # noqa: E402

TINY = ContentProfile(name="benchtiny", title="Tiny", genre="Test",
                      segments=4)

# Reached through the module so calls go through installed wrappers.
fleet = importlib.import_module("repro.experiments.fleet")
sweep = importlib.import_module("repro.experiments.sweep")


@pytest.fixture(scope="module")
def out_dir():
    return workloads.out_dir_for(HERE.parent)


@pytest.fixture(scope="module")
def prepared_map():
    return {TINY.name: prepare(encode_video(TINY))}


@pytest.fixture
def trace():
    trace = layertrace.LayerTrace()
    yield trace
    trace.uninstall()


class TinyPrepare(workloads.PrepareWorkload):
    def profile(self):
        return TINY


def tiny_fleet_spec() -> FleetSpec:
    return FleetSpec(clients=4, shards=2, groups=(
        ClientGroup(abr="abr_star", video=TINY.name),
        ClientGroup(abr="bola", video=TINY.name, partially_reliable=False),
    ))


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------
def test_digest_mismatch_fails_every_segment_of_the_run(out_dir):
    wrong = TinyPrepare(0, out_dir)
    result = run.plain_run(wrong, seconds=1e-9, import_s=0.0)
    segments = run.MIN_OPS * TINY.segments * workloads.LEVELS
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == segments

    # ``probe`` and ``wrong`` stay referenced until the end: see
    # PrepareWorkload.before on why no encode may be freed mid-process.
    probe = TinyPrepare(0, out_dir)
    probe.setup()
    right = TinyPrepare(0, out_dir)
    right.pinned = probe.run_once(0)[2]
    result = run.plain_run(right, seconds=1e-9, import_s=0.0)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (segments, 0)
    assert set(result["metrics"]) == {"segments_per_s", "setup_s",
                                      "peak_rss_mb"}


def test_partition_audit_catches_uncovered_stall():
    block = {
        "stall_seconds": {"fault": 1.0, "bandwidth": 0.5},
        "stall_events": {"fault": 1, "bandwidth": 1},
        "quality_drops": {"fault": 0, "bandwidth": 2},
        "total_stall": 1.5, "total_stall_events": 2, "total_drops": 2,
    }
    assert workloads.partition_problems(block) == []
    assert workloads.partition_problems(dict(block, total_stall=1.6))
    assert workloads.partition_problems(dict(block, total_drops=3))


# ---------------------------------------------------------------------------
# Seeds.
# ---------------------------------------------------------------------------
def _without_seeds(value):
    if isinstance(value, dict):
        return {k: _without_seeds(v) for k, v in value.items()
                if k not in ("seed", "seed_salt")}
    if isinstance(value, list):
        return [_without_seeds(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name, out_dir):
    make = workloads.WORKLOADS[name]
    variants = [make(seed, out_dir) for seed in range(workloads.VARIANTS)]
    inputs = [json.dumps(w.inputs(), sort_keys=True) for w in variants]
    assert len(set(inputs)) == workloads.VARIANTS
    assert make(workloads.VARIANTS + 1, out_dir).inputs() == \
        variants[1].inputs()
    shapes = {json.dumps(_without_seeds(w.inputs()), sort_keys=True)
              for w in variants}
    assert len(shapes) == 1
    assert all(w.pinned for w in variants)


# ---------------------------------------------------------------------------
# The layer trace.
# ---------------------------------------------------------------------------
def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_parked_generator_accrues_no_self_time(trace):
    def work():
        for _ in range(3):
            _busy(0.01)
            yield 0.0
        return "done"

    timed = trace.generator(work, "toy", count="toy.resumes",
                            done="toy.done")

    def outer():
        return (yield from timed())

    trace.begin()
    first, second = outer(), outer()
    results = []
    for _ in range(4):
        for gen in (first, second):
            try:
                next(gen)
            except StopIteration as stop:
                results.append(stop.value)
        time.sleep(0.02)  # both sessions parked
    stats = trace.end()
    assert results == ["done", "done"]
    assert stats["counts"] == {"toy.resumes": 8, "toy.done": 2}
    assert 0.06 <= stats["self_s"]["toy"] < 0.075
    assert stats["self_s"]["bench"] >= 0.08


def test_traced_fleet_partitions_wall_and_counts_exactly(trace,
                                                         prepared_map):
    spec = tiny_fleet_spec()
    plain = fleet.run_fleet(spec, prepared_map=prepared_map).fleet_hash()
    layertrace.install(trace)
    assert layertrace.unpatched_bindings(trace) == []
    runs = []
    for _ in range(2):
        trace.begin()
        t0 = perf_counter()
        digest = fleet.run_fleet(spec, prepared_map=prepared_map) \
            .fleet_hash()
        stats = trace.end()
        runs.append((stats, perf_counter() - t0))
        assert digest == plain
    trace.uninstall()

    (stats, wall), (again, _) = runs
    total = sum(stats["self_s"].values())
    assert abs(total - wall) <= run.PARTITION_SLACK * wall
    counts = stats["counts"]
    assert counts == again["counts"]
    assert counts["player.sessions"] == spec.clients
    assert counts["player.segments"] == spec.clients * TINY.segments
    assert counts["experiments.execution_tasks"] == spec.shards
    for key in ("network.kernel_events", "network.link_rounds",
                "transport.rounds", "obs.trace_events",
                "abr.choose_calls", "qoe.decode_calls"):
        assert counts[key] > 0, key
    for layer in ("network.kernel", "network.link", "transport", "player",
                  "obs", "abr.choose", "qoe", "experiments"):
        assert stats["self_s"][layer] > 0, layer


def test_uninstall_restores_every_binding(trace):
    from repro.player.session import StreamingSession

    modules = [importlib.import_module(name)
               for name in layertrace.DECODE_BINDINGS]
    before = [m.decode_segment for m in modules]
    steps = StreamingSession.__dict__["steps"]
    layertrace.install(trace)
    assert all(m.decode_segment.__wrapped__ is f
               for m, f in zip(modules, before))
    assert StreamingSession.__dict__["steps"] is not steps
    trace.uninstall()
    assert [m.decode_segment for m in modules] == before
    assert StreamingSession.__dict__["steps"] is steps


def test_traced_sweep_folds_forked_workers(trace, prepared_map):
    specs = [ScenarioSpec(video=TINY.name, abr=abr, trace="verizon")
             for abr in ("abr_star", "bola", "mpc")]
    plain = sweep.rows_to_jsonl(
        sweep.run_sweep(specs, workers=2, prepared_map=prepared_map))
    layertrace.install(trace)
    trace.begin()
    rows = sweep.run_sweep(specs, workers=2, prepared_map=prepared_map)
    stats = trace.end()
    trace.uninstall()
    assert sweep.rows_to_jsonl(rows) == plain
    counts = stats["counts"]
    assert counts["experiments.execution_tasks"] == len(specs)
    assert counts["player.sessions"] == len(specs)
    assert counts["player.segments"] == len(specs) * TINY.segments
    assert counts["network.kernel_events"] > 0
    wall, busy, capacity = stats["exec"]
    assert 0 < busy <= capacity and wall > 0
