"""Streaming rollups: reservoir exactness, sampling, fork determinism.

The rollup must be a pure streaming fold: percentiles byte-identical to
a full-buffer computation below the reservoir threshold, head-sampling
a pure function of (session id, seed) so any worker count selects the
same sessions, and merge() associative so per-cell rollups carried
across a fork boundary fold to the single-pass answer.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.sweep import rows_to_jsonl
from repro.obs import events as ev
from repro.obs.events import TraceEvent
from repro.obs.metrics import Histogram
from repro.obs.rollup import (
    TraceRollup,
    format_rollup,
    iter_trace_events,
    merge_rollups,
    session_sample_key,
    session_sampled,
)
from repro.obs.tracer import StreamingTracer, Tracer


def _event(seq: int, t: float, type_: str, **fields) -> TraceEvent:
    event = TraceEvent(seq=seq, t=t, type=type_, fields=fields)
    event.validate()
    return event


def _session(sid: str, stalls, start_seq: int = 0, qoe: float = 0.9):
    """A minimal synthetic session: start, stalls, end."""
    seq = start_seq
    events = [_event(seq, 0.0, ev.SESSION_START, video="tinytest",
                     abr="abr_star", num_segments=3, segment_duration=2.0,
                     buffer_capacity_s=4.0, backend="round",
                     partially_reliable=True, session_id=sid)]
    t = 1.0
    for stall in stalls:
        seq += 1
        t += stall
        events.append(_event(seq, t, ev.STALL, duration=stall, segment=0,
                             session_id=sid))
    seq += 1
    events.append(_event(seq, t + 1.0, ev.SESSION_END,
                         buf_ratio=sum(stalls) / 10.0,
                         total_stall=sum(stalls), startup_delay=0.4,
                         mean_score=qoe, segments=3, session_id=sid))
    return events


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Exactness below the reservoir threshold.
# ---------------------------------------------------------------------------
class TestPercentileExactness:
    def test_matches_full_buffer_below_reservoir(self):
        stalls = [((i * 2654435761) % 997) / 100.0 + 0.01
                  for i in range(500)]
        rollup = TraceRollup()
        for event in _session("s0", stalls):
            rollup.feed(event)
        summary = rollup.summary()
        dist = summary["stall_seconds"]
        assert dist["count"] == len(stalls)
        assert dist["sum"] == pytest.approx(sum(stalls))
        for q, key in ((50, "p50"), (90, "p90"), (99, "p99"),
                       (99.9, "p999")):
            assert dist[key] == _nearest_rank(stalls, q)
            assert rollup.percentile("stall_seconds", q) == \
                _nearest_rank(stalls, q)

    def test_histogram_state_roundtrip_preserves_percentiles(self):
        hist = Histogram()
        for i in range(300):
            hist.observe(float((i * 7919) % 101))
        clone = Histogram.from_state(hist.state_dict())
        for q in (50, 90, 99, 99.9):
            assert clone.percentile(q) == hist.percentile(q)
        assert clone.summary() == hist.summary()

    def test_unknown_distribution_rejected(self):
        with pytest.raises(KeyError):
            TraceRollup().percentile("nope", 50)


# ---------------------------------------------------------------------------
# Head-sampling: pure function of (session id, seed).
# ---------------------------------------------------------------------------
class TestSampling:
    def test_sample_key_deterministic_and_uniform(self):
        keys = [session_sample_key(f"c{i}", seed=3) for i in range(200)]
        assert keys == [session_sample_key(f"c{i}", seed=3)
                        for i in range(200)]
        assert all(0.0 <= k < 1.0 for k in keys)
        # A different seed reshuffles the sampled set.
        assert keys != [session_sample_key(f"c{i}", seed=4)
                        for i in range(200)]

    def test_rate_edges(self):
        assert session_sampled("any", 1.0)
        assert session_sampled("any", 1.5)
        assert not session_sampled("any", 0.0)
        assert not session_sampled("any", -1.0)

    def test_sampled_set_independent_of_arrival_order(self):
        ids = [f"c{i}" for i in range(64)]
        picked = {sid for sid in ids if session_sampled(sid, 0.5, seed=1)}
        reversed_picked = {
            sid for sid in reversed(ids) if session_sampled(sid, 0.5, seed=1)
        }
        assert picked == reversed_picked
        assert 0 < len(picked) < len(ids)

    def test_rollup_counts_unsampled_sessions(self):
        ids = [f"c{i}" for i in range(32)]
        rollup = TraceRollup(sample_rate=0.5, sample_seed=1)
        seq = 0
        for sid in ids:
            for event in _session(sid, [0.5], start_seq=seq):
                rollup.feed(event)
            seq += 10
        picked = {sid for sid in ids if session_sampled(sid, 0.5, seed=1)}
        assert rollup.sessions_seen == len(ids)
        assert rollup.sessions_sampled == len(picked)
        assert rollup.summary()["stall_seconds"]["count"] == len(picked)


# ---------------------------------------------------------------------------
# Merge associativity and serialization.
# ---------------------------------------------------------------------------
class TestMerge:
    def _sessions(self):
        return [
            _session("a", [0.5, 1.5], start_seq=0),
            _session("b", [2.0], start_seq=100, qoe=0.8),
            _session("c", [], start_seq=200, qoe=0.95),
        ]

    def test_merge_equals_single_pass(self):
        sessions = self._sessions()
        single = TraceRollup()
        for events in sessions:
            for event in events:
                single.feed(event)
        parts = []
        for events in sessions:
            part = TraceRollup()
            for event in events:
                part.feed(event)
            parts.append(part)
        merged = merge_rollups([p.to_dict() for p in parts])
        assert merged.summary() == single.summary()
        assert json.dumps(merged.summary(), sort_keys=True) == \
            json.dumps(single.summary(), sort_keys=True)

    def test_roundtrip_dict(self):
        rollup = TraceRollup(sample_rate=0.5, sample_seed=9)
        for event in self._sessions()[0]:
            rollup.feed(event)
        clone = TraceRollup.from_dict(rollup.to_dict())
        assert clone.summary() == rollup.summary()

    def test_merge_rejects_mismatched_sampling(self):
        left = TraceRollup(sample_rate=0.5)
        right = TraceRollup(sample_rate=1.0)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_format_rollup_renders(self):
        rollup = TraceRollup()
        for event in self._sessions()[0]:
            rollup.feed(event)
        text = format_rollup(rollup.summary())
        assert "=== fleet rollup ===" in text
        assert "jain index" in text


# ---------------------------------------------------------------------------
# Merge algebra at scale: behaviour around the reservoir threshold.
#
# The fleet merge relies on a precise contract: folding per-shard
# histograms left-to-right is byte-identical to the single-pass feed as
# long as each *shard's* distribution stays under the reservoir cap
# (its sample list is then the verbatim observation sequence, and merge
# replays it in order).  Above the cap the reservoir subsamples, so the
# algebra keeps exact counts/sums but loses byte-level associativity —
# pinned here so nobody mistakes the estimates for exact percentiles.
# ---------------------------------------------------------------------------
def _values(n: int, offset: float = 0.0):
    # A deterministic, non-monotonic stream (no RNG: reproducible).
    return [((i * 37) % 101) / 10.0 + offset for i in range(n)]


class TestMergeAlgebra:
    def test_chunked_fold_exact_when_chunks_under_reservoir(self):
        # 3 x 3000 samples: total crosses the 4096 cap, chunks do not.
        chunks = [_values(3000, offset=k) for k in range(3)]
        serial = Histogram()
        for chunk in chunks:
            for value in chunk:
                serial.observe(value)
        folded = Histogram()
        for chunk in chunks:
            part = Histogram()
            for value in chunk:
                part.observe(value)
            folded.merge(part)
        state_f, state_s = folded.state_dict(), serial.state_dict()
        # The reservoir is sample-for-sample identical: every chunk
        # replays its verbatim sequence, so the RNG replacement walk
        # matches the single pass exactly.
        assert state_f["values"] == state_s["values"]
        assert state_f["seen"] == state_s["seen"]
        assert state_f["count"] == state_s["count"]
        # Totals agree to float-fold order (merge adds chunk sums in
        # one lump; serial adds element-wise).
        assert state_f["total"] == pytest.approx(state_s["total"])
        for q in (50, 90, 99):
            assert folded.percentile(q) == serial.percentile(q)

    def test_associative_below_reservoir(self):
        def hist(values):
            h = Histogram()
            for value in values:
                h.observe(value)
            return h

        streams = [_values(500, offset=k) for k in range(3)]
        left = hist(streams[0])
        left.merge(hist(streams[1]))
        left.merge(hist(streams[2]))
        bc = hist(streams[1])
        bc.merge(hist(streams[2]))
        right = hist(streams[0])
        right.merge(bc)
        assert left.state_dict() == right.state_dict()

    def test_order_sensitive_above_reservoir(self):
        def hist(values):
            h = Histogram()
            for value in values:
                h.observe(value)
            return h

        a, b = _values(3000), _values(3000, offset=50.0)
        ab = hist(a)
        ab.merge(hist(b))
        ba = hist(b)
        ba.merge(hist(a))
        # Exact aggregates survive any order...
        assert ab.count == ba.count == 6000
        assert ab.total == pytest.approx(ba.total)
        assert ab.mean == pytest.approx(ba.mean)
        # ...but the reservoirs subsampled different suffixes, so the
        # sample sets (and thus percentile estimates) may differ.
        assert ab.state_dict()["values"] != ba.state_dict()["values"]

    def test_not_associative_above_reservoir(self):
        def hist(values):
            h = Histogram()
            for value in values:
                h.observe(value)
            return h

        streams = [_values(3000, offset=50.0 * k) for k in range(3)]
        left = hist(streams[0])
        left.merge(hist(streams[1]))
        left.merge(hist(streams[2]))
        bc = hist(streams[1])
        bc.merge(hist(streams[2]))        # overflows: bc subsamples
        right = hist(streams[0])
        right.merge(bc)                   # right sees bc's subsample
        assert left.count == right.count == 9000
        assert left.total == pytest.approx(right.total)
        assert left.state_dict()["values"] != right.state_dict()["values"]

    def test_rollup_chunked_fold_exact_over_reservoir_total(self):
        # Three shard-sized rollups whose combined stall distribution
        # crosses the reservoir cap; fold-left equals the single pass
        # because each shard stayed under it.
        shards = [
            _session(f"s{k}", [0.1] * 1500, start_seq=k * 10_000)
            for k in range(3)
        ]
        single = TraceRollup()
        for events in shards:
            for event in events:
                single.feed(event)
        folded = TraceRollup()
        for events in shards:
            part = TraceRollup()
            for event in events:
                part.feed(event)
            folded.merge(part)
        summary_f, summary_s = folded.summary(), single.summary()
        assert summary_f["stall_seconds"]["count"] > 4096
        for name in ("stall_seconds", "qoe_score", "startup_delay_s"):
            dist_f, dist_s = summary_f[name], summary_s[name]
            assert dist_f["count"] == dist_s["count"]
            # Percentiles come straight from the (identical) reservoir.
            for q in ("p50", "p90", "p99", "p999"):
                assert dist_f[q] == dist_s[q]
            # Sums/means agree to float-fold order.
            assert dist_f["sum"] == pytest.approx(dist_s["sum"])
        assert summary_f["events"] == summary_s["events"]
        assert summary_f["sessions_seen"] == summary_s["sessions_seen"]
        assert summary_f["jain_index"] == summary_s["jain_index"]


# ---------------------------------------------------------------------------
# StreamingTracer: observers without a buffer.
# ---------------------------------------------------------------------------
class TestStreamingTracer:
    def test_dispatches_without_buffering(self):
        seen = []
        tracer = StreamingTracer(observers=[seen.append])
        tracer.emit_at(0.0, ev.STALL, duration=0.5, segment=0)
        tracer.emit_at(1.0, ev.STALL, duration=0.25, segment=1)
        assert len(seen) == 2
        assert tracer.enabled
        assert len(tracer) == 0
        assert tracer.events == []

    def test_observers_see_what_a_buffering_tracer_sees(self, tiny_prepared):
        from repro.abr import make_abr
        from repro.network.traces import get_trace
        from repro.player.session import SessionConfig, StreamingSession

        def run(tracer):
            session = StreamingSession(
                tiny_prepared,
                make_abr("abr_star", prepared=tiny_prepared),
                get_trace("constant:6", seed=0),
                SessionConfig(buffer_segments=2),
                tracer=tracer,
            )
            session.run()

        buffered = Tracer()
        run(buffered)
        streamed = []
        run(StreamingTracer(observers=[streamed.append]))
        assert [e.to_json() for e in buffered.events] == \
            [e.to_json() for e in streamed]


# ---------------------------------------------------------------------------
# iter_trace_events: streaming reader with line-numbered errors.
# ---------------------------------------------------------------------------
class TestTraceReader:
    def test_reads_path_and_handle(self, tmp_path):
        events = _session("s", [0.5])
        path = tmp_path / "t.jsonl"
        path.write_text("".join(e.to_json() + "\n" for e in events))
        assert [e.to_json() for e in iter_trace_events(str(path))] == \
            [e.to_json() for e in events]

    def test_malformed_line_reports_number(self, tmp_path):
        events = _session("s", [0.5])
        path = tmp_path / "t.jsonl"
        path.write_text(events[0].to_json() + "\n" + "garbage\n")
        with pytest.raises(ev.SchemaError, match="line 2"):
            list(iter_trace_events(str(path)))

    def test_truncated_json_reports_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 0, "t": 0.0, "type": "st\n')
        with pytest.raises(ev.SchemaError, match="line 1"):
            list(iter_trace_events(str(path)))


# ---------------------------------------------------------------------------
# Fork determinism: rollup rows byte-identical at any worker count.
# ---------------------------------------------------------------------------
class TestForkDeterminism:
    @pytest.fixture(scope="class")
    def chaos_kwargs(self, tiny_prepared):
        return dict(
            profiles=["resets", "stalls"],
            seeds=[0, 1],
            base={"video": "tinytest"},
            prepared_map={"tinytest": tiny_prepared},
            rollup=True,
            sample_rate=0.5,
            sample_seed=7,
        )

    def test_workers_1_vs_4_byte_identical(self, chaos_kwargs):
        serial = run_chaos(workers=1, **chaos_kwargs)
        parallel = run_chaos(workers=4, **chaos_kwargs)
        assert rows_to_jsonl(serial) == rows_to_jsonl(parallel)
        # The sampled set itself is identical: it is a pure function of
        # (session id, seed), independent of which worker ran the cell.
        for row_s, row_p in zip(serial, parallel):
            assert row_s["rollup"] == row_p["rollup"]
            assert row_s["attribution"] == row_p["attribution"]

    def test_merged_rollup_equals_row_fold(self, chaos_kwargs):
        rows = run_chaos(workers=2, **chaos_kwargs)
        merged = merge_rollups([row["rollup"] for row in rows])
        refolded = merge_rollups([row["rollup"] for row in reversed(rows)])
        summary = merged.summary()
        assert summary["sessions_seen"] == sum(
            TraceRollup.from_dict(r["rollup"]).sessions_seen for r in rows
        )
        # Counters and totals are order-independent.
        assert refolded.summary()["events"] == summary["events"]
        assert refolded.summary()["stall_seconds"]["sum"] == \
            pytest.approx(summary["stall_seconds"]["sum"])
