"""Tests for the analytic QoE model and metric front-ends."""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.prep.analysis import tail_drop_masks
from repro.prep.prepare import _max_tolerable_drops
from repro.prep.ranking import Ordering, build_order
from repro.qoe.metrics import METRICS, PSNR, SSIM, VMAF, get_metric
from repro.qoe.model import (
    DEFAULT_PARAMS,
    QoEParams,
    decode_scores,
    decode_segment,
    decode_segment_scalar,
    pristine_score,
)
from repro.video.encoder import encode_video
from repro.video.frames import Frame, FrameType, SegmentFrames

from conftest import TINY_PROFILE


class TestEncodingDistortion:
    def test_top_quality_is_reference(self, tiny_video):
        for seg in tiny_video.segments[12]:
            assert pristine_score(seg) == pytest.approx(1.0)

    def test_score_monotone_in_quality(self, tiny_video):
        for index in range(tiny_video.num_segments):
            scores = [
                pristine_score(tiny_video.segment(q, index))
                for q in range(13)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_low_quality_plausible(self, tiny_video):
        for seg in tiny_video.segments[0]:
            score = pristine_score(seg)
            assert 0.55 < score < 0.97  # 144p vs 4K: bad but watchable

    def test_harder_content_scores_lower(self):
        params = DEFAULT_PARAMS
        easy = params.encoding_distortion(activity=0.1, rate_ratio=2.0)
        hard = params.encoding_distortion(activity=0.9, rate_ratio=2.0)
        assert hard > easy

    def test_distortion_zero_at_reference_rate(self):
        assert DEFAULT_PARAMS.encoding_distortion(0.5, 1.0) == pytest.approx(0.0)


class TestDecode:
    def test_no_loss_matches_pristine(self, segment):
        result = decode_segment(segment)
        assert result.score == pytest.approx(pristine_score(segment))
        assert result.delivered_frames == len(segment.frames)

    def test_dropping_reduces_score(self, segment):
        base = decode_segment(segment).score
        dropped = decode_segment(segment, dropped=[95]).score
        assert dropped < base

    def test_drop_monotonicity(self, segment):
        """More drops can never improve the score."""
        order = [95, 93, 91, 89, 87, 85, 50, 30]
        prev = decode_segment(segment).score
        for k in range(1, len(order) + 1):
            score = decode_segment(segment, dropped=order[:k]).score
            assert score <= prev + 1e-12
            prev = score

    def test_i_frame_drop_forbidden(self, segment):
        with pytest.raises(ValueError, match="I-frame"):
            decode_segment(segment, dropped=[0])

    def test_consecutive_drops_worse_than_spread(self, segment):
        """Freeze error accumulates over consecutive drops (Fig. 2b)."""
        consecutive = decode_segment(segment, dropped=[90, 91, 92, 93]).score
        spread = decode_segment(segment, dropped=[30, 50, 70, 90]).score
        # Both drop 4 frames; the consecutive run freezes longer.
        # (Individual frames differ in motion, so allow rare ties.)
        assert consecutive <= spread + 0.02

    def test_referenced_drop_worse_than_unreferenced(self, segment):
        frames = segment.frames
        referenced = [
            i for i in frames.referenced_indices()
            if i != 0 and frames[i].ftype.value == "P"
        ]
        unreferenced = frames.unreferenced_indices()
        # Compare a mid-segment P-frame against a nearby unreferenced b.
        p_idx = referenced[len(referenced) // 2]
        b_idx = min(unreferenced, key=lambda i: abs(i - p_idx))
        p_score = decode_segment(segment, dropped=[p_idx]).score
        b_score = decode_segment(segment, dropped=[b_idx]).score
        assert p_score <= b_score + 1e-9

    def test_corruption_cheaper_than_drop(self, segment):
        drop = decode_segment(segment, dropped=[60]).score
        corrupt = decode_segment(segment, corruption={60: 0.5}).score
        assert corrupt >= drop

    def test_corruption_full_fraction_close_to_drop(self, segment):
        full_corrupt = decode_segment(segment, corruption={60: 1.0}).score
        assert full_corrupt <= decode_segment(segment).score

    def test_corruption_clipped(self, segment):
        a = decode_segment(segment, corruption={60: 1.7}).score
        b = decode_segment(segment, corruption={60: 1.0}).score
        assert a == pytest.approx(b)

    def test_corruption_on_dropped_frame_ignored(self, segment):
        a = decode_segment(segment, dropped=[60], corruption={60: 0.5}).score
        b = decode_segment(segment, dropped=[60]).score
        assert a == pytest.approx(b)

    def test_frame_scores_bounded(self, segment):
        result = decode_segment(
            segment, dropped=list(range(40, 96)), corruption={10: 0.9}
        )
        assert (result.frame_scores >= 0).all()
        assert (result.frame_scores <= 1).all()

    def test_error_propagates_to_referrers(self, segment):
        """Dropping a P anchor damages frames that reference it."""
        frames = segment.frames
        anchor = 48  # a P frame (multiple of mini-GOP)
        result = decode_segment(segment, dropped=[anchor])
        inbound = frames.inbound_references()[anchor]
        assert inbound, "anchor should be referenced"
        for referrer, _ in inbound:
            assert result.frame_scores[referrer] < 1.0

    def test_custom_params(self, segment):
        harsh = QoEParams(freeze_cost=0.5)
        soft = QoEParams(freeze_cost=0.01)
        harsh_score = decode_segment(segment, params=harsh, dropped=[90]).score
        soft_score = decode_segment(segment, params=soft, dropped=[90]).score
        assert harsh_score < soft_score


class TestDecodeContextLifetime:
    def test_fresh_encodes_never_decode_against_freed_ones(self):
        # Encodes freed one after another hand their object ids to the
        # next; a decode context keyed by id alone would be served stale.
        mismatched = []
        for salt in range(1, 9):
            video = encode_video(
                dataclasses.replace(TINY_PROFILE, seed_salt=salt)
            )
            for level in video.segments:
                for segment in level:
                    n = len(segment.frames)
                    dropped = list(range(n // 2, n))
                    fast = decode_segment(segment, dropped=dropped)
                    slow = decode_segment_scalar(segment, dropped=dropped)
                    if not (
                        np.array_equal(fast.frame_scores, slow.frame_scores)
                        and fast.score == slow.score
                    ):
                        mismatched.append(
                            (salt, segment.quality, segment.index)
                        )
            del video, level, segment
            gc.collect()
        assert mismatched == []


def _per_mask_scores(segment, masks, params):
    drop_lists = (np.flatnonzero(row).tolist() for row in masks)
    return [
        decode_segment(segment, params, dropped=dropped).score
        for dropped in drop_lists
    ]


def _masks(n, drop_sets):
    masks = np.zeros((len(drop_sets), n), dtype=bool)
    for row, dropped in enumerate(drop_sets):
        masks[row, sorted(dropped)] = True
    return masks


#: Defaults, and constants where a frozen frame may exceed the
#: propagation cap (so the cap and the skip rules both matter).
_BATCH_PARAMS = (
    DEFAULT_PARAMS,
    QoEParams(freeze_cap=0.99, max_frame_distortion=0.5,
              propagation_decay=0.9, freeze_cost=0.4),
)


@st.composite
def _synthetic_segment(draw, template):
    """A random reference DAG on a real segment's content.

    Frames reference 1-3 earlier frames, so dependency-depth groups of
    any size and width appear, including the wide groups encoded
    segments never have.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    frames = [Frame(0, FrameType.I, 5000, (), 0.3)]
    for idx in range(1, n):
        refs = draw(st.lists(st.integers(0, idx - 1), min_size=1,
                             max_size=min(3, idx), unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(refs),
                                max_size=len(refs)))
        motion = draw(st.floats(0.0, 1.0))
        frames.append(Frame(idx, FrameType.P, 1000, tuple(zip(refs, weights)),
                            motion))
    segment = dataclasses.replace(
        template, frames=SegmentFrames(frames, duration=n / 24, fps=24.0)
    )
    drop_sets = draw(st.lists(st.sets(st.integers(1, n - 1)), min_size=1,
                              max_size=6))
    return segment, drop_sets


class TestBatchedDecode:
    """``decode_scores`` equals per-mask ``decode_segment``, row by row."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        drop_sets=st.lists(st.sets(st.integers(1, 95), max_size=95),
                           min_size=1, max_size=8),
        duplicate=st.booleans(),
        quality=st.integers(0, 12),
        index=st.integers(0, 5),
        params=st.sampled_from(_BATCH_PARAMS),
    )
    def test_random_drop_sets_bit_identical(
        self, tiny_video, drop_sets, duplicate, quality, index, params
    ):
        segment = tiny_video.segment(quality, index)
        if duplicate:
            drop_sets = drop_sets + drop_sets[:1]
        masks = _masks(len(segment.frames), drop_sets)
        assert decode_scores(segment, masks, params).tolist() == (
            _per_mask_scores(segment, masks, params)
        )

    @pytest.mark.parametrize("params", _BATCH_PARAMS)
    def test_edge_rows(self, tiny_video, params):
        for quality in (0, 6, 12):
            segment = tiny_video.segment(quality, 1)
            n = len(segment.frames)
            everything = set(range(1, n))
            drop_sets = [set(), everything, {1}, {n - 1}, everything, set()]
            masks = _masks(n, drop_sets)
            expected = _per_mask_scores(segment, masks, params)
            assert decode_scores(segment, masks, params).tolist() == expected
            for row in range(len(masks)):  # K = 1
                single = decode_scores(segment, masks[row:row + 1], params)
                assert single.tolist() == [expected[row]]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), params=st.sampled_from(_BATCH_PARAMS))
    def test_random_reference_graphs_bit_identical(
        self, tiny_video, data, params
    ):
        segment, drop_sets = data.draw(
            _synthetic_segment(tiny_video.segment(9, 0))
        )
        masks = _masks(len(segment.frames), drop_sets)
        expected = _per_mask_scores(segment, masks, params)
        assert decode_scores(segment, masks, params).tolist() == expected
        # The per-mask decode and its scalar reference agree here too,
        # wide (vectorized) depth groups with three-reference frames
        # included.
        assert expected == [
            decode_segment_scalar(
                segment, params, dropped=np.flatnonzero(row).tolist()
            ).score
            for row in masks
        ]

    def test_three_reference_wide_group(self, tiny_video):
        """Five frames at one depth, each predicting from three dropped
        frames: the vectorized step must add the slots left to right
        like the scalar reference (einsum reassociates them)."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            frames = [Frame(0, FrameType.I, 5000, (), 0.3)]
            frames += [Frame(i, FrameType.P, 1000, ((0, 0.9),),
                             float(rng.uniform(0.2, 1.0)))
                       for i in (1, 2, 3)]
            frames += [
                Frame(i, FrameType.B, 1000,
                      tuple((ref, float(rng.uniform(0.05, 1.0)))
                            for ref in (1, 2, 3)),
                      0.1)
                for i in range(4, 9)
            ]
            segment = dataclasses.replace(
                tiny_video.segment(9, 0),
                frames=SegmentFrames(frames, duration=9 / 24, fps=24.0),
            )
            vector = decode_segment(segment, dropped=[1, 2, 3])
            scalar = decode_segment_scalar(segment, dropped=[1, 2, 3])
            assert np.array_equal(vector.frame_scores, scalar.frame_scores)
            masks = _masks(9, [{1, 2, 3}])
            assert decode_scores(segment, masks).tolist() == [scalar.score]

    def test_rejects_i_frame_drops_and_bad_shapes(self, segment):
        n = len(segment.frames)
        masks = np.zeros((2, n), dtype=bool)
        masks[1, 0] = True
        with pytest.raises(ValueError, match="I-frame"):
            decode_scores(segment, masks)
        with pytest.raises(ValueError, match="shape"):
            decode_scores(segment, np.zeros((2, n - 1), dtype=bool))

    def test_vector_search_matches_per_probe_search(self, tiny_video):
        """The binary search over one batched score vector finds the
        same tolerable tail-drop count as a search decoding per probe."""

        def per_probe(segment, order, bound):
            n = len(order)

            def score(k):
                dropped = order[n - k:] if k else []
                return decode_segment(segment, dropped=dropped).score

            if score(0) < bound:
                return -1
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if score(mid) >= bound:
                    lo = mid
                else:
                    hi = mid - 1
            return lo

        for quality in range(tiny_video.num_levels):
            for index in range(tiny_video.num_segments):
                segment = tiny_video.segment(quality, index)
                bound = 0.0 if quality == 0 else pristine_score(
                    tiny_video.segment(quality - 1, index)
                )
                n = len(segment.frames)
                for ordering in Ordering:
                    order = build_order(segment.frames, ordering)
                    scores = decode_scores(
                        segment, tail_drop_masks(n, order, range(n))
                    )
                    for target in (bound, 0.99):
                        assert _max_tolerable_drops(scores, target) == (
                            per_probe(segment, order, target)
                        )


class TestMetrics:
    def test_registry(self):
        assert set(METRICS) == {"ssim", "vmaf", "psnr"}
        assert get_metric("SSIM") is SSIM
        with pytest.raises(KeyError):
            get_metric("mos")

    def test_ssim_identity(self):
        assert SSIM.from_ssim(0.97) == pytest.approx(0.97)

    def test_vmaf_range_and_anchors(self):
        assert VMAF.from_ssim(1.0) == pytest.approx(100.0)
        assert VMAF.from_ssim(0.0) == pytest.approx(0.0, abs=1.0)
        assert 88 <= VMAF.from_ssim(0.99) <= 97
        assert 72 <= VMAF.from_ssim(0.95) <= 88

    def test_monotone_transforms(self):
        ssims = np.linspace(0, 1, 50)
        for metric in (VMAF, PSNR):
            values = [metric.from_ssim(s) for s in ssims]
            assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_normalize_round_trip(self):
        for metric in (SSIM, VMAF, PSNR):
            assert metric.normalize(metric.from_ssim(1.0)) == pytest.approx(1.0)
            assert 0.0 <= metric.normalize(metric.from_ssim(0.5)) <= 1.0

    def test_psnr_reasonable_values(self):
        assert 35 <= PSNR.from_ssim(0.99) <= 50
        assert PSNR.from_ssim(0.5) < PSNR.from_ssim(0.9)

    def test_excellent_threshold(self):
        assert VMAF.excellent_threshold() == pytest.approx(
            VMAF.from_ssim(0.99)
        )
