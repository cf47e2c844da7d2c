"""Tests for the analytic QoE model and metric front-ends."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.qoe.metrics import METRICS, PSNR, SSIM, VMAF, get_metric
from repro.qoe.model import (
    DEFAULT_PARAMS,
    QoEParams,
    decode_segment,
    decode_segment_scalar,
    pristine_score,
)
from repro.video.encoder import encode_video

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
