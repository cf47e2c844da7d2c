"""The offline VOXEL preparation pipeline (§4.1).

``prepare(video)`` performs the paper's one-time, server-side analysis:
for every segment and quality level it

1. takes the pristine score of the next-lower level as the *lower bound*,
2. picks the frame ordering that needs the fewest bytes to beat that
   bound (:func:`repro.prep.analysis.choose_best_ordering`, accelerated
   here: one batched decode scores every tail-drop count of every
   ordering, then a binary search finds each ordering's tolerance),
3. evaluates the drop curve under the chosen ordering from those scores,
4. distills it into manifest quality points (virtual quality levels), and
5. emits the byte ranges for reliable (I-frame + headers) and unreliable
   (payloads, in priority order) delivery.

The result — a :class:`PreparedVideo` — bundles the enriched manifest
with the underlying encode, which downstream code uses as the server-side
ground truth.  Preparation is deterministic and cached process-wide, like
the paper's "compute once, reuse indefinitely" manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.prep.analysis import (
    DropCurve,
    compute_drop_curve,
    reliable_bytes,
    tail_drop_masks,
    virtual_levels,
)
from repro.prep.manifest import (
    QualityPoint,
    Representation,
    SegmentEntry,
    VoxelManifest,
)
from repro.prep.ranking import Ordering, build_order
from repro.qoe.model import DEFAULT_PARAMS, QoEParams, decode_scores, pristine_score
# Unused here; bound so every by-name import of the decode stays traceable.
from repro.qoe.model import decode_segment  # noqa: F401
from repro.video.encoder import EncodedSegment, EncodedVideo
from repro.video.library import get_video

DEFAULT_ORDERINGS: Tuple[Ordering, ...] = (
    Ordering.ORIGINAL,
    Ordering.UNREFERENCED_TAIL,
    Ordering.REFERENCE_RANK,
    Ordering.QOE_RANK,
)


@dataclass
class PreparedSegment:
    """Per-(segment, quality) output of the offline analysis."""

    segment: EncodedSegment
    ordering: Ordering
    curve: DropCurve
    entry: SegmentEntry


@dataclass
class PreparedVideo:
    """An encoded video plus its VOXEL-enriched manifest."""

    video: EncodedVideo
    manifest: VoxelManifest
    params: QoEParams
    prepared: List[List[PreparedSegment]]  # [quality][index]

    @property
    def name(self) -> str:
        return self.video.name

    def prepared_segment(self, quality: int, index: int) -> PreparedSegment:
        return self.prepared[quality][index]


def _max_tolerable_drops(scores: Sequence[float], bound: float) -> int:
    """Largest tail-drop count whose score still meets ``bound``.

    ``scores[k]`` is the segment score with the last k frames dropped.
    Scores are monotone non-increasing in the drop count (dropping more
    frames only ever adds error), so a binary search suffices.  Where a
    curve is not monotone the answer is whatever this search finds, so
    it must stay a binary search to keep the manifests unchanged.
    """
    if scores[0] < bound:
        return -1  # even pristine misses the bound
    lo, hi = 0, len(scores) - 1
    # Invariant: score(lo) >= bound; score(hi+1 side) unknown/short.
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if scores[mid] >= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _choose_ordering_fast(
    segment: EncodedSegment,
    bound: float,
    params: QoEParams,
    orders: Dict[Ordering, List[int]],
) -> Tuple[Ordering, np.ndarray]:
    """Ordering needing the fewest bytes to beat ``bound``, and its scores.

    Every tail-drop prefix of every order (a permutation of frames
    1..n-1) is scored in one batched decode; the returned row holds the
    chosen ordering's score for each drop count 0..n-1.
    """
    n = len(segment.frames)
    masks = np.concatenate(
        [tail_drop_masks(n, order, range(n)) for order in orders.values()]
    )
    scores = decode_scores(segment, masks, params).reshape(len(orders), n)
    payloads = [frame.payload_bytes for frame in segment.frames]
    total = segment.total_bytes
    best: Optional[Tuple[int, Ordering, np.ndarray]] = None
    for (ordering, order), row in zip(orders.items(), scores):
        drops = max(_max_tolerable_drops(row, bound), 0)
        # Everything but the payloads of the dropped tail.
        needed = total - sum(payloads[idx] for idx in order[n - 1 - drops:])
        if best is None or needed < best[0]:
            best = (needed, ordering, row)
    assert best is not None
    return best[1], best[2]


def prepare(
    video_or_name,
    params: QoEParams = DEFAULT_PARAMS,
    orderings: Sequence[Ordering] = DEFAULT_ORDERINGS,
    min_score_step: float = 0.002,
) -> PreparedVideo:
    """Run the full offline preparation for a video.

    Args:
        video_or_name: an :class:`EncodedVideo` or a catalog name.
        params: QoE model constants used for the analysis.
        orderings: candidate frame orderings (§4.1 lists three; VOXEL's
            QoE ranking is included by default).
        min_score_step: thinning granularity of the manifest's quality
            points.

    Returns:
        The :class:`PreparedVideo` with the enriched manifest.
    """
    video = (
        video_or_name
        if isinstance(video_or_name, EncodedVideo)
        else get_video(video_or_name)
    )

    representations: List[Representation] = []
    prepared: List[List[PreparedSegment]] = []
    for level in video.ladder:
        quality = level.index
        entries: List[SegmentEntry] = []
        prepared_level: List[PreparedSegment] = []
        offset = 0
        for index in range(video.num_segments):
            segment = video.segment(quality, index)
            if quality == 0:
                lower_bound = 0.0
            else:
                lower = video.segment(quality - 1, index)
                lower_bound = pristine_score(lower, params=params)

            orders = {
                ordering: build_order(segment.frames, ordering)
                for ordering in orderings
            }
            ordering, scores = _choose_ordering_fast(
                segment, lower_bound, params, orders
            )
            curve = compute_drop_curve(
                segment, ordering, params=params,
                order=orders[ordering], scores=scores,
            )
            points = virtual_levels(
                curve, lower_bound, min_score_step=min_score_step
            )
            # Scores are rounded to the manifest's serialized precision so
            # a parse -> serialize round trip is lossless.
            quality_points = tuple(
                QualityPoint(
                    score=round(p.score, 4),
                    frames=p.frames_delivered,
                    bytes=p.bytes_needed,
                )
                for p in points
            )

            frame_offsets = segment.frames.frame_offsets()
            headers = [frame.header_bytes for frame in segment.frames]
            reliable_ranges = [
                (offset + frame_offsets[0][0], offset + frame_offsets[0][1])
            ]
            reliable_ranges.extend(
                (offset + start, offset + start + header)
                for (start, _), header in zip(frame_offsets[1:], headers[1:])
            )

            unreliable_ranges = tuple(
                (
                    offset + frame_offsets[idx][0] + headers[idx],
                    offset + frame_offsets[idx][1],
                )
                for idx in curve.order
            )

            entry = SegmentEntry(
                index=index,
                quality=quality,
                media_range=(offset, offset + segment.total_bytes),
                duration=segment.duration,
                reliable_size=reliable_bytes(segment),
                ordering=ordering,
                frame_order=tuple(curve.order),
                quality_points=quality_points,
                reliable_ranges=tuple(reliable_ranges),
                unreliable_ranges=unreliable_ranges,
            )
            entries.append(entry)
            prepared_level.append(
                PreparedSegment(
                    segment=segment, ordering=ordering, curve=curve, entry=entry
                )
            )
            offset += segment.total_bytes

        representations.append(
            Representation(
                quality=quality,
                avg_bitrate_bps=level.avg_bitrate_bps,
                resolution=level.resolution,
                segments=entries,
            )
        )
        prepared.append(prepared_level)

    manifest = VoxelManifest(
        video=video.name,
        segment_duration=video.segment_duration,
        representations=representations,
    )
    return PreparedVideo(
        video=video, manifest=manifest, params=params, prepared=prepared
    )


_PREPARED_CACHE: Dict[Tuple[str, QoEParams], PreparedVideo] = {}


def get_prepared(
    name: str, params: QoEParams = DEFAULT_PARAMS
) -> PreparedVideo:
    """Prepared video from the catalog, cached process-wide."""
    key = (name.lower(), params)
    cached = _PREPARED_CACHE.get(key)
    if cached is None:
        cached = prepare(name, params=params)
        _PREPARED_CACHE[key] = cached
    return cached


def clear_prepared_cache() -> None:
    _PREPARED_CACHE.clear()
