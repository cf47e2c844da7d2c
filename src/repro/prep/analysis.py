"""Offline frame-drop tolerance analysis (§3 and §4.1).

For a segment and a frame ordering, the *drop curve* maps "drop the last
``k`` frames of the ordering" to the resulting segment QoE score and the
bytes the client must download (I-frame + all frame headers + payloads of
the kept frames).  From the curves we derive:

* **drop tolerance** — the largest fraction of frames that may be dropped
  while keeping the score above a target (Fig. 1a-c, Fig. 19),
* **droppable positions** — which display positions may be dropped at a
  target score (Fig. 2a),
* **the best ordering** — the one needing the fewest bytes to beat the
  score of the next-lower quality level (§4.1),
* **virtual quality levels** — (score, frames, bytes) tuples written into
  the manifest's ``ssims`` attribute (Fig. 2c/d, Listing 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from repro.prep.ranking import Ordering, build_order
from repro.qoe.model import (
    DEFAULT_PARAMS,
    QoEParams,
    decode_scores,
    decode_segment,
)
from repro.video.encoder import EncodedSegment


@dataclass(frozen=True)
class DropPoint:
    """One point of a drop curve.

    Attributes:
        dropped: number of tail frames of the ordering not downloaded.
        frames_delivered: frames whose payload is fully delivered
            (including the I-frame).
        bytes_needed: bytes the client downloads to realize this point
            (reliable bytes — I-frame plus all headers — plus the payloads
            of delivered frames).
        score: resulting segment QoE score (model SSIM).
    """

    dropped: int
    frames_delivered: int
    bytes_needed: int
    score: float


@dataclass
class DropCurve:
    """Score and byte cost as a function of tail drops under one ordering."""

    segment: EncodedSegment
    ordering: Ordering
    order: List[int]
    points: List[DropPoint]

    @property
    def num_frames(self) -> int:
        return len(self.segment.frames)

    @property
    def pristine_score(self) -> float:
        return self.points[0].score

    def tolerance(self, target_score: float) -> float:
        """Largest drop *fraction* keeping the score >= target.

        The fraction is over all frames of the segment, matching the
        x-axis of Fig. 1.  Returns 0.0 if even one drop violates the
        target (or the segment can't hit the target at all).
        """
        best = 0
        for point in self.points:
            if point.score >= target_score:
                best = max(best, point.dropped)
        return best / self.num_frames

    def max_drops(self, target_score: float) -> int:
        """Largest number of dropped frames keeping score >= target."""
        best = 0
        for point in self.points:
            if point.score >= target_score:
                best = max(best, point.dropped)
        return best

    def bytes_for_score(self, target_score: float) -> Optional[int]:
        """Smallest download achieving at least ``target_score``.

        Returns ``None`` when the target is unreachable even with the full
        segment (encoding distortion alone is too high).
        """
        candidates = [p for p in self.points if p.score >= target_score]
        if not candidates:
            return None
        return min(p.bytes_needed for p in candidates)

    def point_for_bytes(self, byte_budget: int) -> DropPoint:
        """The best point downloadable within ``byte_budget`` bytes.

        Points are monotone in bytes (more drops = fewer bytes), so this
        returns the point with the fewest drops that still fits.  If even
        the maximum-drop point exceeds the budget, that point is returned
        (the client must at least fetch the reliable part).
        """
        fitting = [p for p in self.points if p.bytes_needed <= byte_budget]
        if not fitting:
            return self.points[-1]
        return min(fitting, key=lambda p: p.dropped)

    def score_for_bytes(self, byte_budget: int) -> float:
        return self.point_for_bytes(byte_budget).score


def reliable_bytes(segment: EncodedSegment) -> int:
    """Bytes VOXEL always delivers reliably: the I-frame + all headers."""
    frames = segment.frames
    return frames.i_frame.size + sum(
        frame.header_bytes for frame in frames if frame.index != 0
    )


def _drop_grid(n_droppable: int, fine_until: int = 32, stride: int = 3) -> List[int]:
    """k values at which to evaluate a drop curve.

    Dense at the head (where ABR decisions live), strided toward full
    drop; always includes 0 and the maximum.
    """
    ks = list(range(0, min(fine_until, n_droppable) + 1))
    ks.extend(range(fine_until + stride, n_droppable, stride))
    if n_droppable not in ks:
        ks.append(n_droppable)
    return sorted(set(k for k in ks if 0 <= k <= n_droppable))


def tail_drop_masks(
    num_frames: int, order: Sequence[int], ks: Sequence[int]
) -> np.ndarray:
    """(len(ks) x num_frames) drop masks: row r drops the last ``ks[r]``
    frames of ``order``; frames outside the order (the I-frame) are kept."""
    position = np.full(num_frames, -1)
    position[list(order)] = np.arange(len(order))
    return position >= (len(order) - np.asarray(ks))[:, None]


def compute_drop_curve(
    segment: EncodedSegment,
    ordering: Ordering,
    params: QoEParams = DEFAULT_PARAMS,
    grid: Optional[Sequence[int]] = None,
    *,
    order: Optional[Sequence[int]] = None,
    scores: Optional[Sequence[float]] = None,
) -> DropCurve:
    """Evaluate the drop curve of a segment under an ordering.

    ``order`` is the ordering's frame order and ``scores`` the segment
    score after dropping its last k frames, for every k from 0 to
    ``len(order)``, when the caller has them already; by default the
    order is built and the grid is scored in one batched decode.
    """
    order = list(order) if order is not None else build_order(
        segment.frames, ordering
    )
    n_droppable = len(order)
    ks = list(grid) if grid is not None else _drop_grid(n_droppable)
    if scores is None:
        masks = tail_drop_masks(len(segment.frames), order, ks)
        grid_scores = decode_scores(segment, masks, params).tolist()
    else:
        grid_scores = [float(scores[k]) for k in ks]

    # Bytes needed = everything but the payloads of the dropped tail
    # (an order holds every frame but the I-frame).
    payloads = [frame.payload_bytes for frame in segment.frames]
    dropped_payload = [0, *accumulate(payloads[idx] for idx in reversed(order))]
    total = segment.total_bytes
    points = [
        DropPoint(
            dropped=k,
            frames_delivered=len(segment.frames) - k,
            bytes_needed=total - dropped_payload[k],
            score=score,
        )
        for k, score in zip(ks, grid_scores)
    ]
    return DropCurve(segment=segment, ordering=ordering, order=order, points=points)


def droppable_positions(
    segment: EncodedSegment,
    target_score: float,
    params: QoEParams = DEFAULT_PARAMS,
    max_score_delta: float = 0.01,
) -> List[int]:
    """Display positions whose individual drop keeps the score high.

    Fig. 2a asks: can the frame at position ``p`` be dropped from the
    segment without reducing the score by more than 0.01?  Returns the
    positions for which the answer is yes.
    """
    base = decode_segment(segment, params=params).score
    positions: List[int] = []
    for frame in segment.frames:
        if frame.index == 0:
            continue
        result = decode_segment(segment, params=params, dropped=[frame.index])
        if result.score >= base - max_score_delta and result.score >= target_score:
            positions.append(frame.index)
    return positions


@dataclass
class OrderingChoice:
    """Outcome of the best-ordering selection for one segment/quality."""

    ordering: Ordering
    curve: DropCurve
    bytes_needed: int  # to beat the lower-bound score
    lower_bound: float  # pristine score of the next-lower quality


def choose_best_ordering(
    segment: EncodedSegment,
    lower_bound: float,
    params: QoEParams = DEFAULT_PARAMS,
    orderings: Sequence[Ordering] = tuple(Ordering),
) -> OrderingChoice:
    """Pick the ordering minimizing bytes to stay above ``lower_bound``.

    Per §4.1: for quality Qn the pristine score of Qn-1 is the lower
    bound — if drops push the score below it, the client would be better
    off fetching Qn-1 outright.  The chosen ordering is the one that can
    realize a score above the bound with the fewest bytes.
    """
    best: Optional[OrderingChoice] = None
    for ordering in orderings:
        curve = compute_drop_curve(segment, ordering, params=params)
        needed = curve.bytes_for_score(lower_bound)
        if needed is None:
            # Even pristine misses the bound (rare; very low-quality rungs).
            needed = curve.points[0].bytes_needed
        choice = OrderingChoice(
            ordering=ordering, curve=curve, bytes_needed=needed,
            lower_bound=lower_bound,
        )
        if best is None or choice.bytes_needed < best.bytes_needed:
            best = choice
    assert best is not None
    return best


def virtual_levels(
    curve: DropCurve,
    lower_bound: float,
    min_score_step: float = 0.002,
) -> List[DropPoint]:
    """Distill a drop curve into manifest-ready virtual quality levels.

    Returns a monotone list of points (best score first), thinned so that
    consecutive entries differ by at least ``min_score_step`` in score,
    and truncated at the lower-bound score — below it the client should
    switch to the next real quality level instead (§3, insight 3).
    """
    usable = [p for p in curve.points if p.score >= lower_bound]
    if not usable:
        usable = [curve.points[0]]
    usable.sort(key=lambda p: (-p.score, p.bytes_needed))
    thinned: List[DropPoint] = []
    for point in usable:
        if not thinned or thinned[-1].score - point.score >= min_score_step:
            thinned.append(point)
    return thinned
