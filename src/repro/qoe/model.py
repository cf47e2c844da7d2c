"""Analytic QoE model: encoding distortion + loss propagation.

This module replaces FFmpeg's ``ssim`` filter (and the VMAF/PSNR tools)
with an analytic model that maps *what was delivered* to a per-frame and
per-segment quality score.  Two distortion sources combine:

**Encoding distortion.**  The paper scores every stream against the Q12
(4K) encode as the pristine reference, so Q12 without loss is SSIM 1.0 by
construction and lower ladder rungs pay a rate-distortion penalty::

    d_enc(segment, q) = c_seg * ((R_top / R_q) ** eta - 1)

with ``c_seg`` growing with the segment's spatial/temporal activity.  The
constants are calibrated against Fig. 1d: most Q9 segments score below
0.99 while static segments stay above, and Q6 lands around 0.88-0.98.

**Loss distortion.**  A frame missing entirely is concealed by repeating
the previous decoded frame; its error grows with the *accumulated motion*
since that frame (so consecutive drops — e.g. naive tail-only drops — hurt
super-linearly, the effect behind Fig. 2b).  A partially delivered frame
is zero-padded and error-concealed, costing a fraction of a full drop.
Errors propagate through the prediction graph: a frame referencing a
damaged frame inherits ``weight * decay`` of its error, transitively.

All scores are all-component-SSIM-like values in [0, 1].  VMAF and PSNR
are monotone reparameterizations of the same underlying distortion
(:mod:`repro.qoe.metrics`), which is what makes VOXEL "QoE-metric
agnostic" in this reproduction, matching §5.2/Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.video.encoder import EncodedSegment
from repro.video.frames import SegmentFrames


@dataclass(frozen=True)
class QoEParams:
    """Tunable constants of the analytic QoE model.

    The defaults are calibrated so the §3 insights reproduce: at Q12 the
    median segment of the canonical videos tolerates 10-20 % frame drops
    at SSIM 0.99; tolerance shrinks at Q9/0.99 and recovers at Q9/0.95.
    """

    # Encoding rate-distortion: d = c_seg * ((R_top/R)**eta - 1).
    # The sub-linear exponent keeps the bottom of the ladder plausible
    # (Q0 at 144p scores ~0.8 against the 4K reference, not ~0.3) while
    # still putting most Q9 segments below 0.99 (Fig. 1d).
    rd_eta: float = 0.45
    rd_base: float = 0.002
    rd_activity: float = 0.060

    # Loss model.
    freeze_cost: float = 0.16  # distortion per unit accumulated motion
    freeze_cap: float = 0.85  # a frozen frame can't be worse than this
    corrupt_cost: float = 0.30  # full-payload corruption vs full drop
    propagation_decay: float = 0.75  # per-hop error attenuation
    max_frame_distortion: float = 0.95

    def encoding_distortion(self, activity: float, rate_ratio: float) -> float:
        """Distortion of a loss-free segment at ``R_top / R_q == rate_ratio``."""
        c_seg = self.rd_base + self.rd_activity * activity
        return c_seg * (rate_ratio ** self.rd_eta - 1.0)


DEFAULT_PARAMS = QoEParams()


class _SegmentDecodeContext:
    """Precomputed arrays for fast repeated decode simulation.

    Decoding the same segment with hundreds of different delivered-frame
    subsets dominates the offline analysis, so the reference graph is
    flattened into numpy-friendly arrays once per segment.
    """

    __slots__ = (
        "n",
        "motion",
        "payload",
        "sizes",
        "depth_groups",
        "ref_idx_padded",
        "ref_w_padded",
    )

    def __init__(self, frames: SegmentFrames):
        self.n = len(frames)
        self.motion = np.array([frame.motion for frame in frames], dtype=float)
        self.sizes = np.array([frame.size for frame in frames], dtype=np.int64)
        self.payload = np.array(
            [frame.payload_bytes for frame in frames], dtype=np.int64
        )

        # Pad each frame's reference list to a fixed width so propagation
        # can gather with one fancy-index per dependency *depth level*.
        # Padding entries point at frame 0 with weight 0 (harmless: they
        # contribute nothing).
        max_refs = max(
            (len(frame.references) for frame in frames), default=0
        )
        width = max(max_refs, 1)
        self.ref_idx_padded = np.zeros((self.n, width), dtype=np.intp)
        self.ref_w_padded = np.zeros((self.n, width), dtype=float)
        depth = np.zeros(self.n, dtype=np.intp)
        for frame in frames:
            for slot, (ref, weight) in enumerate(frame.references):
                self.ref_idx_padded[frame.index, slot] = ref
                self.ref_w_padded[frame.index, slot] = weight

        # Dependency depth = longest reference chain below the frame.
        # Frames at the same depth have no references among each other,
        # so each depth level propagates as one vectorized step.
        order = list(reversed(frames._topological_order()))  # referees first
        for idx in order:
            refs = frames[idx].references
            if refs:
                depth[idx] = 1 + max(depth[ref] for ref, _ in refs)
        # Propagation plan: one step per dependency depth, in depth order.
        # Small groups (the sequential P-frame chain) run as scalar Python
        # steps — cheaper than a vectorized gather for 1-4 frames — while
        # wide groups (the B-frame layers) run as one einsum each.
        self.depth_groups = []
        if self.n > 1 and depth.max() > 0:
            for level in range(1, int(depth.max()) + 1):
                group = np.flatnonzero(depth == level)
                if len(group) == 0:
                    continue
                if len(group) <= 4:
                    scalars = [
                        (int(idx), [(int(r), float(w))
                                    for r, w in frames[int(idx)].references])
                        for idx in group
                    ]
                    self.depth_groups.append(("s", scalars))
                else:
                    self.depth_groups.append(("v", group))


def _context(frames: SegmentFrames) -> _SegmentDecodeContext:
    """The segment's decode context, built once and kept on the segment.

    Living on the frames object ties the context's lifetime to the
    segment's, so a freed segment's context can never serve another.
    """
    ctx = getattr(frames, "_decode_context", None)
    if ctx is None:
        ctx = frames._decode_context = _SegmentDecodeContext(frames)
    return ctx


@dataclass
class DecodeResult:
    """Outcome of decoding a (possibly incomplete) segment.

    Attributes:
        frame_scores: SSIM-like score per frame in display order.
        score: segment score (mean over frames), the paper's per-segment
            "SSIM score".
        delivered_frames: number of frames whose payload arrived in full.
        distortion: mean total distortion (1 - score before clipping).
    """

    frame_scores: np.ndarray
    score: float
    delivered_frames: int
    distortion: float


def decode_segment(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    dropped: Optional[Iterable[int]] = None,
    corruption: Optional[Dict[int, float]] = None,
    rate_ratio: Optional[float] = None,
) -> DecodeResult:
    """Simulate decoding a segment with the given losses.

    Args:
        segment: the coded segment.
        params: model constants.
        dropped: display indices of frames whose payload is entirely
            missing (their headers arrived, so the decoder knows to
            conceal them by repeating the previous frame).
        corruption: map display index -> fraction of the frame payload
            lost in transit (zero-padded before decode).  Values are
            clipped to [0, 1]; a fraction of 1.0 equals a full drop.
        rate_ratio: ``R_top / R_q`` for the encoding-distortion term.  If
            omitted it is derived from the segment's quality level and
            ladder position assuming the Tab. 2 ladder.

    Returns:
        The per-frame and segment scores.
    """
    ctx = _context(segment.frames)
    n = ctx.n

    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)

    dropped_mask = np.zeros(n, dtype=bool)
    if dropped is not None:
        for idx in dropped:
            if idx == 0:
                raise ValueError("the I-frame (frame 0) can never be dropped")
            dropped_mask[idx] = True

    corrupt_frac = np.zeros(n, dtype=float)
    if corruption:
        for idx, frac in corruption.items():
            if dropped_mask[idx]:
                continue
            corrupt_frac[idx] = min(max(frac, 0.0), 1.0)

    error = _decode_errors(ctx, dropped_mask, corrupt_frac, params)
    frame_scores = np.clip(1.0 - d_enc - error, 0.0, 1.0)
    score = float(frame_scores.mean())
    return DecodeResult(
        frame_scores=frame_scores,
        score=score,
        delivered_frames=int(n - dropped_mask.sum()),
        distortion=float((d_enc + error).mean()),
    )


def _decode_errors(
    ctx: _SegmentDecodeContext,
    dropped: np.ndarray,
    corrupt_frac: np.ndarray,
    params: QoEParams,
) -> np.ndarray:
    """Per-frame decode error from drops, corruption, and propagation."""
    n = ctx.n
    error = np.zeros(n, dtype=float)
    any_drop = bool(dropped.any())

    # Freeze error for dropped frames: accumulated motion since the last
    # delivered frame (display order), capped.  Frame 0 (I) is never
    # dropped, so every run of drops has a delivered left edge; the
    # accumulated motion of a run is a cumsum reset at delivered frames.
    if any_drop:
        masked = np.where(dropped, ctx.motion, 0.0)
        running = np.cumsum(masked)
        # Value of the cumsum at the most recent delivered frame.
        at_delivered = np.where(dropped, -np.inf, running)
        base = np.maximum.accumulate(at_delivered)
        gap = running - base
        error = np.where(
            dropped,
            np.minimum(params.freeze_cost * gap, params.freeze_cap),
            0.0,
        )

    # Corruption error for zero-padded partial frames.
    if corrupt_frac.any():
        error = error + np.where(
            dropped, 0.0, corrupt_frac * (params.corrupt_cost * ctx.motion)
        )

    if not error.any():
        return error

    # Propagate through the prediction DAG, one dependency depth level at
    # a time (frames at the same depth never reference each other).
    decay = params.propagation_decay
    cap = params.max_frame_distortion
    for kind, group in ctx.depth_groups:
        if kind == "s":
            # A dropped frame keeps its freeze error; only delivered
            # frames inherit decode errors from damaged references.
            for idx, refs in group:
                if dropped[idx]:
                    continue
                inherited = 0.0
                for ref, weight in refs:
                    inherited += weight * error[ref]
                if inherited:
                    error[idx] = min(error[idx] + decay * inherited, cap)
            continue
        inherited = np.einsum(
            "ij,ij->i",
            ctx.ref_w_padded[group],
            error[ctx.ref_idx_padded[group]],
        )
        if not inherited.any():
            continue
        updated = np.minimum(error[group] + decay * inherited, cap)
        error[group] = np.where(dropped[group], error[group], updated)
    return error


def decode_segment_scalar(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    dropped: Optional[Iterable[int]] = None,
    corruption: Optional[Dict[int, float]] = None,
    rate_ratio: Optional[float] = None,
) -> DecodeResult:
    """Pure-Python reference decode, bit-identical to :func:`decode_segment`.

    Every arithmetic step mirrors the vectorized pipeline in evaluation
    order (same parenthesization, same sequential accumulation the numpy
    kernels use), so the property tests can require exact equality rather
    than tolerances.  Only the final mean reductions go through numpy —
    they are reductions over the already-compared per-frame values.
    """
    frames = segment.frames
    n = len(frames)
    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)

    dropped_set = set()
    if dropped is not None:
        for idx in dropped:
            if idx == 0:
                raise ValueError("the I-frame (frame 0) can never be dropped")
            dropped_set.add(idx)

    corrupt = [0.0] * n
    if corruption:
        for idx, frac in corruption.items():
            if idx in dropped_set:
                continue
            corrupt[idx] = min(max(frac, 0.0), 1.0)

    motion = [frame.motion for frame in frames]
    error = [0.0] * n

    # Freeze error: cumulative dropped motion since the last delivered
    # frame (the cumsum-reset the vector path expresses with a running
    # maximum over delivered checkpoints).
    if dropped_set:
        running = 0.0
        base = float("-inf")
        for i in range(n):
            if i in dropped_set:
                running = running + motion[i]
                gap = running - base
                error[i] = min(params.freeze_cost * gap, params.freeze_cap)
            elif running > base:
                base = running

    if any(corrupt):
        for i in range(n):
            if i not in dropped_set:
                error[i] = error[i] + corrupt[i] * (
                    params.corrupt_cost * motion[i]
                )

    if any(error):
        # Dependency depth per frame (longest reference chain), then one
        # propagation pass per depth level — the same plan the vector
        # path precomputes, including its small-group skip rule.
        depth = [0] * n
        for idx in reversed(frames._topological_order()):
            refs = frames[idx].references
            if refs:
                depth[idx] = 1 + max(depth[ref] for ref, _ in refs)
        decay = params.propagation_decay
        cap = params.max_frame_distortion
        for level in range(1, max(depth) + 1):
            group = [i for i in range(n) if depth[i] == level]
            if len(group) <= 4:
                for idx in group:
                    if idx in dropped_set:
                        continue
                    inherited = 0.0
                    for ref, weight in frames[idx].references:
                        inherited += weight * error[ref]
                    if inherited:
                        error[idx] = min(error[idx] + decay * inherited, cap)
                continue
            inherited_by: Dict[int, float] = {}
            for idx in group:
                total = 0.0
                for ref, weight in frames[idx].references:
                    total += weight * error[ref]
                inherited_by[idx] = total
            if not any(inherited_by.values()):
                continue
            for idx in group:
                if idx in dropped_set:
                    continue
                error[idx] = min(
                    error[idx] + decay * inherited_by[idx], cap
                )

    frame_scores = np.array(
        [min(max(1.0 - d_enc - e, 0.0), 1.0) for e in error], dtype=float
    )
    return DecodeResult(
        frame_scores=frame_scores,
        score=float(frame_scores.mean()),
        delivered_frames=n - len(dropped_set),
        distortion=float(np.array(
            [d_enc + e for e in error], dtype=float
        ).mean()),
    )


_RATE_RATIO_CACHE: Dict[int, float] = {}


def _default_rate_ratio(segment: EncodedSegment) -> float:
    """R_top / R_q from the Tab. 2 ladder for the segment's level.

    The default ladder is a module constant, so the ratio per quality
    level is computed once instead of rebuilding the ladder per decode.
    """
    ratio = _RATE_RATIO_CACHE.get(segment.quality)
    if ratio is None:
        from repro.video.ladder import default_ladder

        ladder = default_ladder()
        top = ladder[-1].avg_bitrate_mbps
        ratio = top / ladder[segment.quality].avg_bitrate_mbps
        _RATE_RATIO_CACHE[segment.quality] = ratio
    return ratio


def pristine_score(
    segment: EncodedSegment,
    params: QoEParams = DEFAULT_PARAMS,
    rate_ratio: Optional[float] = None,
) -> float:
    """Loss-free segment score — pure encoding distortion."""
    if rate_ratio is None:
        rate_ratio = _default_rate_ratio(segment)
    d_enc = params.encoding_distortion(segment.content.activity, rate_ratio)
    return float(np.clip(1.0 - d_enc, 0.0, 1.0))
