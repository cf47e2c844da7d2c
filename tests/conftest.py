"""Shared fixtures.

Heavy objects (encoded videos, prepared manifests) are session-scoped:
encoding realizes 75 x 13 x 96 frames of structure and preparation
scores about 400 drop masks per segment-level (one batched decode each,
nearly a thousand for a catalog video), so tests share one instance.
A "tiny" 6-segment video keeps tests that need preparation fast.
"""

from __future__ import annotations

import pytest

from repro.network.traces import constant_trace, verizon_trace
from repro.prep.prepare import prepare
from repro.video.content import ContentProfile
from repro.video.encoder import encode_video
from repro.video.library import get_video


TINY_PROFILE = ContentProfile(
    name="tinytest",
    title="Tiny Test Video",
    genre="Test",
    segments=6,
    motion_mean=0.4,
    motion_spread=0.2,
    complexity=0.5,
    scene_cut_rate=1.0,
    size_std_mbps=3.0,
    static_fraction=0.15,
)


@pytest.fixture(scope="session")
def tiny_video():
    """A 6-segment synthetic video at the full 13-level ladder."""
    return encode_video(TINY_PROFILE)


@pytest.fixture(scope="session")
def tiny_prepared(tiny_video):
    """The tiny video with its VOXEL-enriched manifest."""
    return prepare(tiny_video)


@pytest.fixture(scope="session")
def bbb_video():
    """The full Big Buck Bunny model (75 segments)."""
    return get_video("bbb")


@pytest.fixture(scope="session")
def segment(tiny_video):
    """A representative top-quality segment."""
    return tiny_video.segment(12, 0)


@pytest.fixture()
def const10():
    return constant_trace(10.0)


@pytest.fixture()
def verizon():
    return verizon_trace()
