"""The benchmark's workloads: inputs from a seed, set-up, one timed
operation, and the check of its output.

Each workload maps ``--seed`` onto one of :data:`VARIANTS` input
variants (``seed % VARIANTS``), so every seed has a pinned output digest
in ``digests.json``.  The program only ever sees the generated inputs.

* ``prepare`` — a cold ``prepare()`` of one 75-segment x 13-level video
  (975 segment-levels).  The variant is the content realization of the
  Tab. 1 ``bbb`` profile (``seed_salt``; variant 0 is the catalog video
  itself), so every seed does the same amount of analysis.  Encoding is
  set-up; each timed operation prepares its own fresh encode, made
  untimed just before it.
* ``fleet`` — ``run_fleet`` of 128 clients in 8 shards (the default
  ABR*/BOLA x QUIC*/QUIC groups on ``verizon``, ``round`` backend, one
  worker), then ``report()``, ``fleet_hash()`` and the JSON artifact.
  The variant is the fleet seed.
* ``sweep`` — ``run_sweep(workers=2, rollup=True)`` over 36
  single-client cells: six ABRs x three traces x {fault-free, chaos
  profile ``mixed`` with a 3 s request timeout and a retry budget of
  3}.  The variant is the scenario seed of every cell.

Fleet and sweep prepare the catalog ``bbb`` in set-up, as every cold
CLI run does.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.spec import ScenarioSpec
from repro.experiments.chaos import CHAOS_PROFILES
from repro.experiments.fleet import FleetSpec
from repro.video.content import get_profile

# Entry points are called through their modules, never bound here by
# name, so the traced run's wrappers (installed on the modules) see them.
_encoder = importlib.import_module("repro.video.encoder")
_prep = importlib.import_module("repro.prep.prepare")
_fleet = importlib.import_module("repro.experiments.fleet")
_sweep = importlib.import_module("repro.experiments.sweep")

VARIANTS = 4
SEGMENTS = 75
LEVELS = 13

FLEET_CLIENTS = 128
FLEET_SHARDS = 8

SWEEP_ABRS = ("abr_star", "bola", "mpc", "tput", "panda", "beta")
SWEEP_TRACES = ("verizon", "tmobile", "3g")
SWEEP_WORKERS = 2

#: Stall seconds the attribution partition may leave uncovered.
PARTITION_TOLERANCE = 1e-6

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def variant(seed: int) -> int:
    """The input variant a seed selects."""
    return seed % VARIANTS


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def _write(path: Path, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


class Workload:
    """One workload bound to one seed.

    ``setup()`` returns the seconds of each set-up it performed, and
    ``before(i)`` those of the untimed set-up operation ``i`` needs;
    ``run_once(i)`` performs timed operation ``i`` and returns its wall
    time, the segments it processed, its output digest, and the output
    problems found (an empty list when the output is correct).
    """

    name = ""
    #: Timed operations the set-up provides for (None: unlimited).
    max_ops = None

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.variant = variant(seed)
        self.out_dir = out_dir
        self.pinned = load_digests()[self.name].get(str(self.variant))

    def inputs(self) -> Dict:
        raise NotImplementedError

    def setup(self) -> List[float]:
        raise NotImplementedError

    def before(self, index: int) -> List[float]:
        return []

    def run_once(self, index: int) -> Tuple[float, int, str, List[str]]:
        raise NotImplementedError

    def _digest_problems(self, digest: str) -> List[str]:
        if digest != self.pinned:
            return [f"{self.name} digest {digest} != pinned {self.pinned}"
                    f" (variant {self.variant})"]
        return []


class PrepareWorkload(Workload):
    name = "prepare"
    #: Every encode stays alive for the run (see ``before``), so the
    #: operations per run are capped to bound memory (~36 MB each).
    max_ops = 6

    def inputs(self) -> Dict:
        return {"video": "bbb", "seed_salt": self.variant,
                "segments": SEGMENTS, "levels": LEVELS}

    def profile(self):
        return replace(get_profile("bbb"), seed_salt=self.variant)

    def setup(self) -> List[float]:
        self.videos = []
        return self.before(0)

    def before(self, index):
        """Encode a fresh copy for operation ``index``, so it starts cold.

        All copies stay alive for the whole run: repro.qoe.model caches
        decode contexts by id(frames), and a freed encode's ids can be
        reused by a new one, which then decodes against stale contexts
        and yields a different manifest.
        """
        if index < len(self.videos):
            return []
        t0 = perf_counter()
        self.videos.append(_encoder.encode_video(self.profile()))
        return [perf_counter() - t0]

    def run_once(self, index):
        video = self.videos[index]
        path = self.out_dir / "prepare-manifest.xml"
        gc.collect()
        t0 = perf_counter()
        prepared = _prep.prepare(video)
        text = prepared.manifest.serialize()
        _write(path, text)
        wall = perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        segments = video.num_segments * video.num_levels
        return wall, segments, digest, self._digest_problems(digest)


class FleetWorkload(Workload):
    name = "fleet"

    def spec(self) -> FleetSpec:
        return FleetSpec(clients=FLEET_CLIENTS, shards=FLEET_SHARDS,
                         seed=self.variant)

    def inputs(self) -> Dict:
        return self.spec().to_dict()

    def setup(self) -> List[float]:
        t0 = perf_counter()
        _prep.get_prepared("bbb")
        return [perf_counter() - t0]

    def run_once(self, index):
        spec = self.spec()
        path = self.out_dir / "fleet-report.json"
        gc.collect()
        t0 = perf_counter()
        result = _fleet.run_fleet(spec, workers=1)
        report = result.report()
        digest = result.fleet_hash()
        _write(path, json.dumps({"fleet_hash": digest, "report": report},
                                sort_keys=True))
        wall = perf_counter() - t0
        problems = self._digest_problems(digest)
        problems += partition_problems(report["attribution"])
        if report["clients"] != FLEET_CLIENTS or "degraded" in report:
            problems.append("fleet report is not whole")
        return wall, FLEET_CLIENTS * SEGMENTS, digest, problems


def partition_problems(attribution: Dict) -> List[str]:
    """Audit the stall-attribution partition law on a report block."""
    problems = []
    residual = attribution["total_stall"] - sum(
        attribution["stall_seconds"].values()
    )
    if abs(residual) > PARTITION_TOLERANCE:
        problems.append(f"attribution residual {residual:+.3e} s")
    for part, total in (("stall_events", "total_stall_events"),
                        ("quality_drops", "total_drops")):
        if sum(attribution[part].values()) != attribution[total]:
            problems.append(f"attribution {part} do not sum to {total}")
    return problems


class SweepWorkload(Workload):
    name = "sweep"

    def cells(self) -> List[Dict]:
        cells = []
        for abr in SWEEP_ABRS:
            for trace in SWEEP_TRACES:
                for faulted in (False, True):
                    cell = {"abr": abr, "trace": trace, "seed": self.variant}
                    if faulted:
                        cell.update(faults=CHAOS_PROFILES["mixed"],
                                    request_timeout_s=3.0, retry_budget=3)
                    cells.append(cell)
        return cells

    def inputs(self) -> Dict:
        return {"cells": self.cells(), "workers": SWEEP_WORKERS}

    def setup(self) -> List[float]:
        t0 = perf_counter()
        _prep.get_prepared("bbb")
        return [perf_counter() - t0]

    def run_once(self, index):
        specs = [ScenarioSpec.from_dict(cell) for cell in self.cells()]
        path = self.out_dir / "sweep-rows.jsonl"
        gc.collect()
        t0 = perf_counter()
        rows = _sweep.run_sweep(specs, workers=SWEEP_WORKERS, rollup=True)
        text = _sweep.rows_to_jsonl(rows)
        _write(path, text)
        wall = perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        problems = self._digest_problems(digest)
        degraded = sum(1 for row in rows if "degraded" in row)
        if degraded or len(rows) != len(specs):
            problems.append(
                f"{degraded} degraded rows, {len(rows)}/{len(specs)} rows"
            )
        return wall, len(specs) * SEGMENTS, digest, problems


WORKLOADS = {
    workload.name: workload
    for workload in (PrepareWorkload, FleetWorkload, SweepWorkload)
}


def out_dir_for(root: Path) -> Path:
    """Where runs write their artifacts (ignored by git)."""
    path = root / ".perfbench_out"
    os.makedirs(path, exist_ok=True)
    return path
