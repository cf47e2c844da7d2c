"""The one campaign path under every fan-out engine.

``run_trials``, ``run_sweep``, ``run_chaos`` and ``run_fleet`` all fan
independent tasks out over workers and fold the results back in task
order.  This module holds what they share:

* :func:`run_campaign` — the fan-out itself: the checkpoint spool
  (when resuming), the supervised ``execute`` call, the strict-mode
  ``ExecutionError``, and the quarantined tasks by index
  (:attr:`MapOutcome.failed`) for the engine's degraded rows or
  missing shards.
* :func:`run_cell` — the per-task observability harness: an unmerged
  metrics scope, an optional span profiler, an optional streaming
  rollup plus causal attributor, and the task's wall time.

Task context travels in the worker itself — a closure or
``functools.partial`` built before the fan-out.  The pool forks one
process per attempt, so the child inherits the worker object (and
everything it references: prepared videos, observers, flags) from the
parent's memory at that moment, and nothing is pickled on the way in.
No module global carries a run's inputs, so concurrent or nested
campaigns cannot see each other's context.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments.execution import (
    CheckpointStore,
    ExecutionError,
    ExecutionPolicy,
    MapOutcome,
    execute,
)
from repro.obs import spans
from repro.obs.attribution import FleetAttributor
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.obs.rollup import TraceRollup


def run_campaign(
    worker: Callable,
    tasks: Sequence,
    labels: Sequence[str],
    run_key: Optional[str] = None,
    *,
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    strict: bool = True,
) -> MapOutcome:
    """Fan ``worker`` out over ``tasks``; results come back in task order.

    Args:
        worker: one task's computation, with its run context already
            bound (closure or ``functools.partial``).
        tasks: the per-task inputs, in fold order.
        labels: one human label per task ("shard 3", "cell …"); every
            failure message names its task by label.
        run_key: content identity of the run (everything that shapes
            the task list or a result); a checkpoint spool written
            under one key cannot be resumed under another.  Required
            with ``checkpoint_dir``.
        workers: worker processes; any count folds byte-identically.
        policy: supervision knobs (deadline, retry budget, backoff).
        checkpoint_dir: crash-safe spool directory; completed tasks are
            saved as they land and skipped on a re-run.
        strict: raise :class:`~repro.experiments.execution.ExecutionError`
            when a task exhausts its retry budget; otherwise the
            outcome carries ``None`` in the failed slots and the
            failures by index in :attr:`MapOutcome.failed`.
    """
    tasks = list(tasks)
    checkpoint = None
    if checkpoint_dir is not None:
        if run_key is None:
            raise ValueError("a checkpointed campaign needs a run_key")
        checkpoint = CheckpointStore(
            checkpoint_dir, run_key=run_key, tasks=len(tasks)
        )
    outcome = execute(
        worker, tasks, workers=workers, policy=policy, labels=labels,
        checkpoint=checkpoint,
    )
    if strict and outcome.failures:
        raise ExecutionError(outcome.failures, total=len(tasks))
    return outcome


@dataclass
class Cell:
    """What :func:`run_cell` measured around one task body."""

    result: Any
    wall_s: float
    registry: MetricsRegistry
    profiler: Optional[spans.SpanProfiler] = None
    rollup: Optional[TraceRollup] = None
    attributor: Optional[FleetAttributor] = None


def run_cell(
    body: Callable[[List[Callable]], Any],
    profile: bool = False,
    sampling: Optional[Tuple[float, int]] = None,
) -> Cell:
    """Run one task body under the per-cell observability harness.

    ``body(observers)`` runs inside its own metrics scope, which is not
    merged into the caller's (serial and forked execution then leave
    the parent's registry in the same state); it stays readable on
    :attr:`Cell.registry`.  With ``sampling = (sample_rate,
    sample_seed)`` a fresh :class:`TraceRollup` and
    :class:`FleetAttributor` are created and their ``feed`` callbacks
    handed to the body as trace observers (an empty list otherwise).
    With ``profile`` the body runs under its own
    :class:`~repro.obs.spans.SpanProfiler`, installed before the body
    builds any component (spans capture their profiler at
    construction) and finalized afterwards.
    """
    rollup = attributor = None
    observers: List[Callable] = []
    if sampling is not None:
        rate, seed = sampling
        rollup = TraceRollup(sample_rate=rate, sample_seed=seed)
        attributor = FleetAttributor()
        observers = [rollup.feed, attributor.feed]
    profiler = spans.SpanProfiler() if profile else None
    previous = spans.install(profiler) if profile else None
    t0 = perf_counter()
    try:
        with scoped_registry(merge=False) as registry:
            result = body(observers)
    finally:
        if profile:
            profiler.finalize()
            spans.install(previous)
    return Cell(
        result=result,
        wall_s=perf_counter() - t0,
        registry=registry,
        profiler=profiler,
        rollup=rollup,
        attributor=attributor,
    )


__all__ = ["Cell", "run_campaign", "run_cell"]
