"""Per-layer self time and exact call counts for one traced run.

The wrappers live here, in the benchmark, not in the program: ``install``
patches the public entry points of every layer of ``repro`` and
``uninstall`` puts the originals back.  Nothing under ``src/`` knows it
is being traced.

Self time is kept with one stack per process.  Every transition (a
wrapped call starting or returning, a wrapped generator being resumed
or yielding) charges the time since the previous transition to the
layer on top of the stack.  The self times of one phase therefore sum
to the phase's wall time, and a layer only accrues time while its code
is on the stack.  Generators are timed per resume: a session parked at
``yield`` on the kernel's heap accrues nothing, so many sessions
interleaved on one kernel do not nest inside each other.

A wrapped call from inside the same layer is merged into the running
span (no extra transition), which keeps the cost of nested transport
generators and recursive prep helpers down.

Work done in forked pool workers is traced in the worker, shipped back
with the task's result and folded into the parent's totals.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

#: The layer charged with everything outside a wrapped entry point: the
#: benchmark itself (artifact writing, digests) and glue code.
ROOT = "bench"


class _TaskResult(NamedTuple):
    """A pool task's result plus what the worker's trace recorded."""

    result: object
    wall_s: float
    stats: Dict


class LayerTrace:
    """Self time per layer and exact counts, for one process tree."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: List[str] = [ROOT]
        self.mark = perf_counter()
        self.exec_wall_s = 0.0
        self.exec_busy_s = 0.0
        self.exec_capacity_s = 0.0
        self._patches: List[tuple] = []
        self._main_pid = os.getpid()
        self._exec_depth = 0

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------
    def begin(self, root: str = ROOT) -> None:
        """Start a phase: zero every total, open ``root``."""
        self.self_s.clear()
        self.counts.clear()
        self.stack[:] = [root]
        self.exec_wall_s = self.exec_busy_s = self.exec_capacity_s = 0.0
        self.mark = perf_counter()

    def end(self) -> Dict:
        """Close the phase; the stack must have unwound to its root."""
        now = perf_counter()
        self.self_s[self.stack[-1]] += now - self.mark
        self.mark = now
        if len(self.stack) != 1:
            raise RuntimeError(
                f"layer stack did not unwind: {self.stack}"
            )
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "exec": [self.exec_wall_s, self.exec_busy_s,
                     self.exec_capacity_s],
        }

    def _merge(self, stats: Dict) -> None:
        for layer, seconds in stats["self_s"].items():
            self.self_s[layer] += seconds
        self.counts.update(stats["counts"])

    # ------------------------------------------------------------------
    # Wrapper factories.
    # ------------------------------------------------------------------
    def span(self, fn: Callable, layer: str, count: Optional[str] = None,
             outer_only: bool = False) -> Callable:
        """Wrap a plain function: time it as ``layer``, count calls.

        ``outer_only`` counts a call only when it does not come from the
        same layer (a subclass ``choose`` calling ``super().choose()``
        is one decision, not two).
        """
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        trace = self

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top == layer:
                if count is not None and not outer_only:
                    counts[count] += 1
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            now = perf_counter()
            self_s[top] += now - trace.mark
            stack.append(layer)
            trace.mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer] += now - trace.mark
                stack.pop()
                trace.mark = now

        _copy_identity(wrapper, fn)
        return wrapper

    def generator(self, fn: Callable, layer: str,
                  count: Optional[str] = None,
                  done: Optional[str] = None) -> Callable:
        """Wrap a generator function: every resume is its own span.

        ``count`` counts resumes, ``done`` counts generators that ran to
        completion.
        """
        trace = self

        def wrapper(*args, **kwargs):
            return _TimedGenerator(
                fn(*args, **kwargs), trace, layer, count, done
            )

        _copy_identity(wrapper, fn)
        return wrapper

    def counter(self, fn: Callable, count: str) -> Callable:
        """Count calls without timing them (the caller keeps the time)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        _copy_identity(wrapper, fn)
        return wrapper

    def kernel_entry(self, fn: Callable, process_arg: int) -> Callable:
        """Wrap a kernel entry that takes a process: count its resumes.

        The process is handed to the kernel behind a proxy whose
        ``send`` counts one kernel event per resume; the resume's time
        belongs to whatever layer the process itself is.
        """
        counts = self.counts

        def wrapper(*args, **kwargs):
            args = list(args)
            args[process_arg] = _CountedProcess(
                args[process_arg], counts, "network.kernel_events"
            )
            return fn(*args, **kwargs)

        _copy_identity(wrapper, fn)
        return wrapper

    def execution(self, fn: Callable) -> Callable:
        """Wrap the execution pool's ``execute(worker, tasks, ...)``.

        Only the outermost call in the main process is measured: pool
        wall time, tasks, attempts, and the busy time of every task.
        Tasks run in forked workers trace themselves and return their
        totals with their result, which are unwrapped here before the
        caller sees the outcome.
        """
        trace = self
        layered = self.span(fn, "experiments.execution")

        def wrapper(worker, tasks, **kwargs):
            if os.getpid() != trace._main_pid or trace._exec_depth:
                return fn(worker, tasks, **kwargs)
            tasks = list(tasks)
            walls: List[float] = []
            # A task's own work belongs to the engine that submitted it;
            # the pool keeps only its scheduling, forking and waiting.
            engine_task = trace.span(worker, "experiments")

            def task(item):
                forked = os.getpid() != trace._main_pid
                if forked:
                    trace.begin(root="experiments")
                t0 = perf_counter()
                result = engine_task(item)
                wall = perf_counter() - t0
                if forked:
                    return _TaskResult(result, wall, trace.end())
                walls.append(wall)
                return result

            trace._exec_depth += 1
            t0 = perf_counter()
            try:
                outcome = layered(task, tasks, **kwargs)
            finally:
                wall = perf_counter() - t0
                trace._exec_depth -= 1
            results = outcome.results
            for i, result in enumerate(results):
                if isinstance(result, _TaskResult):
                    results[i] = result.result
                    walls.append(result.wall_s)
                    trace._merge(result.stats)
            trace.counts["experiments.execution_tasks"] += len(tasks)
            trace.counts["experiments.execution_attempts"] += (
                len(tasks) + outcome.retries
            )
            trace.exec_wall_s += wall
            trace.exec_busy_s += sum(walls)
            trace.exec_capacity_s += wall * max(outcome.effective_workers, 1)
            return outcome

        _copy_identity(wrapper, fn)
        return wrapper

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def patch_function(self, module: str, name: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function and every import of it.

        ``from a import f`` copies the binding at import time, so every
        loaded ``repro`` module holding the original object is patched.
        """
        original = getattr(importlib.import_module(module), name)
        wrapped = make(original)
        for _, mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls: type, name: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replace a method defined on ``cls`` itself."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, new)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _TimedGenerator:
    """A generator proxy that times every resume as one span."""

    __slots__ = ("_gen", "_trace", "_layer", "_count", "_done")

    def __init__(self, gen, trace: LayerTrace, layer: str,
                 count: Optional[str], done: Optional[str]):
        self._gen = gen
        self._trace = trace
        self._layer = layer
        self._count = count
        self._done = done

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._gen.close()

    def _resume(self, step, *args):
        trace = self._trace
        if self._count is not None:
            trace.counts[self._count] += 1
        stack = trace.stack
        top = stack[-1]
        layer = self._layer
        nested = top == layer
        if not nested:
            now = perf_counter()
            trace.self_s[top] += now - trace.mark
            stack.append(layer)
            trace.mark = now
        try:
            return step(*args)
        except StopIteration:
            if self._done is not None:
                trace.counts[self._done] += 1
            raise
        finally:
            if not nested:
                now = perf_counter()
                trace.self_s[layer] += now - trace.mark
                stack.pop()
                trace.mark = now


class _CountedProcess:
    """A kernel process proxy counting one event per resume."""

    __slots__ = ("_gen", "_counts", "_key")

    def __init__(self, gen, counts: Counter, key: str):
        self._gen = gen
        self._counts = counts
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._counts[self._key] += 1
        return self._gen.send(value)

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()


def _copy_identity(wrapper: Callable, fn: Callable) -> None:
    functools.update_wrapper(wrapper, fn)


def _repro_modules():
    """``(name, module)`` of every loaded ``repro`` module."""
    return [
        (name, mod) for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def import_all() -> None:
    """Import every ``repro`` module, so every binding exists to patch.

    A module imported after ``install`` would copy a wrapped function
    and keep it after ``uninstall``.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(trace: LayerTrace) -> None:
    """Patch the public entry points of every layer of ``repro``."""
    from repro.abr.base import ABRAlgorithm
    from repro.network.events import EventScheduler, SimKernel
    from repro.network.link import BottleneckLink
    from repro.obs.attribution import FleetAttributor
    from repro.obs.rollup import TraceRollup
    from repro.obs.tracer import StreamingTracer, Tracer
    from repro.experiments.fleet import FleetResult
    from repro.player.session import StreamingSession
    from repro.transport.connection import QuicConnection
    from repro.transport.http import VoxelHttp
    from repro.transport.resilience import RetryPolicy

    import_all()
    span, gen = trace.span, trace.generator

    # video / prep / qoe: the offline half.
    trace.patch_function("repro.video.encoder", "encode_video",
                         lambda f: span(f, "video", "video.encodes"))
    trace.patch_function("repro.prep.prepare", "prepare",
                         lambda f: span(f, "prep"))
    trace.patch_function("repro.prep.analysis", "compute_drop_curve",
                         lambda f: span(f, "prep", "prep.drop_curve_calls"))
    trace.patch_function("repro.qoe.model", "decode_segment",
                         lambda f: span(f, "qoe", "qoe.decode_calls"))

    # abr: every concrete algorithm's own choose/control.
    for cls in _subclasses(ABRAlgorithm):
        for name, layer, count in (
            ("choose", "abr.choose", "abr.choose_calls"),
            ("control", "abr.control", "abr.control_calls"),
        ):
            if name in cls.__dict__:
                trace.patch_method(
                    cls, name,
                    lambda f, l=layer, c=count: span(f, l, c,
                                                     outer_only=True),
                )

    # network: kernel loops, process resumes, the shared link.
    for cls in (EventScheduler, SimKernel):
        for name in ("step", "run_until", "run_until_all", "run"):
            if name in cls.__dict__:
                trace.patch_method(
                    cls, name, lambda f: span(f, "network.kernel")
                )
    trace.patch_method(SimKernel, "_make_process",
                       lambda f: trace.kernel_entry(f, 1))
    trace.patch_function(
        "repro.network.events", "drive",
        lambda f: span(trace.kernel_entry(f, 0), "network.kernel"),
    )
    trace.patch_method(BottleneckLink, "offer_round",
                       lambda f: span(f, "network.link",
                                      "network.link_rounds"))
    trace.patch_method(BottleneckLink, "drain",
                       lambda f: span(f, "network.link"))

    # transport: connection and HTTP generators, retries.
    trace.patch_method(QuicConnection, "download_iter",
                       lambda f: gen(f, "transport", "transport.rounds"))
    trace.patch_method(QuicConnection, "idle_iter",
                       lambda f: gen(f, "transport"))
    for name in ("fetch_segment_iter", "refetch_lost_iter"):
        trace.patch_method(VoxelHttp, name, lambda f: gen(f, "transport"))
    trace.patch_method(RetryPolicy, "backoff",
                       lambda f: span(f, "transport", "transport.retries"))

    # player: the session process.
    trace.patch_method(StreamingSession, "steps",
                       lambda f: gen(f, "player", done="player.sessions"))
    trace.patch_method(StreamingSession, "_stream_segment",
                       lambda f: trace.counter(f, "player.segments"))

    # obs: event dispatch (tracer + observers) and the shard fold.
    for cls in (Tracer, StreamingTracer):
        trace.patch_method(cls, "emit_fields",
                           lambda f: span(f, "obs", "obs.trace_events"))
    for cls, names in (
        (TraceRollup, ("merge", "summary", "to_dict", "from_dict")),
        (FleetAttributor, ("merge", "combined", "to_dict", "from_dict")),
    ):
        for name in names:
            trace.patch_method(cls, name, lambda f: span(f, "obs"))

    # experiments: the engines the benchmark calls, and the pool.
    trace.patch_function("repro.experiments.fleet", "run_fleet",
                         lambda f: span(f, "experiments"))
    trace.patch_function("repro.experiments.sweep", "run_sweep",
                         lambda f: span(f, "experiments"))
    trace.patch_function("repro.experiments.sweep", "rows_to_jsonl",
                         lambda f: span(f, "experiments"))
    for name in ("report", "fleet_hash"):
        trace.patch_method(FleetResult, name,
                           lambda f: span(f, "experiments"))
    trace.patch_function("repro.experiments.execution", "execute",
                         trace.execution)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


#: Modules that bind ``decode_segment`` by name at import time; the
#: coverage check asserts each of them sees the wrapper.
DECODE_BINDINGS = (
    "repro.prep.prepare",
    "repro.prep.analysis",
    "repro.player.session",
    "repro.abr.beta",
)


def unpatched_bindings(trace: LayerTrace) -> List[str]:
    """Loaded ``repro`` module attributes still bound to an original.

    Empty after :func:`install`; also checks the known by-name imports
    of ``decode_segment`` explicitly.
    """
    originals = {
        id(original) for owner, _, original in trace._patches
        if isinstance(owner, type(sys))
    }
    missing = []
    for mod_name, mod in _repro_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                missing.append(f"{mod_name}.{attr}")
    for mod_name in DECODE_BINDINGS:
        bound = getattr(sys.modules[mod_name], "decode_segment")
        if getattr(bound, "__wrapped__", None) is None:
            missing.append(f"{mod_name}.decode_segment")
    return sorted(set(missing))
