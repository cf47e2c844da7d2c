"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 24 --trace 0

Each run is one fresh process: import, set-up, then timed operations for
about ``--seconds`` seconds.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` installs the per-layer wrappers (``layertrace.py``), traces
the set-up and alternates untraced and traced operations, and reports
per-layer self time and exact counts of one traced operation plus the
tracing overhead.  Every operation's output is checked against the
digest pinned for its seed; a mismatch counts its segments as failed.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Relative slack allowed between the fleet's summed layer self times
#: and the traced phase's wall time.
PARTITION_SLACK = 0.005

#: Timed operations per run are at least this many (trace 0) or pairs
#: (trace 1), then continue while the next one fits in ``--seconds``.
MIN_OPS = 2
MIN_PAIRS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("prepare", "fleet", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _keep_going(done: int, minimum: int, maximum, elapsed: float,
                typical: float, seconds: float) -> bool:
    if maximum is not None and done >= maximum:
        return False
    if done < minimum:
        return True
    return elapsed + typical <= seconds


class Outcome:
    """Operations attempted and failed, and every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, segments, problems):
        self.attempted += segments
        if problems:
            self.failed += segments
            self.problems.extend(problems)

    def result(self, metrics):
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def plain_run(workload, seconds: float, import_s: float) -> dict:
    """Untraced: the end-to-end metrics."""
    setups = workload.setup()
    outcome = Outcome()
    walls = []
    rss = None
    elapsed = 0.0
    while _keep_going(len(walls), MIN_OPS, workload.max_ops, elapsed,
                      statistics.median(walls) if walls else 0.0, seconds):
        setups += workload.before(len(walls))
        t0 = perf_counter()
        wall, segments, _, problems = workload.run_once(len(walls))
        elapsed += perf_counter() - t0
        walls.append(wall)
        outcome.add(segments, problems)
        if rss is None:
            rss = peak_rss_mb()
    segments_per_op = outcome.attempted / len(walls)
    print(f"{workload.name}: {len(walls)} ops, walls "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; set-ups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s; import "
          f"{import_s:.3f} s", file=sys.stderr)
    return outcome.result({
        "segments_per_s": _metric(
            segments_per_op / statistics.median(walls), "segments/s"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    })


#: Self-time layers and the per-layer metric each one feeds.
SELF_TIME_METRICS = {
    "prep": "prep.self_s",
    "qoe": "qoe.decode_s",
    "abr.choose": "abr.choose_s",
    "abr.control": "abr.control_s",
    "network.kernel": "network.kernel_s",
    "network.link": "network.link_s",
    "transport": "transport.s",
    "player": "player.s",
    "obs": "obs.s",
    "experiments": "experiments.s",
}

#: Exact counts reported per traced operation.
COUNT_METRICS = (
    "prep.drop_curve_calls",
    "qoe.decode_calls",
    "abr.choose_calls",
    "abr.control_calls",
    "network.kernel_events",
    "network.link_rounds",
    "transport.rounds",
    "transport.retries",
    "player.segments",
    "obs.trace_events",
    "experiments.execution_tasks",
    "experiments.execution_attempts",
)


def identity_problems(name: str, stats: dict, wall: float) -> list:
    """Exact identities a traced operation of ``name`` must satisfy."""
    from workloads import (FLEET_CLIENTS, FLEET_SHARDS, LEVELS, SEGMENTS,
                           SWEEP_ABRS, SWEEP_TRACES)

    expected = {
        "prepare": {"prep.drop_curve_calls": SEGMENTS * LEVELS,
                    "player.sessions": 0, "network.kernel_events": 0},
        "fleet": {"player.sessions": FLEET_CLIENTS,
                  "player.segments": FLEET_CLIENTS * SEGMENTS,
                  "experiments.execution_tasks": FLEET_SHARDS,
                  "prep.drop_curve_calls": 0},
        "sweep": {"player.sessions": len(SWEEP_ABRS) * len(SWEEP_TRACES) * 2,
                  "player.segments":
                      len(SWEEP_ABRS) * len(SWEEP_TRACES) * 2 * SEGMENTS,
                  "experiments.execution_tasks":
                      len(SWEEP_ABRS) * len(SWEEP_TRACES) * 2,
                  "prep.drop_curve_calls": 0},
    }[name]
    counts = stats["counts"]
    problems = [
        f"{key} = {counts.get(key, 0)}, expected {value}"
        for key, value in expected.items() if counts.get(key, 0) != value
    ]
    if name == "fleet":
        # A bookkeeping check, not evidence of interleaving safety: each
        # transition charges its interval to one layer, so in one process
        # the self times sum to the traced wall unless the trace window
        # or the stack bookkeeping is broken.
        total = sum(stats["self_s"].values())
        if abs(total - wall) > PARTITION_SLACK * wall:
            problems.append(
                f"layer self times sum to {total:.4f} s, traced wall "
                f"{wall:.4f} s"
            )
    return problems


def traced_run(workload, seconds: float) -> dict:
    """Traced: per-layer self time and exact counts, plus overhead."""
    import layertrace

    trace = layertrace.LayerTrace()
    outcome = Outcome()
    layertrace.install(trace)
    for binding in layertrace.unpatched_bindings(trace):
        outcome.problems.append(f"binding not wrapped: {binding}")
    trace.begin()
    workload.setup()
    setup_stats = trace.end()
    trace.uninstall()

    plain, traced, runs = [], [], []
    op = 0
    elapsed = 0.0
    while _keep_going(len(traced), MIN_PAIRS,
                      None if workload.max_ops is None
                      else workload.max_ops // 2,
                      elapsed,
                      (statistics.median(plain) + statistics.median(traced))
                      if traced else 0.0, seconds):
        workload.before(op)
        t0 = perf_counter()
        wall, segments, _, problems = workload.run_once(op)
        elapsed += perf_counter() - t0
        op += 1
        plain.append(wall)
        outcome.add(segments, problems)

        workload.before(op)
        t0 = perf_counter()
        layertrace.install(trace)
        trace.begin()
        t_phase = perf_counter()
        # Traced and untraced operations are checked against the same
        # pinned digest, so their outputs must be identical to pass.
        wall, segments, _, problems = workload.run_once(op)
        stats = trace.end()
        phase_wall = perf_counter() - t_phase
        trace.uninstall()
        elapsed += perf_counter() - t0
        op += 1
        traced.append(wall)
        outcome.add(segments, problems + identity_problems(
            workload.name, stats, phase_wall))
        runs.append(stats)
        print(format_layers(stats, phase_wall), file=sys.stderr)

    first = runs[0]["counts"]
    for stats in runs[1:]:
        if stats["counts"] != first:
            outcome.problems.append("counts differ between traced runs")

    metrics = {}
    encodes = setup_stats["counts"].get("video.encodes", 0)
    metrics["video.encode_s"] = _metric(
        setup_stats["self_s"].get("video", 0.0) / max(encodes, 1), "s")
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = _metric(statistics.median(
            stats["self_s"].get(layer, 0.0) for stats in runs), "s")
    for name in COUNT_METRICS:
        metrics[name] = _metric(first.get(name, 0), "count")
    exec_wall, busy, capacity = (
        statistics.median(stats["exec"][i] for stats in runs)
        for i in range(3)
    )
    metrics["experiments.execution_wall_s"] = _metric(exec_wall, "s")
    metrics["experiments.execution_efficiency"] = _metric(
        busy / capacity if capacity else 0.0, "ratio")
    metrics["trace_overhead_pct"] = _metric(
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        "%")
    return outcome.result(metrics)


def format_layers(stats: dict, wall: float) -> str:
    """A per-layer table of one traced operation (for standard error)."""
    lines = [f"{'layer':<24s} {'self s':>10s} {'share':>7s}"]
    total = sum(stats["self_s"].values())
    for layer, seconds in sorted(stats["self_s"].items(),
                                 key=lambda item: -item[1]):
        lines.append(f"{layer:<24s} {seconds:10.4f} "
                     f"{100.0 * seconds / total:6.1f}%")
    lines.append(f"{'sum':<24s} {total:10.4f}  (traced wall {wall:.4f} s)")
    lines.extend(f"  {key} = {value}"
                 for key, value in sorted(stats["counts"].items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.out_dir_for(ROOT))
    if args.trace:
        result = traced_run(workload, args.seconds)
    else:
        result = plain_run(workload, args.seconds, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
