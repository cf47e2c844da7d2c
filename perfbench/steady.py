"""Steadiness evidence: two sets of benchmark runs, summarized per metric.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` once per (set, workload, seed) for every
workload of ``BENCHMARK.json``, each time in a fresh process with its
``run_seconds``, one run after another.  Set ``s`` uses seeds
``s * RUNS`` to ``s * RUNS + RUNS - 1``.  For every workload and
end-to-end metric it prints, per set, the median, the first and third
quartile (``statistics.quantiles(n=4)``), the sample count and the unit,
the spread ``(Q3 - Q1) / median`` next to the metric's bound, and how
far the second set's median moved from the first set's in the worse
direction.  Raw results go to ``.perfbench_out/steady.json``.  Exits 1
if a run failed or reported an incorrect output.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run may take this long before it counts as hung.
RUN_TIMEOUT_S = 900

#: Runs per workload in each set, and sets.
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    results = {}
    bad = 0
    for s in range(SETS):
        for name in names:
            for i in range(RUNS):
                seed = s * RUNS + i
                out = run_once(name, seed, bench["run_seconds"])
                results.setdefault(name, []).append(
                    {"set": s, "seed": seed, **out})
                if not out["correct"] or out["failed"]:
                    bad += 1
                print(f"set {s} {name} seed {seed}: correct "
                      f"{out['correct']} " + " ".join(
                          f"{k}={v['value']:.6g}"
                          for k, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    print(f"{'workload':<8s} {'metric':<32s} {'set':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s} {'unit':<10s} "
          f"{'spread':>7s} {'bound':>6s} {'shift':>7s}")
    for name in names:
        runs = results[name]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            per_set = []
            for s in range(SETS):
                values = [r["metrics"][key]["value"] for r in runs
                          if r["set"] == s]
                per_set.append(summarize(values))
            first, last = per_set[0]["median"], per_set[-1]["median"]
            worse = (first - last) if metric["better"] == "higher" \
                else (last - first)
            shift = worse / first if first else 0.0
            for s, stats in enumerate(per_set):
                print(f"{name:<8s} {key:<32s} {s:>3d} "
                      f"{stats['median']:12.6g} {stats['q1']:12.6g} "
                      f"{stats['q3']:12.6g} {stats['n']:3d} "
                      f"{metric['unit']:<10s} {stats['spread']:7.3f} "
                      f"{metric['bound']:>6} "
                      f"{shift if s == SETS - 1 else 0.0:7.3f}")
    if bad:
        print(f"{bad} runs reported incorrect output", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
