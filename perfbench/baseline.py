"""Measure the benchmark's baseline: repeated seeded runs, a traced run and a
single-threaded reference run per workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each of two sets runs ``run.py`` once per seed 1 to 10 on every workload,
with tracing off, and reports per end-to-end metric the median, the
quartiles and the spread (quartile distance over median), as
``statistics.quantiles(values, n=4)`` gives them. It also reports how far
the second set's median moved from the first's. Then, per workload, one
traced run gives the per-layer table and one run with a single BLAS thread
gives the single-threaded reference, which is informational and not an
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: float, trace: int, threads: int | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--blas-threads", str(threads)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    result["run_s"] = time.monotonic() - t0
    print(f"{workload} seed {seed} trace {trace} threads {threads or 'nproc'}: "
          f"{result['run_s']:.1f} s, correct {result['correct']}, "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                      if trace == 0),
          file=sys.stderr, flush=True)
    return result


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    sets: list[dict] = []
    for _ in range(SETS):
        per = {}
        for w in workloads:
            results = [run(w, seed, seconds, 0) for seed in SEEDS]
            per[w] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {name: stats([r["metrics"][name]["value"] for r in results])
                            for name in bounds},
            }
            doc["environment"] = results[-1]["environment"]
        sets.append(per)

    for w in workloads:
        entry = {"sets": [s[w] for s in sets], "checks": {}}
        for name, bound in bounds.items():
            first = sets[0][w]["metrics"][name]
            entry["checks"][name] = {
                "bound": bound, "spread": first["spread"],
                "median_shift": sets[1][w]["metrics"][name]["median"] / first["median"] - 1.0,
            }
        entry["traced"] = run(w, 1, seconds, 1)["metrics"]
        ref = run(w, 1, seconds, 0, threads=1)
        entry["single_thread_reference"] = {
            "blas_threads": ref["environment"]["blas_threads_runtime"],
            "metrics": ref["metrics"],
        }
        doc["workloads"][w] = entry

    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    for w, entry in doc["workloads"].items():
        for name, check in entry["checks"].items():
            med = entry["sets"][0]["metrics"][name]
            print(f"{w:11s} {name:12s} median {med['median']:10.4f} "
                  f"q1 {med['q1']:10.4f} q3 {med['q3']:10.4f} "
                  f"spread {check['spread']:.4f} (bound {check['bound']}) "
                  f"shift {check['median_shift']:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
