"""mqcsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mqc-n9 --seed 1 --seconds 20 --trace 0

One caller runs operations back to back (a closed loop) until ``--seconds``
have passed; every operation runs in a fresh worker process (worker.py), so
each pays the set-up a CLI user pays. With ``--trace 0`` the last line of
stdout is the end-to-end result: medians over the run's operations of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and of ``setup_s`` over the
operations and ``SETUP_PROBES`` set-up-only workers. With ``--trace 1``
an untraced warm-up operation is followed by untraced/traced pairs, in
the order U T T U U T T U ..., and the last line holds the per-layer
metrics of the traced ones plus the tracing overhead. The line before it
is the environment record. Raw samples (and spans, when traced) are
written under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mqc-n9", "sweep-n8", "krylov-n14")
RUN_LIMIT_S = 170.0  # every run ends within 180 s
# set-up-only workers per untraced run, so setup_s is a median of several
SETUP_PROBES = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mqcsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout must not report an outer repo
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": blas_threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_op(workload: str, seed: int, traced: bool, opdir: Path, env: dict,
           timeout: float, setup_only: bool = False) -> dict:
    """Start one worker and return its result, with ``setup_s`` filled in."""
    opdir.mkdir(parents=True)
    result_path = opdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", str(opdir / "work"), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"ok": False, "traced": traced,
                "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    if "op_start_monotonic" in result:
        result["setup_s"] = result.pop("op_start_monotonic") - spawned
    return result


def summarize(workload: str, samples: list[dict], trace: bool,
              setups: list[float] = ()) -> dict:
    """The result line: counts of attempted and failed operations and metrics.

    ``setups`` are the ``setup_s`` of set-up-only workers. The metric names
    and units are those BENCHMARK.json declares.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = sum(1 for s in samples if not s["ok"])
    timed = [s for s in samples if s["ok"]] or [s for s in samples if "wall_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    if not untraced:
        raise RuntimeError("no operation produced timings")
    if trace:
        import tracing  # imports mqcsim, which only the traced summary needs

        traced = [s for s in samples if s["traced"]]
        if not traced or any("spans" not in s for s in traced):
            raise RuntimeError("a traced operation failed; see the errors above")
        if len({s.get("digest") for s in samples}) != 1:
            raise RuntimeError("traced and untraced operations wrote different outputs")
        per_op = [tracing.op_metrics(workload, s["spans"], s["counters"], s["wall_s"])
                  for s in traced]
        # after the warm-up, pairs run in the order U T, T U, U T, ...: drift
        # over the run adds to half of the paired differences and subtracts
        # from the other half
        pairs = [samples[i:i + 2] for i in range(1, len(samples) - 1, 2)]
        overhead = statistics.median(
            sum(s["wall_s"] * (1 if s["traced"] else -1) for s in pair) for pair in pairs)
        for m in per_op:
            m["trace.overhead_s"] = overhead
        declared = bench["per_layer"]
    else:
        per_op = untraced
        declared = bench["end_to_end"]
    metrics = {d["name"]: {"value": statistics.median(m[d["name"]] for m in per_op),
                           "unit": d["unit"]} for d in declared}
    if not trace:
        metrics["setup_s"]["value"] = statistics.median(
            [*setups, *(s["setup_s"] for s in untraced)])
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=nproc(),
                        help="BLAS threads per worker (default: nproc)")
    args = parser.parse_args()
    begin = time.monotonic()

    if not (SRC / "mqcsim" / "__init__.py").is_file():
        print(f"run.py: no mqcsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # byte-compile before timing so the first run's set-up is not an outlier
    compileall.compile_dir(SRC, quiet=1)
    threads = str(args.blas_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-blas{threads}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    samples: list[dict] = []
    setups: list[float] = []
    try:
        for i in range(0 if args.trace else SETUP_PROBES):
            probe = run_op(args.workload, args.seed, False, work / f"setup{i}", env,
                           RUN_LIMIT_S - (time.monotonic() - begin), setup_only=True)
            if not probe["ok"]:
                print(f"run.py: set-up failed: {probe['error']}", file=sys.stderr)
                return 1
            setups.append(probe["setup_s"])
        start = time.monotonic()
        while True:
            # the first operation of a run is often its slowest, so a traced
            # run starts with an untraced warm-up that no pair uses; then
            # U T T U U T T U ...: each pair has one untraced and one traced op
            traced = bool(args.trace) and len(samples) % 4 in (2, 3)
            left = RUN_LIMIT_S - (time.monotonic() - begin)
            sample = run_op(args.workload, args.seed, traced,
                            work / f"op{len(samples)}", env, max(left, 1.0))
            samples.append(sample)
            if not sample["ok"]:
                print(f"run.py: operation {len(samples) - 1} failed: "
                      f"{sample.get('error') or sample.get('failures')}", file=sys.stderr)
            elapsed = time.monotonic() - start
            if time.monotonic() - begin >= RUN_LIMIT_S or (
                elapsed >= args.seconds
                and (not args.trace or (len(samples) >= 5 and len(samples) % 2 == 1))
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_record = environment(args.blas_threads)
    env_record["blas_threads_runtime"] = next(
        (s["blas_threads"] for s in samples if "blas_threads" in s), None)
    sys.path.insert(0, str(HERE))
    try:
        result = summarize(args.workload, samples, bool(args.trace), setups)
    except RuntimeError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_record, "result": result,
              "setup_probes_s": setups, "samples": samples}
    (results / f"{tag}.json").write_text(json.dumps(record))
    print(json.dumps({"environment": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
