"""One benchmark operation in a fresh process.

Set-up (interpreter start, ``import mqcsim``, seeded input generation) runs
first; then the timed operation; then, outside the timed interval, the
workload's correctness checks. The result goes to the JSON file named by
``--result``. ``run.py`` starts one worker per operation. With
``--setup-only`` the worker stops after set-up, so ``run.py`` can time
set-up more often than it runs operations.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mqcsim  # noqa: E402  (needs the checkout's src on sys.path)

import workloads  # noqa: E402


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def execute(name: str, seed: int, workdir: Path, trace: bool,
            params: dict | None = None) -> dict:
    """Set up, run and check one operation; failures are recorded, not raised."""
    op = workloads.make(name, seed, workdir, params)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer().install()
    error = None
    op_start = time.monotonic()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        if tracer is None:
            op.run()
        else:
            root = tracer.open("bench.op")
            try:
                op.run()
            finally:
                tracer.close(root)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    failures, digest = [], None
    if error is None:
        try:
            digest = op.digest()
            failures = op.check()
        except Exception:
            failures = [traceback.format_exc()]
    result = {
        "ok": error is None and not failures,
        "error": error,
        "failures": failures,
        "digest": digest,
        "op_start_monotonic": op_start,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(mqcsim.__file__).resolve().parent != ROOT / "src" / "mqcsim":
        print(f"worker: imported mqcsim from {mqcsim.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, args.workdir)
            result = {"ok": True, "op_start_monotonic": time.monotonic()}
        else:
            result = execute(args.workload, args.seed, args.workdir, bool(args.trace))
    except Exception:
        # failed input generation or tracer install: no timings to report
        result = {"ok": False, "error": traceback.format_exc(), "failures": []}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
