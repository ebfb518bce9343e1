"""The simulator's benchmark: runs a workload for a fixed time, one pass per
fresh process, and prints every metric by name and unit.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
(`spans.py`), including the tracing overhead.  Every scenario run is one
operation; it fails if it raises or breaks a check (`worker.Probe`).  The
SHA-256 of each pass's CSVs must agree across passes, traced or not.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import program
import spans

# name -> unit; all lower is better
END_TO_END = {
    "wall_s": "s",
    "geams_run_s": "s",
    "gpsr_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# a run may not outlast this, whatever --seconds says
HARD_LIMIT_S = 170.0


# every pass hashes strings alike, so dict and set layouts do not vary by pass
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(program.ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not end within {timeout:.0f} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise PassFailed(f"pass exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, begun: float):
    """Passes until the next one would overrun `seconds`; at least one (one
    untraced and one traced with `trace`).  Returns (passes, errors)."""
    kinds = [False, True] if trace else [False]
    passes, errors = [], []
    deadline = begun + seconds
    while True:
        t0 = time.perf_counter()
        for kind in kinds:
            try:
                passes.append(run_worker(workload, seed, kind,
                                         begun + HARD_LIMIT_S - time.perf_counter()))
            except PassFailed as exc:
                errors.append(str(exc))
        now = time.perf_counter()
        if errors or now + (now - t0) > deadline:
            return passes, errors


def scaled_times(p: dict) -> dict[str, float]:
    """One untraced pass's times, each scenario run's set-up and run scaled
    by its speed factor (see worker.REFERENCE_S).  The rest of wall_s (row
    building, CSV writing and the checks) is scaled by the mean factor."""
    cells = p["cells"]
    times = {"setup_s": sum(c[3] * c[5] for c in cells),
             "geams_run_s": sum(c[4] * c[5] for c in cells if c[0] == "geams"),
             "gpsr_run_s": sum(c[4] * c[5] for c in cells if c[0] == "gpsr")}
    rest = p["wall_s"] - sum(c[3] + c[4] for c in cells)
    times["wall_s"] = sum(times.values()) + rest * statistics.mean(c[5] for c in cells)
    return times


def summarize(workload: str, seed: int, passes: list[dict], errors: list[str], trace: bool):
    """Print the workload's figures and return the result object."""
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    digests = {p.get("digest") for p in passes}
    problems = errors + [f for p in passes for f in p["failures"]]
    if len(digests) != 1:
        problems.append(f"CSV digests differ between passes: {sorted(map(str, digests))}")

    print(f"== {workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced passes")
    metrics = {}
    if not trace:
        scaled = [{**p, **scaled_times(p)} for p in plain if p["cells"]]
        for name, u in END_TO_END.items():
            values = [p[name] for p in scaled]
            raw = statistics.median(p[name] for p in plain)
            metrics[name] = {"value": statistics.median(values), "unit": u}
            print(f"  {name:14s} {statistics.median(values):12.6f} {u:4s}  (median of "
                  f"{len(values)}; min {min(values):.6f}, max {max(values):.6f}; "
                  f"unscaled {raw:.6f})")
        factors = [c[5] for p in plain for c in p["cells"]]
        print(f"  speed factors: min {min(factors):.3f}  median "
              f"{statistics.median(factors):.3f}  max {max(factors):.3f}")
    else:
        layers = [p["layers"] for p in traced]
        for name in layers[0]:
            values = [m[name] for m in layers]
            if spans.unit(name) == "count" and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": spans.unit(name)}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:16.6f} {m['unit']}")
        print("  layer split of each protocol's traced run time:")
        for proto, split in traced[0]["split"].items():
            run_s = split.pop("run_s")
            parts = "  ".join(f"{k} {v / run_s:.3f}" for k, v in split.items() if run_s)
            print(f"    {proto:6s} run {run_s:8.3f} s  {parts}")
    print(f"  runs failed/attempted: {failed}/{attempted}")
    print(f"  csv sha256: {' '.join(sorted(map(str, digests)))}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.import_package()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)} or all")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        begun = time.perf_counter()
        passes, errors = measure(name, args.seed, args.seconds, bool(args.trace), begun)
        if not passes or (args.trace and not any(p["trace"] for p in passes)) \
                or not any(not p["trace"] for p in passes):
            print(f"error: {name}: no pass completed: {errors}", file=sys.stderr)
            return 1
        result = summarize(name, args.seed, passes, errors, bool(args.trace))
        print(json.dumps(result))
        code |= 0 if result["correct"] else 3
    return code


if __name__ == "__main__":
    sys.exit(main())
