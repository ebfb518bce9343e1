"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) against the metric's bound in BENCHMARK.json.  With
`--out` it also takes one traced run per workload and writes everything as
the recorded baseline.

    python3 perfbench/repeat.py --workloads dense stream matrix --seeds 1-10 \
        --out perfbench/baseline.json
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import program

BENCHMARK = program.ROOT / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(program.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(line.split(":", 1)[1].strip() for line in lines
                            if line.strip().startswith("csv sha256:"))
    return result


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"machine": f"{platform.machine()}, {platform.python_implementation()} "
                           f"{platform.python_version()}",
                "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            runs.append(bench(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:5.1f} s  "
                  f"correct {r['correct']}  failed {r['failed']}/{r['attempted']}  "
                  + "  ".join(f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()),
                  flush=True)
        entry = {"digests": {seed: r["digest"] for seed, r in
                             zip(parse_seeds(args.seeds), runs)},
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        ok &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            entry["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                                      "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"  {workload:7s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
        if args.out:
            traced = bench(workload, 1, args.seconds, 1)
            entry["traced_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
