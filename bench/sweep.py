"""Run the benchmark on several seeds per workload and summarise the runs.

Usage, from the root of a checkout:

    python3 bench/sweep.py --seeds 1-10 [--workloads orders,zigzag] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one after another, for
the ``run_seconds`` of BENCHMARK.json, and prints for each end-to-end
metric the median over the seeds and its spread: the distance between
the first and third quartiles over the median.  With ``--out`` the runs
and the summary are written as JSON, with the seeds, the job count of
each run, nproc, the Python version and the git commit of the working
directory.  ``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            command = [
                sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            jobs = int(re.search(r" jobs=(\d+)", proc.stdout).group(1))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "jobs": jobs, "correct": result["correct"], **values})
            ok = ok and result["correct"]
            print(workload, seed, jobs, result["correct"], json.dumps(values), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[metric["name"]] = {
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
            print(f"  {metric['name']:14s} median {metrics[metric['name']]['median']:12.5f} "
                  f"spread {metrics[metric['name']]['spread']:.4f} bound {metric['bound']}")
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
