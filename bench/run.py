"""The relmetric benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload orders|zigzag|verify --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --smoke

Load model: a closed loop with one client.  The jobs of a workload run one
after another through ``relmetric.cli.main`` in a fresh worker process
(``worker.py``), in an order fixed by the seed, so the ``lru_cache``s of
the program start cold and warm up within a pass, as in a batch sweep.
A run repeats such passes, each in a new worker, until ``--seconds`` have
gone by (at least two; with ``--trace 1``, at least one untraced and one
traced), and reports the median over passes.  No threads; at most two
processes at a time (this one and a worker).

The inputs are generated from the seed by ``workloads.py``, which never
calls relmetric; the program only receives the generated files.

Workloads (why each was chosen is in BENCHMARK.json):

* ``orders``: check hyperconvex|lattice|normal, gaps and holes on all
  labeled 4-point posets, a seeded sample of 5-point posets and products
  of chains with 8-12 elements; fixpoint with two commuting
  join-translations on each complete lattice; fence-retract demos.
* ``zigzag``: distance for every ordered pair, check
  macneille|axioms|bounded|macneille-bounded|hyperconvex, embed and
  fixpoint on one relabeled digraph per isomorphism class on 3 vertices
  and on the path graphs of +-, +-+ and +-+-; the zigzag demo of
  ACCEPT-14 by both routes.
* ``verify``: ``relmetric verify`` on every exit-0 certificate of the
  witness-carrying commands of the other two, generated by a separate
  process before the timed workers start.

End-to-end metrics (``--trace 0``): setup_s (worker start to first job,
mostly the import of relmetric; the median over the passes and five
workers that stop there), wall_s (the timed pass), certs_per_s
(exit-0 certificates per second of it), job_p50_ms, job_tail_ms (mean of
the slowest tenth of jobs, at least 10) and peak_rss_mb.  failed_ratio
and refused_ratio (exit 3) are printed with them; the result line
carries the failures as ``failed`` out of ``attempted``.

Per-layer metrics (``--trace 1``) come from passes with ``tracer.py``
installed, alternating with untraced passes; trace.overhead_ratio is
traced over untraced wall time.  Tracing inside the program (a
``--stats FILE`` option and a ``contextvars`` recorder) is not part of
this benchmark.

Correctness, checked outside the timed passes in every run: exit codes,
verdicts and witnesses match the outcomes that ``workloads.py`` expects;
every exit-0 certificate passes ``relmetric verify``; every pass of the
run gives byte-identical certificates (compared by SHA-256).

``--smoke`` runs a tiny seeded slice of each workload, traced and
untraced, prints every metric with its unit, and exits 1 when the
correctness check fails.  It is the benchmark's own test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import Job

BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")
WORKLOADS = ("orders", "zigzag", "verify")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("certs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics; they are 0 on a healthy run, so
#: the result line carries them as counts instead.
RATIOS = (("failed_ratio", "ratio"), ("refused_ratio", "ratio"))
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.cert_bytes", "bytes"),
    ("words.self_s", "s"),
    ("words.leq.calls", "count"),
    ("words.join.calls", "count"),
    ("words.concat.calls", "count"),
    ("words.minimal_words.calls", "count"),
    ("words.residual.calls", "count"),
    ("words.cache_entries", "count"),
    ("zigzag.self_s", "s"),
    ("zigzag.searches", "count"),
    ("zigzag.truncated", "count"),
    ("zigzag.member.calls", "count"),
    ("zigzag.embed_factors", "count"),
    ("vmetric.self_s", "s"),
    ("vmetric.closure_s", "s"),
    ("vmetric.carrier_values", "count"),
    ("vmetric.ball.calls", "count"),
    ("vmetric.table_leq.calls", "count"),
    ("vmetric.hyperconvex_s", "s"),
    ("relsys.self_s", "s"),
    ("relsys.ball_intersections.calls", "count"),
    ("relsys.ballsets", "count"),
    ("relsys.ball.calls", "count"),
    ("relsys.olr.calls", "count"),
    ("poset.self_s", "s"),
    ("poset.gaps", "count"),
    ("poset.leq.calls", "count"),
    ("poset.is_gap.calls", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)
MIN_PASSES = 2
#: Set-up alone is timed this many more times per run.
SETUP_SAMPLES = 5
#: No pass starts after this many seconds of a run, so that a run ends
#: well within three minutes whatever ``--seconds`` says.
LAST_START_S = 90.0
WORKER_TIMEOUT_S = 150.0
SMOKE_SLICE = {"orders": 40, "zigzag": 10, "verify": 25}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- workers


def run_worker(
    jobs: list[Job], work: Path, tag: str, hash_seed: int, spans=False, setup_only=False
) -> dict:
    """One pass over the jobs in a fresh worker process, traced with
    ``spans``, or stopped before the first job with ``setup_only``.

    The hash seed fixes the iteration order of sets of strings in the
    program, so the same seed gives the same counts; passes of one run
    get different hash seeds, which the certificates must not notice.
    """
    out_dir = work / "out" / tag
    out_dir.mkdir(parents=True)
    spec = {"jobs": [[j.id, j.argv, (out_dir / f"{j.id}.json").as_posix()] for j in jobs]}
    jobs_file = work / f"jobs-{tag}.json"
    jobs_file.write_text(json.dumps(spec))
    result_file = work / f"result-{tag}.json"
    command = [sys.executable, str(BENCH / "worker.py"), str(jobs_file), str(result_file)]
    if spans:
        command += ["--spans", str(work / f"spans-{tag}.bin")]
    if setup_only:
        command.append("--setup-only")
    t_spawn = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(command, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}")
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["t_first"] - t_spawn
    result["out_dir"] = out_dir
    return result


def certificate(result: dict, job: Job, k: int) -> dict | None:
    """The certificate of an exit-0 job, or None when there is none."""
    if result["digests"][k] is None:
        return None
    try:
        return json.loads((result["out_dir"] / f"{job.id}.json").read_text())
    except ValueError:
        return None


def exit0_certificates(jobs: list[Job], result: dict) -> list[tuple[Job, str]]:
    return [
        (job, (result["out_dir"] / f"{job.id}.json").as_posix())
        for k, job in enumerate(jobs)
        if result["codes"][k] == 0
    ]


# ------------------------------------------------------------- correctness


def check_jobs(jobs: list[Job], passes: list[dict]) -> dict[str, str]:
    """Failure reason per job id: wrong outcome in the last pass, or a
    pass whose exit code or certificate bytes differ from the first."""
    failures = {}
    last = passes[-1]
    for k, job in enumerate(jobs):
        if any(
            p["codes"][k] != passes[0]["codes"][k] or p["digests"][k] != passes[0]["digests"][k]
            for p in passes
        ):
            failures[job.id] = "passes of one seed gave different outputs"
            continue
        reason = workloads.check_outcome(job, last["codes"][k], certificate(last, job, k))
        if reason is not None:
            detail = last["errors"].get(job.id, "").strip().splitlines()[-1:]
            failures[job.id] = f"{' '.join(job.argv)}: {reason} {' '.join(detail)}".strip()
    return failures


def verify_certificates(jobs: list[Job], result: dict, work: Path) -> dict[str, str]:
    """Run ``relmetric verify`` on every exit-0 certificate of a pass."""
    certs = exit0_certificates(jobs, result)
    checks = [workloads.verify_job(job.id, cert) for job, cert in certs]
    report = run_worker(checks, work, "verify", hash_seed=0)
    failures = {}
    for k, ((source, _), check) in enumerate(zip(certs, checks)):
        reason = workloads.check_outcome(check, report["codes"][k], certificate(report, check, k))
        if reason is not None:
            failures[source.id] = f"verify of {' '.join(source.argv)}: {reason}"
    return failures


# ----------------------------------------------------------------- metrics


def tail_size(jobs: int) -> int:
    """The slowest tenth of the jobs, but at least 10 (or all of them)."""
    return max(min(10, jobs), jobs // 10)


def pass_metrics(result: dict) -> dict[str, float]:
    codes, times = result["codes"], sorted(result["times"])
    wall = result["t_end"] - result["t_first"]
    tail = times[-tail_size(len(times)) :]
    return {
        "setup_s": result["setup_s"],
        "wall_s": wall,
        "certs_per_s": sum(c == 0 for c in codes) / wall,
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_tail_ms": statistics.fmean(tail) * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "refused_ratio": sum(c == 3 for c in codes) / len(codes),
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# -------------------------------------------------------------------- runs


def build(workload: str, seed: int, work: Path, every: int) -> tuple[list[Job], dict, int]:
    """The timed jobs, failures found while preparing them, and the
    number of jobs whose outputs were checked while preparing them."""
    inputs = workloads.Inputs(work / "in")
    if workload == "orders":
        return workloads.orders_jobs(inputs, random.Random(f"orders-{seed}"))[::every], {}, 0
    if workload == "zigzag":
        return workloads.zigzag_jobs(inputs, random.Random(f"zigzag-{seed}"))[::every], {}, 0
    sources = workloads.orders_jobs(inputs, random.Random(f"orders-{seed}"))
    sources += workloads.zigzag_jobs(inputs, random.Random(f"zigzag-{seed}"))
    sources = [j for j in sources if j.command in workloads.WITNESS_COMMANDS][::every]
    generated = run_worker(sources, work, "sources", hash_seed=seed % 2**32)
    jobs = [
        workloads.verify_job(f"v{k:05d}", cert)
        for k, (_, cert) in enumerate(exit0_certificates(sources, generated))
    ]
    random.Random(f"verify-{seed}").shuffle(jobs)
    return jobs, check_jobs(sources, [generated]), len(sources)


def run(workload: str, seed: int, seconds: float, trace: bool, every: int = 1) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    started = time.perf_counter()
    try:
        jobs, failures, prepared = build(workload, seed, work, every)
        plain, traced = [], []
        hash_seeds = random.Random(f"hash-{seed}")
        while len(plain) < (1 if trace else MIN_PASSES) or time.perf_counter() - started < seconds:
            if time.perf_counter() - started > LAST_START_S:
                break
            hash_seed = hash_seeds.randrange(2**32)
            plain.append(run_worker(jobs, work, f"p{len(plain)}", hash_seed))
            if trace:
                traced.append(run_worker(jobs, work, f"t{len(traced)}", hash_seed, spans=True))
        setups = [p["setup_s"] for p in plain] + [
            run_worker(jobs, work, f"s{k}", hash_seeds.randrange(2**32), setup_only=True)["setup_s"]
            for k in range(SETUP_SAMPLES)
        ]
        failures.update(check_jobs(jobs, plain + traced))
        if workload != "verify":
            failures.update(verify_certificates(jobs, plain[-1], work))
        metrics = medians([pass_metrics(p) for p in plain])
        metrics["setup_s"] = statistics.median(setups)
        attempted = len(jobs) + prepared
        metrics["failed_ratio"] = len(failures) / attempted
        if trace:
            layers = medians([t["layers"] for t in traced])
            layers["cli.cert_bytes"] = sum(traced[0]["sizes"])
            layers["trace.overhead_ratio"] = statistics.median(
                (t["t_end"] - t["t_first"]) / (p["t_end"] - p["t_first"])
                for p, t in zip(plain, traced)
            )
            metrics.update(layers)
            os.replace(work / f"spans-t{len(traced) - 1}.bin", WORK / f"spans-{workload}.bin")
        return {
            "workload": workload,
            "seed": seed,
            "jobs": len(jobs),
            "passes": len(plain),
            "attempted": attempted,
            "failures": failures,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(outcome: dict, names) -> None:
    jobs = outcome["jobs"]
    print(
        f"# workload={outcome['workload']} seed={outcome['seed']} jobs={jobs} "
        f"passes={outcome['passes']} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    print(f"# job times: {jobs} samples per pass, the tail is the slowest {tail_size(jobs)}")
    for name, unit in names:
        print(f"{name:34s} {outcome['metrics'][name]:>16.6f} {unit}")
    for job_id, reason in sorted(outcome["failures"].items())[:20]:
        print(f"FAILED {job_id}: {reason}")


def result_line(outcome: dict, names) -> str:
    return json.dumps(
        {
            "correct": not outcome["failures"],
            "attempted": outcome["attempted"],
            "failed": len(outcome["failures"]),
            "metrics": {
                name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in names
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not Path("src/relmetric/cli.py").is_file():
        print("error: run from the root of a relmetric checkout (no src/relmetric)", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            ok = True
            for workload in WORKLOADS:
                outcome = run(workload, args.seed, 0.0, True, SMOKE_SLICE[workload])
                report(outcome, END_TO_END + RATIOS + PER_LAYER)
                ok = ok and not outcome["failures"]
            print("smoke: ok" if ok else "smoke: FAILED")
            return 0 if ok else 1
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else END_TO_END
    report(outcome, names if args.trace else END_TO_END + RATIOS)
    print(result_line(outcome, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
