"""Run a list of relmetric jobs in this process, one after another.

Usage, from the root of a checkout:

    python3 bench/worker.py JOBS RESULT [--spans SPANS] [--setup-only]

JOBS is a JSON file ``{"jobs": [[id, argv, out], ...]}``.  Each job is
``relmetric.cli.main(argv + ["--out", out])`` on the package under
``src/`` of the working directory, so the worker's caches start cold and
warm up over the jobs.  RESULT receives, per job, the exit code, the time
of the call and the SHA-256 and size of the certificate, plus the start
and end of the timed phase and the peak RSS.  With SPANS, the layers are
wrapped by ``tracer.py`` before the first job, the spans are written to
SPANS and the per-layer metrics go into RESULT.  With ``--setup-only``
the worker stops where the first job would start, to time set-up alone.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import relmetric.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"relmetric was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = json.loads(Path(args.jobs).read_text())["jobs"]
    if args.setup_only:
        jobs = []
    codes, times, errors = [], [], {}
    sink = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = sink
    t_first = time.perf_counter()
    try:
        for k, (jid, job_argv, out) in enumerate(jobs):
            if tracer is not None:
                tracer.set_job(k)
            t = time.perf_counter()
            try:
                code = cli.main(job_argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback"
                traceback.print_exc(file=sink)
            times.append(time.perf_counter() - t)
            codes.append(code)
            if code != 0:
                errors[jid] = sink.getvalue()[-2000:]
            sink.seek(0)
            sink.truncate()
    finally:
        t_end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    digests, sizes = [], []
    for (_, _, out), code in zip(jobs, codes):
        path = Path(out)
        data = path.read_bytes() if code == 0 and path.is_file() else None
        digests.append(None if data is None else hashlib.sha256(data).hexdigest())
        sizes.append(0 if data is None else len(data))
    result = {
        "t_first": t_first,
        "t_end": t_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "codes": codes,
        "times": times,
        "digests": digests,
        "sizes": sizes,
        "errors": errors,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.layer_metrics()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
