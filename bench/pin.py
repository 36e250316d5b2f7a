"""Rewrite pinned.json: the exit codes and verdicts that the program gives
today for the word-valued commands of the ``zigzag`` workload.

One entry per isomorphism class of 3-vertex digraphs and per path word;
these outcomes do not depend on vertex names.  ``fixpoint`` is pinned
with the identity map: whether it succeeds (exit 0) or is refused for
lack of normal structure (exit 4) is a property of the space, and the
fixed points themselves are checked against the maps by the benchmark.

Run from the repository root: ``python3 bench/pin.py``.  Review the diff
of pinned.json before committing it: a changed verdict is a changed
answer of the program.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stderr
from pathlib import Path

import workloads


def outcome(main, argv, out: Path):
    with redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    return [code, json.loads(out.read_text())["verdict"] if code == 0 else None]


def pin_graph(main, tmp: Path, vertices, arcs) -> dict:
    graph = tmp / "graph.json"
    graph.write_text(
        json.dumps({"vertices": vertices, "arcs": [list(a) for a in arcs], "add_loops": True})
    )
    identity = tmp / "identity.json"
    identity.write_text(json.dumps({v: v for v in vertices}))
    out = tmp / "cert.json"
    pins = {
        f"check {prop}": outcome(main, ["check", prop, "--input", str(graph)], out)
        for prop in workloads.ZIGZAG_CHECKS
    }
    pins["embed"] = outcome(main, ["embed", "--input", str(graph)], out)
    pins["fixpoint"] = outcome(
        main, ["fixpoint", "--input", str(graph), "--maps", str(identity)], out
    )
    return pins


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from relmetric.cli import main as cli_main

    pins = {}
    tmp = Path(".bench_work") / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for arcs in workloads.digraph_classes():
            pins[workloads.class_key(arcs)] = pin_graph(cli_main, tmp, list("012"), arcs)
        for word in workloads.PATH_WORDS:
            names = [str(i) for i in range(len(word) + 1)]
            pins[word] = pin_graph(cli_main, tmp, names, workloads.path_arcs(word, names))
    finally:
        shutil.rmtree(tmp)
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())]
    workloads.PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
