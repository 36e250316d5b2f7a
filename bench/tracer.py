"""Spans around the public functions and methods of relmetric's layers.

The layers are the package modules in ``LAYERS``.  ``Tracer.install``
wraps every public function, method and staticmethod that a layer
defines, and rebinds the wrapper in every ``relmetric`` module namespace
that imported the original, so calls between layers are seen too.  The
program itself is not changed: these spans come from the benchmark's
files.  ``UNWRAPPED`` names the two innermost helpers of the word
algebra.  Wrapping them as well made a traced ``zigzag`` pass record
13.4M spans instead of 2.8M and take 47% longer (1.86 instead of 1.26
times the untraced pass); their time is charged to the ``words``
function that calls them either way.

Spans stay in memory as columns of the ``array`` module and are written
when the run ends: one JSON header line ({"names": [...], "count": n,
"columns": [[column, typecode], ...]}) followed by each column's raw
bytes in native byte order.  ``parent`` is the row of the enclosing span
or -1, ``job`` the index of the job in the run, ``name`` an index into
``names``, and ``start``/``end`` are ``time.perf_counter`` readings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "words", "zigzag", "vmetric", "relsys", "poset")
UNWRAPPED = frozenset({"words.UpSet.member", "words.is_subword"})
COLUMNS = (("name", "i"), ("parent", "i"), ("job", "i"), ("start", "d"), ("end", "d"))

#: Per-layer call counts reported by ``layer_metrics``: metric -> span names.
CALL_COUNTS = {
    "cli.calls": ("cli.main",),
    "words.leq.calls": ("words.UpSet.leq",),
    "words.join.calls": ("words.UpSet.join",),
    "words.concat.calls": ("words.UpSet.concat",),
    "words.minimal_words.calls": ("words.minimal_words",),
    "words.residual.calls": ("words.left_residual",),
    "zigzag.searches": ("zigzag.zz_generators",),
    "zigzag.member.calls": ("zigzag.zz_member",),
    "vmetric.ball.calls": ("vmetric.VSpace.ball",),
    "vmetric.table_leq.calls": ("vmetric.TableMonoid.leq",),
    "relsys.ball_intersections.calls": ("relsys.RelSys.ball_intersections",),
    "relsys.ball.calls": ("relsys.RelSys.ball",),
    "relsys.olr.calls": ("relsys.RelSys.is_one_local_retract",),
    "poset.leq.calls": ("poset.Poset.leq",),
    "poset.is_gap.calls": ("poset.is_gap",),
}
#: Inclusive time of one span name.
INCLUSIVE_TIMES = {
    "vmetric.closure_s": "vmetric.WordValueMonoid.from_values",
    "vmetric.hyperconvex_s": "vmetric.VSpace.is_hyperconvex",
}
#: Counts read off results: span name -> (metric, size of the result).
RESULT_COUNTS = {
    "zigzag.zz_generators": ("zigzag.truncated", lambda d: 0 if d.complete else 1),
    "zigzag.embed_into_zigzag_product": ("zigzag.embed_factors", lambda e: len(e.factors)),
    "vmetric.WordValueMonoid.from_values": ("vmetric.carrier_values", lambda m: len(m.carrier)),
    "relsys.RelSys.ball_intersections": ("relsys.ballsets", len),
    "poset.find_gaps": ("poset.gaps", len),
}


class Tracer:
    """Records a span for each call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.columns = {column: array(code) for column, code in COLUMNS}
        # [row of the open span or -1, index of the current job]
        self.state = [-1, -1]
        self.results = Counter()
        self.caches: list = []

    def set_job(self, index: int) -> None:
        self.state[1] = index

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        c = self.columns
        add_name, add_parent, add_job = c["name"].append, c["parent"].append, c["job"].append
        starts, ends = c["start"], c["end"]
        add_start, add_end = starts.append, ends.append
        state = self.state
        clock = time.perf_counter
        count = RESULT_COUNTS.get(name)
        results = self.results

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = state[0]
            row = len(starts)
            add_name(nid)
            add_parent(parent)
            add_job(state[1])
            add_start(0.0)
            add_end(0.0)
            state[0] = row
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                starts[row] = t0
                state[0] = parent
            if count is not None:
                results[count[0]] += count[1](result)
            return result

        return span

    def install(self) -> None:
        """Wrap the layers of the imported ``relmetric`` package."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"relmetric.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "words" and hasattr(obj, "cache_info"):
                    self.caches.append(obj)
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "relmetric" or name.startswith("relmetric."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED:
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif callable(obj) and not isinstance(obj, type):
                setattr(cls, attr, self.wrap(name, obj))

    def write(self, path) -> None:
        count = len(self.columns["start"])
        header = {"names": self.names, "count": count, "columns": [list(c) for c in COLUMNS]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column, _ in COLUMNS:
                self.columns[column].tofile(out)

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer, call counts, result counts and cache sizes.

        A span's self time is its duration minus the durations of its
        direct children; a layer's ``self_s`` sums that over its spans.
        """
        c = self.columns
        names, parents, starts, ends = c["name"], c["parent"], c["start"], c["end"]
        child = array("d", bytes(8 * len(starts)))
        for parent, start, end in zip(parents, starts, ends):
            if parent >= 0:
                child[parent] += end - start
        self_s, inclusive = Counter(), Counter()
        for nid, start, end, inner in zip(names, starts, ends, child):
            self_s[nid] += end - start - inner
            inclusive[nid] += end - start
        calls = Counter(names)
        layer_self = Counter()
        for nid, total in self_s.items():
            layer_self[self.names[nid].split(".", 1)[0]] += total
        nid_of = {name: nid for nid, name in enumerate(self.names)}
        out: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        for metric, spans in CALL_COUNTS.items():
            out[metric] = sum(calls[nid_of[s]] for s in spans)
        for metric, span in INCLUSIVE_TIMES.items():
            out[metric] = inclusive[nid_of[span]]
        for metric, _ in RESULT_COUNTS.values():
            out[metric] = self.results[metric]
        out["words.cache_entries"] = sum(f.cache_info().currsize for f in self.caches)
        out["trace.spans"] = len(starts)
        return out
