"""Seeded inputs, job lists and expected outcomes of the benchmark.

Nothing here imports relmetric.  The inputs come from this module's own
enumerators, so a change to, say, ``poset.all_posets`` cannot change a
workload, and the program only ever sees the JSON files written here.
Expected outcomes come from three sources:

* small definitional oracles in this module (joins and gaps of a poset,
  its normal structure, zigzag distances of 3-vertex digraphs by brute
  force, fixed points of the given maps);
* theorems of the paper: the space of a poset is hyperconvex exactly
  when the poset is a complete lattice, and the zigzag distance between
  two positions of a path graph is the principal up-set of the letters
  between them;
* ``pinned.json`` for the verdicts and exit codes of the word-valued
  checks, ``embed`` and ``fixpoint`` on digraphs, which no cheap oracle
  decides.  Those outcomes do not depend on vertex names, so one entry
  per isomorphism class (or path word) covers every seeded relabeling.
  ``pin.py`` rewrites the file from the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")

#: Commands whose certificates carry witnesses that ``verify`` re-checks
#: without recomputing the command; the ``verify`` workload uses these.
WITNESS_COMMANDS = ("distance", "embed", "fixpoint", "gaps", "holes", "demo")
ORDER_CHECKS = ("hyperconvex", "lattice", "normal")
ZIGZAG_CHECKS = ("macneille", "axioms", "bounded", "macneille-bounded", "hyperconvex")
#: relmetric.poset.GAP_CAP: ``gaps`` and ``holes`` refuse larger posets.
GAP_CAP = 8
FIVE_POINT_SAMPLE = 180
CHAIN_PRODUCTS = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (2, 2, 2), (2, 2, 3))
FENCE_DEMOS = 20
PATH_WORDS = ("+-", "+-+", "+-+-")


@dataclass
class Job:
    """One ``relmetric`` invocation (without ``--out``) and what it must give.

    ``expect`` holds ``exit`` and, where known, ``verdict`` and ``fields``
    (certificate fields that must be equal) and ``gaps`` (the sorted lower
    parts of the listed gaps).
    """

    id: str
    argv: list[str]
    expect: dict

    @property
    def command(self) -> str:
        return self.argv[0]


class Inputs:
    """Writes input documents into one directory, named in order."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.dir / f"i{self.count:05d}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return path.as_posix()


def check_outcome(job: Job, code, cert: dict | None) -> str | None:
    """Why the outcome of a job is wrong, or None when it is right.

    A pinned refusal (exit 3) that became a certificate is accepted here;
    the certificate must still match what is known and pass ``verify``.
    """
    want = job.expect
    if code != want["exit"] and not (want["exit"] == 3 and code == 0):
        return f"exit {code}, expected {want['exit']}"
    if code != 0:
        return None
    if cert is None:
        return "no certificate"
    if "verdict" in want and cert.get("verdict") != want["verdict"]:
        return f"verdict {cert.get('verdict')!r}, expected {want['verdict']!r}"
    for key, value in want.get("fields", {}).items():
        if cert.get(key) != value:
            return f"{key} {cert.get(key)!r}, expected {value!r}"
    if "gaps" in want:
        entries = cert.get("gaps", cert.get("holes"))
        lowers = sorted(sorted(e.get("gap", e)["lower"]) for e in entries)
        if lowers != want["gaps"]:
            return f"gaps {lowers}, expected {want['gaps']}"
    return None


# ------------------------------------------------------------------ orders


class Order:
    """A finite strict order given by its transitively closed pairs."""

    def __init__(self, elements, lt):
        self.elements = tuple(sorted(elements))
        self.lt = frozenset(lt)

    @staticmethod
    def closed(elements, pairs) -> "Order":
        lt = set(pairs)
        while True:
            extra = {(x, z) for x, y in lt for y2, z in lt if y == y2} - lt
            if not extra:
                return Order(elements, lt)
            lt |= extra

    def leq(self, x, y) -> bool:
        return x == y or (x, y) in self.lt

    def sup(self, subset):
        upper = [z for z in self.elements if all(self.leq(a, z) for a in subset)]
        least = [z for z in upper if all(self.leq(z, w) for w in upper)]
        return least[0] if least else None

    def is_complete_lattice(self) -> bool:
        # Finite: a bottom and joins of pairs give every join.
        return self.sup(()) is not None and all(
            self.sup(pair) is not None for pair in combinations(self.elements, 2)
        )

    def gap_lowers(self) -> list[list[str]]:
        """The subsets without a join; each is the lower part of one gap."""
        return sorted(
            list(c)
            for k in range(len(self.elements) + 1)
            for c in combinations(self.elements, k)
            if self.sup(c) is None
        )

    def doc(self) -> dict:
        covers = sorted(
            [x, y]
            for x, y in self.lt
            if not any((x, z) in self.lt and (z, y) in self.lt for z in self.elements)
        )
        return {"elements": list(self.elements), "covers": covers}

    def has_normal_structure(self) -> bool:
        """Definitional test on the relational view of the order space.

        The relations are the four distance values 0 <= +,- <= 1, so the
        balls around x are {x}, the up-set, the down-set and everything.
        No nonempty ball intersection other than a singleton may have
        its radius set equal to its diameter set.
        """
        els = self.elements

        def dist(x, y) -> str:
            if x == y:
                return "0"
            if (x, y) in self.lt:
                return "+"
            return "-" if (y, x) in self.lt else "1"

        below = {"0": {"0"}, "+": {"0", "+"}, "-": {"0", "-"}, "1": {"0", "+", "-", "1"}}
        balls = [
            frozenset(y for y in els if dist(x, y) in below[v]) for x in els for v in below
        ]
        found = {frozenset(els)}
        frontier = list(found)
        while frontier:
            fresh = {s & b for s in frontier for b in balls if s & b} - found
            found |= fresh
            frontier = list(fresh)
        for s in found:
            if len(s) == 1:
                continue
            diameter = {v for v in below if all(dist(x, y) in below[v] for x in s for y in s)}
            radius = {
                v for v in below if any(all(dist(x, y) in below[v] for y in s) for x in s)
            }
            if diameter == radius:
                return False
        return True


def all_orders(names) -> list[Order]:
    """Every strict order on the labeled points (219 on four)."""
    cells = [(x, y) for x in names for y in names if x != y]
    out = []
    for bits in product((False, True), repeat=len(cells)):
        rel = {c for c, b in zip(cells, bits) if b}
        if any((y, x) in rel for x, y in rel):
            continue
        if any((x, z) not in rel for x, y in rel for y2, z in rel if y == y2 and x != z):
            continue
        out.append(Order(names, rel))
    return out


def sample_orders(rng: random.Random, names, count: int) -> list[Order]:
    """Distinct random orders: random pairs along a random linear order,
    transitively closed."""
    seen: dict[frozenset, Order] = {}
    while len(seen) < count:
        line = rng.sample(list(names), len(names))
        p = rng.uniform(0.15, 0.6)
        pairs = [(a, b) for a, b in combinations(line, 2) if rng.random() < p]
        order = Order.closed(names, pairs)
        seen.setdefault(order.lt, order)
    return list(seen.values())


def chain_product(shape) -> Order:
    points = list(product(*(range(n) for n in shape)))
    name = {p: "|".join(map(str, p)) for p in points}
    lt = {
        (name[p], name[q])
        for p in points
        for q in points
        if p != q and all(a <= b for a, b in zip(p, q))
    }
    return Order(name.values(), lt)


def fence_demo(rng: random.Random) -> tuple[dict, list[str]]:
    """A fence-retract demo on the product of the fences + and - (the
    input of ACCEPT-14), and its common fixed points.

    The retract is a slice {v0, v1} x {c}, through (x, y) -> (x, c); the
    maps are the identity, sometimes with a constant map, and those
    commute.  Only this product is used: on a retract isomorphic to the
    fence +-+ the demo exits 1, because the order space of that fence
    has no normal structure, and the benchmark runs only jobs on which
    the program is expected to succeed.
    """
    c = rng.randrange(2)
    sub = [f"v0|v{c}", f"v1|v{c}"]
    maps = [{s: s for s in sub}]
    if rng.random() < 0.5:
        target = rng.choice(sub)
        maps.append({s: target for s in sub})
    doc = {
        "kind": "fence-retract",
        "orientations": ["+", "-"],
        "sub": sub,
        "retraction": {f"v{i}|v{j}": f"v{i}|v{c}" for i in range(2) for j in range(2)},
        "maps": maps,
    }
    fixed = sorted(s for s in sub if all(m[s] == s for m in maps))
    return doc, fixed


def orders_jobs(inputs: Inputs, rng: random.Random) -> list[Job]:
    """Short jobs over the four-value monoid, in their seeded order."""
    orders = all_orders("abcd")
    orders += sample_orders(rng, "abcde", FIVE_POINT_SAMPLE)
    orders += [chain_product(shape) for shape in CHAIN_PRODUCTS]
    jobs: list[Job] = []

    def add(argv, expect):
        jobs.append(Job(f"o{len(jobs):05d}", argv, expect))

    for order in orders:
        path = inputs.write(order.doc())
        lattice = order.is_complete_lattice()
        verdicts = {
            "hyperconvex": lattice,
            "lattice": lattice,
            "normal": order.has_normal_structure(),
        }
        for prop in ORDER_CHECKS:
            add(["check", prop, "--input", path], {"exit": 0, "verdict": verdicts[prop]})
        refused = len(order.elements) > GAP_CAP
        for command in ("gaps", "holes"):
            expect = {"exit": 3 if refused else 0, "verdict": True, "gaps": order.gap_lowers()}
            if command == "gaps":
                expect["fields"] = {"complete_lattice": lattice}
            add([command, "--input", path], expect)
        if lattice:
            a, b = rng.choice(order.elements), rng.choice(order.elements)
            maps = [
                inputs.write({x: order.sup((t, x)) for x in order.elements}) for t in (a, b)
            ]
            fixed = [x for x in order.elements if order.leq(a, x) and order.leq(b, x)]
            add(
                ["fixpoint", "--input", path, "--maps", *maps],
                {"exit": 0, "verdict": True, "fields": {"fixed_points": fixed}},
            )
    for _ in range(FENCE_DEMOS):
        doc, fixed = fence_demo(rng)
        add(
            ["demo", "--input", inputs.write(doc)],
            {"exit": 0, "verdict": True, "fields": {"fixed_points": fixed}},
        )
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ zigzag


def _is_subword(u: str, v: str) -> bool:
    it = iter(v)
    return all(c in it for c in u)


def _involute(w: str) -> str:
    return w[::-1].translate(str.maketrans("+-", "-+"))


def zigzag_generators(vertices, arcs, x: str, y: str) -> list[str]:
    """Minimal words of the zigzag distance, by brute force.

    A word acts on vertex sets through the arcs ("+") or the reversed
    arcs ("-"), loops included.  A minimal word heads a run without a
    repeated state, so no generator is longer than 2**n - 2 letters.
    """
    arcs = set(arcs) | {(v, v) for v in vertices}
    step = {
        "+": {v: {b for a, b in arcs if a == v} for v in vertices},
        "-": {v: {a for a, b in arcs if b == v} for v in vertices},
    }
    found: list[str] = []
    level = {"": frozenset([x])}
    for length in range(2 ** len(vertices)):
        grown = {}
        for w, state in level.items():
            if y in state:
                if not any(_is_subword(g, w) for g in found):
                    found.append(w)
                continue
            for c in "+-":
                nxt = frozenset().union(*(step[c][v] for v in state))
                if nxt:
                    grown[w + c] = nxt
        level = grown
    return sorted(found)


def digraph_classes() -> list[tuple[tuple[str, str], ...]]:
    """One canonical arc set for each of the 16 isomorphism classes of
    digraphs on the vertices 0, 1, 2 (loops left implicit)."""
    vs = ("0", "1", "2")
    cells = [(a, b) for a in vs for b in vs if a != b]
    relabelings = [dict(zip(vs, p)) for p in permutations(vs)]
    canon = set()
    for bits in product((False, True), repeat=len(cells)):
        arcs = [c for c, b in zip(cells, bits) if b]
        canon.add(min(tuple(sorted((r[a], r[b]) for a, b in arcs)) for r in relabelings))
    return sorted(canon)


def class_key(arcs) -> str:
    return ",".join(f"{a}>{b}" for a, b in arcs) or "none"


def path_arcs(word: str, names) -> list[tuple[str, str]]:
    return [
        (names[i], names[i + 1]) if c == "+" else (names[i + 1], names[i])
        for i, c in enumerate(word)
    ]


def homomorphisms(vertices, arcs) -> list[dict[str, str]]:
    """Every arc-preserving self-map of a reflexive digraph."""
    arcs = set(arcs) | {(v, v) for v in vertices}
    out = []
    for images in product(vertices, repeat=len(vertices)):
        f = dict(zip(vertices, images))
        if all((f[a], f[b]) in arcs for a, b in arcs):
            out.append(f)
    return out


def zigzag_graphs(rng: random.Random):
    """(pin key, vertices, arcs, distance generators by ordered pair) for
    each class representative under a seeded relabeling, then for the
    path graph of each word with seeded names for its positions."""
    out = []
    for arcs in digraph_classes():
        names = dict(zip("012", rng.sample("012", 3)))
        vs = sorted(names.values())
        relabeled = sorted((names[a], names[b]) for a, b in arcs)
        distances = {(x, y): zigzag_generators(vs, relabeled, x, y) for x in vs for y in vs}
        out.append((class_key(arcs), vs, relabeled, distances))
    for word in PATH_WORDS:
        names = rng.sample([str(i) for i in range(len(word) + 1)], len(word) + 1)
        distances = {
            (x, y): [word[i:j] if i <= j else _involute(word[j:i])]
            for i, x in enumerate(names)
            for j, y in enumerate(names)
        }
        out.append((word, sorted(names), path_arcs(word, names), distances))
    return out


def accept14_demos() -> list[tuple[dict, str]]:
    """The zigzag demo input of ACCEPT-14, by the direct route and, as
    the product of the single path graph of "+", by the retract route."""
    graph = {"vertices": ["0", "1"], "arcs": [["0", "1"]], "add_loops": True}
    maps = [{"0": "0", "1": "1"}]
    direct = {"kind": "zigzag", "graph": graph, "maps": maps}
    retract = dict(direct, factor_words=["+"], retraction={"0": "0", "1": "1"})
    return [(direct, "direct"), (retract, "retract")]


def zigzag_jobs(inputs: Inputs, rng: random.Random) -> list[Job]:
    """Word-valued jobs on 3-vertex digraphs and path graphs, seeded order."""
    pins = json.loads(PINNED.read_text())
    jobs: list[Job] = []

    def add(argv, expect):
        jobs.append(Job(f"z{len(jobs):05d}", argv, expect))

    def pinned(pin, key, extra=None):
        code, verdict = pin[key]
        expect = {"exit": code}
        if code == 0:
            expect["verdict"] = verdict
            expect.update(extra or {})
        return expect

    for key, vs, arcs, distances in zigzag_graphs(rng):
        pin = pins[key]
        path = inputs.write(
            {"vertices": vs, "arcs": [list(a) for a in arcs], "add_loops": True}
        )
        for x in vs:
            for y in vs:
                add(
                    ["distance", "--input", path, "--from", x, "--to", y],
                    {
                        "exit": 0,
                        "verdict": True,
                        "fields": {"generators": distances[x, y], "complete": True},
                    },
                )
        for prop in ZIGZAG_CHECKS:
            add(["check", prop, "--input", path], pinned(pin, f"check {prop}"))
        add(["embed", "--input", path], pinned(pin, "embed"))
        f = rng.choice(homomorphisms(vs, arcs))
        fixed = sorted(v for v in vs if f[v] == v)
        add(
            ["fixpoint", "--input", path, "--maps", inputs.write(f)],
            pinned(pin, "fixpoint", {"fields": {"fixed_points": fixed}}),
        )
    for doc, route in accept14_demos():
        add(
            ["demo", "--input", inputs.write(doc)],
            {
                "exit": 0,
                "verdict": True,
                "fields": {"route": route, "fixed_points": ["0", "1"]},
            },
        )
    rng.shuffle(jobs)
    return jobs


def verify_job(job_id: str, cert: str) -> Job:
    """``relmetric verify`` on one certificate, which must pass."""
    return Job(job_id, ["verify", "--cert", cert], {"exit": 0, "verdict": True})
