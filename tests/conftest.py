"""Shared corpus generators for the test suite.

Everything is driven by explicit ``random.Random`` seeds so that every
run enumerates the same corpus.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from relmetric.errors import InputError
from relmetric.relsys import OLRResult, RelSys, SelfMap


def all_strict_orders(n: int) -> list[frozenset]:
    """All transitive irreflexive relations on n labeled points.

    Exhaustive over subsets of off-diagonal cells; practical for n <= 4.
    """
    points = [str(i) for i in range(n)]
    cells = [(x, y) for x in points for y in points if x != y]
    out = []
    for bits in product((False, True), repeat=len(cells)):
        rel = {c for c, b in zip(cells, bits) if b}
        transitive = all(
            (x, z) in rel for x, y in rel for y2, z in rel if y2 == y
        )
        if transitive and not any((y, x) in rel for x, y in rel):
            out.append(frozenset(rel))
    return out


def random_strict_order(rng: random.Random, n: int) -> frozenset:
    """A random strict order via a random DAG on a shuffled topological
    order, transitively closed."""
    points = [str(i) for i in range(n)]
    order = points[:]
    rng.shuffle(order)
    rel = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.45:
            rel.add((order[i], order[j]))
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return frozenset(rel)


def closure_system_lattice(rng: random.Random, base_size: int = 3, extra: int = 3):
    """Element names of a random intersection-closed family over a small
    base set, which ordered by inclusion is always a complete lattice.

    Returns (elements, strict_pairs) with elements encoded as sorted
    juxtaposed base letters ("" for the empty set when generated).
    """
    base = "abcdef"[:base_size]
    family = {frozenset(base)}
    for _ in range(extra):
        family.add(frozenset(c for c in base if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for s, t in list(combinations(family, 2)):
            if s & t not in family:
                family.add(s & t)
                changed = True
    name = {s: "".join(sorted(s)) or "O" for s in family}
    els = sorted(name[s] for s in family)
    lt = frozenset(
        (name[s], name[t]) for s in family for t in family if s < t
    )
    return els, lt


def random_reflexive_involutive_system(
    rng: random.Random, n: int, nrel: int = 1, density: float = 0.35
) -> RelSys:
    els = [str(i) for i in range(n)]
    rels: dict[str, set] = {}
    for k in range(nrel):
        pairs = {(x, x) for x in els}
        for x in els:
            for y in els:
                if x != y and rng.random() < density:
                    pairs.add((x, y))
        rels[f"r{k}"] = pairs
    existing = [frozenset(p) for p in rels.values()]
    for name, pairs in list(rels.items()):
        inv = frozenset((y, x) for x, y in pairs)
        if inv not in existing:
            rels[name + "i"] = set(inv)
            existing.append(inv)
    return RelSys.make(els, rels)


def random_reflexive_digraph(rng: random.Random, n: int, density: float = 0.4):
    """(vertices, arcs) with all loops present."""
    vs = [str(i) for i in range(n)]
    arcs = {(v, v) for v in vs}
    for x in vs:
        for y in vs:
            if x != y and rng.random() < density:
                arcs.add((x, y))
    return vs, arcs


def monotone_selfmaps(elements, lt: frozenset, limit: int | None = None):
    """All order-preserving self-maps of a strict order, deterministic
    order, optionally truncated."""
    els = sorted(elements)
    leq = {(x, y) for (x, y) in lt} | {(x, x) for x in els}
    out = []
    for values in product(els, repeat=len(els)):
        f = dict(zip(els, values))
        if all((f[x], f[y]) in leq for x, y in lt):
            out.append(SelfMap(tuple(sorted(f.items()))))
            if limit is not None and len(out) >= limit:
                break
    return out


def v4_space_from_order(elements, lt: frozenset):
    """The four-valued space of a strict order: 0 on the diagonal, +
    strictly below, - strictly above, 1 between incomparable points.

    Built here from scratch so it can serve as an independent oracle.
    """
    from relmetric.vmetric import VSpace, v4_monoid

    els = sorted(elements)
    dist = {}
    for x in els:
        for y in els:
            if x == y:
                dist[x, y] = "0"
            elif (x, y) in lt:
                dist[x, y] = "+"
            elif (y, x) in lt:
                dist[x, y] = "-"
            else:
                dist[x, y] = "1"
    return VSpace.make(els, v4_monoid(), dist)


def metric_one_local_retract(space, subset) -> OLRResult:
    """The one-local-retract test read off the distances: for every
    outside point x some a* in A must satisfy ``d(a, a*) <= d(a, x)``
    for all a in A; then the identity on A extends to a non-expansive
    retraction of A + {x} sending x to a*.  The table records the least
    such a*.  The oracle for ``RelSys.is_one_local_retract`` on the
    relational view of the space."""
    a = frozenset(subset)
    unknown = a - set(space.elements)
    if unknown:
        raise InputError(f"unknown elements {sorted(unknown)}")
    if not a:
        raise InputError("a one-local retract must be nonempty")
    m = space.monoid
    anchors = sorted(a)
    table = []
    for x in sorted(set(space.elements) - a):
        good = [
            b
            for b in anchors
            if all(m.leq(space.d(z, b), space.d(z, x)) for z in anchors)
        ]
        if not good:
            return OLRResult(False, None, x)
        table.append((x, good[0]))
    return OLRResult(True, tuple(table), None)
