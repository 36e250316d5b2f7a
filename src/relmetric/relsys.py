"""Finite binary relational systems and their ball geometry.

A system is a finite element set together with a finite family of named
binary relations.  Balls, centers, covers, diameter and radius sets are
the basic geometry; on top of it sit the equally-centered / normal
structure tests, the common fixed-point set of a commuting family of
endomorphisms, the ball characterization of one-local retracts, and
the check that a map retracts a relation onto a subset.

Structure and fixed-point operations require the relation family to be
closed under inversion (involutive); plain geometry works on any system.

Representation: the elements are kept sorted, element i is bit i of an
integer mask, and each system keeps one table of balls, the mask of
B(x, r) for every relation r and center x.  Ball intersections, normal
structure and the one-local-retract test work on that table.  A set A
is equally centered when its radius set equals its diameter set; on
the table that reads: for every relation r, if some x in A has
A inside B(x, r), then every x in A has it.

A system enumerates its ball intersections once and keeps them; the
normal-structure test reads them.  The enumeration is bounded by the
number of intersections it finds, ``BALLSET_CAP``, not by the number
of elements: a system of at most 12 elements has fewer nonempty
subsets than that.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product

from ._record import record
from .errors import (
    CapError,
    HypothesisError,
    InputError,
    InternalCheckError,
    StructureError,
)

BALLSET_CAP = 1 << 12


def _bits(mask: int):
    """The indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _extreme(rows, mask: int) -> int | None:
    """The first index i of a mask with the whole mask inside ``rows[i]``:
    its least element when the rows are up-sets of an order, its greatest
    when they are down-sets; None when it has none."""
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        if mask & ~rows[i] == 0:
            return i
        rest &= rest - 1
    return None


def _transpose(rows) -> tuple[int, ...]:
    """Bit j of row i of the result is bit i of ``rows[j]``: the
    down-sets of an order from its up-sets."""
    return tuple(
        sum(1 << j for j, row in enumerate(rows) if row >> i & 1)
        for i in range(len(rows))
    )


def _transitive_closure(rows) -> list[int]:
    """Warshall's closure on row masks: bit j of row i is set in the
    result when j is reachable from i in one or more steps."""
    rows = list(rows)
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def _subset_mask(index: dict[str, int], subset) -> int:
    """The mask of a subset, rejecting names outside the index."""
    a = frozenset(subset)
    unknown = a.difference(index)
    if unknown:
        raise InputError(f"unknown elements {sorted(unknown)}")
    mask = 0
    for x in a:
        mask |= 1 << index[x]
    return mask


@record
class SelfMap:
    """A total map from a finite element set to itself."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def make(mapping: dict, elements) -> "SelfMap":
        els = set(elements)
        extra = set(mapping) - els
        if extra:
            raise InputError(f"map defined on unknown elements {sorted(extra)}")
        missing = els - set(mapping)
        if missing:
            raise InputError(f"map undefined on {sorted(missing)}")
        bad = {mapping[x] for x in mapping} - els
        if bad:
            raise InputError(f"map image leaves the element set: {sorted(bad)}")
        return SelfMap(tuple(sorted(mapping.items())))

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, x: str) -> str:
        return self.as_dict[x]

    def fixed_points(self) -> frozenset[str]:
        return frozenset(x for x, y in self.pairs if x == y)

    def compose(self, other: "SelfMap") -> "SelfMap":
        # self after other
        return SelfMap(tuple(sorted((x, self.as_dict[y]) for x, y in other.pairs)))

    def commutes_with(self, other: "SelfMap") -> bool:
        return self.compose(other) == other.compose(self)


def retraction_violation(elements, relation, subset, mapping) -> str | None:
    """The first reason the mapping fails to retract a reflexive
    relation on the elements onto the subset, or None when it is a
    retraction: defined on every element, with image in the subset,
    fixing the subset and preserving the relation.  The diagonal pairs
    of the relation may be left out of ``relation``."""
    if set(mapping) != set(elements):
        return "the retraction is not defined on the whole product"
    retract = frozenset(subset)
    for x in sorted(mapping):
        if mapping[x] not in retract:
            return f"the retraction sends {x!r} outside the retract"
    for x in sorted(retract):
        if mapping.get(x) != x:
            return f"the retraction moves the retract element {x!r}"
    for x, y in sorted(relation):
        fx, fy = mapping[x], mapping[y]
        if fx != fy and (fx, fy) not in relation:
            return f"retraction claim invalid: not a homomorphism at ({x!r}, {y!r})"
    return None


@record
class BallSetMember:
    """A nonempty intersection of balls, with one witnessing family."""

    support: frozenset[str]
    witness: tuple[tuple[str, str], ...]  # (center, relation) pairs; () is E
    mask: int  # the support over the system's sorted elements


@record
class OLRResult:
    ok: bool
    table: tuple[tuple[str, str], ...] | None  # x outside A -> retraction image
    violator: str | None

    @property
    def table_dict(self) -> dict[str, str] | None:
        return None if self.table is None else dict(self.table)


@record
class RelSys:
    elements: tuple[str, ...]
    relations: tuple[tuple[str, frozenset[tuple[str, str]]], ...]

    @staticmethod
    def make(elements, relations: dict) -> "RelSys":
        elements = list(elements)
        els = tuple(sorted(set(elements)))
        if len(els) != len(elements):
            raise InputError("duplicate elements")
        rels = []
        for name in sorted(relations):
            pairs = set()
            for pair in relations[name]:
                x, y = pair
                if x not in els or y not in els:
                    raise InputError(f"relation {name!r} mentions unknown pair {pair}")
                pairs.add((x, y))
            rels.append((str(name), frozenset(pairs)))
        return RelSys(els, tuple(rels))

    # ------------------------------------------------------------ structure

    @cached_property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def _rel_position(self, name: str) -> int:
        try:
            return self.relation_names.index(name)
        except ValueError:
            raise InputError(f"unknown relation {name!r}") from None

    def rel(self, name: str) -> frozenset[tuple[str, str]]:
        return self.relations[self._rel_position(name)][1]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _balls(self) -> tuple[tuple[int, ...], ...]:
        """``_balls[r][i]``: the mask of the ball around elements[i] in
        the r-th relation."""
        idx = self._index
        table = []
        for _, pairs in self.relations:
            row = [0] * len(self.elements)
            for x, y in pairs:
                row[idx[x]] |= 1 << idx[y]
            table.append(tuple(row))
        return tuple(table)

    def _names(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[i] for i in _bits(mask))

    @cached_property
    def is_reflexive(self) -> bool:
        return all(
            (x, x) in pairs for _, pairs in self.relations for x in self.elements
        )

    @cached_property
    def is_involutive(self) -> bool:
        """The relation family is closed under inversion."""
        sets = {pairs for _, pairs in self.relations}
        return all(
            frozenset((y, x) for x, y in pairs) in sets for pairs in sets
        )

    @cached_property
    def inverse_name(self) -> dict[str, str]:
        """For involutive systems: a name of the inverse of each relation."""
        if not self.is_involutive:
            raise StructureError("relation family is not closed under inversion")
        by_set: dict[frozenset, str] = {}
        for name, pairs in self.relations:
            by_set.setdefault(pairs, name)
        return {
            name: by_set[frozenset((y, x) for x, y in pairs)]
            for name, pairs in self.relations
        }

    def restrict(self, subset) -> "RelSys":
        sub = frozenset(subset)
        unknown = sub - set(self.elements)
        if unknown:
            raise InputError(f"restriction to unknown elements {sorted(unknown)}")
        return RelSys(
            tuple(sorted(sub)),
            tuple(
                (name, frozenset(p for p in pairs if p[0] in sub and p[1] in sub))
                for name, pairs in self.relations
            ),
        )

    # ------------------------------------------------------------- geometry

    def _position(self, x: str) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise InputError(f"unknown element {x!r}") from None

    def ball(self, x: str, rname: str) -> frozenset[str]:
        return self._names(self._balls[self._rel_position(rname)][self._position(x)])

    def center(self, subset, rname: str) -> frozenset[str]:
        a = frozenset(subset)
        return frozenset(x for x in self.elements if a <= self.ball(x, rname))

    def cov(self, subset) -> frozenset[str]:
        """Intersection of all balls containing the subset; E if none."""
        a = frozenset(subset)
        out = frozenset(self.elements)
        for x in self.elements:
            for rname in self.relation_names:
                b = self.ball(x, rname)
                if a <= b:
                    out &= b
        return out

    def diameter_set(self, subset) -> frozenset[str]:
        a = frozenset(subset)
        return frozenset(
            name
            for name, pairs in self.relations
            if all((x, y) in pairs for x in a for y in a)
        )

    def radius_set(self, subset) -> frozenset[str]:
        a = frozenset(subset)
        return frozenset(
            name
            for name in self.relation_names
            if any(a <= self.ball(x, name) for x in a)
        )

    def is_equally_centered(self, subset) -> bool:
        """The radius set equals the diameter set.  A relation r is in
        the radius set when some x in A has A inside B(x, r), and in the
        diameter set when every x in A has it; so a nonempty A is
        equally centered when, for every r, some implies every.  The
        empty set has no radius and every relation as diameter."""
        a = sum(1 << self._position(x) for x in frozenset(subset))
        return self._equally_centered(a)

    def _equally_centered(self, a: int) -> bool:
        points = list(_bits(a))
        for row in self._balls:
            inside = [a & ~row[i] == 0 for i in points]
            if any(inside) and not all(inside):
                return False
        return bool(a) or not self.relations

    # ------------------------------------------------- ball intersections

    def ball_intersections(self) -> tuple[BallSetMember, ...]:
        """All nonempty intersections of balls, including E (the empty
        intersection), each with one witnessing ball family: the first
        found by a breadth-first scan that meets each new intersection
        with every ball, centers outermost.  Enumerated once per system;
        more than ``BALLSET_CAP`` intersections raise ``CapError``."""
        return self._ball_sets

    @cached_property
    def _ball_sets(self) -> tuple[BallSetMember, ...]:
        full = (1 << len(self.elements)) - 1
        found: dict[int, tuple] = {full: ()}
        frontier = [full]
        balls = [
            (self._balls[r][i], (x, rname))
            for i, x in enumerate(self.elements)
            for r, rname in enumerate(self.relation_names)
        ]
        while frontier:
            nxt = []
            for support in frontier:
                witness = found[support]
                for b, tag in balls:
                    inter = support & b
                    if inter and inter not in found:
                        found[inter] = witness + (tag,)
                        nxt.append(inter)
                        if len(found) > BALLSET_CAP:
                            raise CapError(
                                f"more than {BALLSET_CAP} ball intersections"
                            )
            frontier = nxt
        keyed = sorted((m.bit_count(), tuple(_bits(m)), m) for m in found)
        return tuple(
            BallSetMember(self._names(m), found[m], m) for _, _, m in keyed
        )

    def has_normal_structure(self) -> tuple[bool, frozenset[str] | None]:
        """No nonempty ball intersection other than a singleton is
        equally centered.  Returns the verdict and a counterexample."""
        for m in self.ball_intersections():
            if len(m.support) != 1 and self._equally_centered(m.mask):
                return False, m.support
        return True, None

    # ------------------------------------------------------------ self-maps

    def is_endomorphism(self, f: SelfMap) -> bool:
        fd = f.as_dict
        if set(fd) != set(self.elements):
            return False
        return all(
            (fd[x], fd[y]) in pairs for _, pairs in self.relations for x, y in pairs
        )

    def endomorphisms(self):
        """All endomorphisms, in a deterministic order.  Exponential in
        the number of elements; intended for small systems."""
        els = self.elements
        for values in product(els, repeat=len(els)):
            f = SelfMap(tuple(zip(els, values)))
            if self.is_endomorphism(f):
                yield f

    # --------------------------------------------------------- fixed points

    def fixed_set(self, maps) -> tuple[frozenset[str], OLRResult]:
        """The common fixed-point set of commuting endomorphisms and the
        one-local-retract test of it.  A map that is not an
        endomorphism, or two maps that do not commute, raise
        ``InputError``."""
        maps = list(maps)
        for i, f in enumerate(maps):
            if not self.is_endomorphism(f):
                raise InputError(f"map {i} is not an endomorphism")
        for (i, f), (j, g) in combinations(enumerate(maps), 2):
            if not f.commutes_with(g):
                raise InputError(f"maps {i} and {j} do not commute")
        fix = frozenset(self.elements)
        for f in maps:
            fix &= f.fixed_points()
        return fix, self.is_one_local_retract(fix)

    def common_fixed_points(self, maps) -> tuple[frozenset[str], OLRResult]:
        """The common fixed-point set of a commuting family of
        endomorphisms of a reflexive involutive system with normal
        structure, with a certificate that it is a one-local retract."""
        if not self.is_reflexive:
            raise StructureError("common fixed points need a reflexive system")
        if not self.is_involutive:
            raise StructureError("common fixed points need an involutive system")
        ok, witness = self.has_normal_structure()
        if not ok:
            raise HypothesisError(
                f"no normal structure: {sorted(witness)} is equally centered"
            )
        fix, olr = self.fixed_set(maps)
        if not fix:
            raise InternalCheckError(
                "commuting family on a normal system has no common fixed point"
            )
        if not olr.ok:
            raise InternalCheckError(
                "common fixed-point set is not a one-local retract"
            )
        return fix, olr

    # ---------------------------------------------------- one-local retracts

    def is_one_local_retract(self, subset) -> OLRResult:
        """Ball test: A is a one-local retract iff for every outside x
        the balls around A that contain x still meet A.  The retraction
        table sends each x to the least element of that intersection,
        the lowest set bit of its mask."""
        if not self.is_reflexive or not self.is_involutive:
            raise StructureError(
                "the one-local retract test needs a reflexive involutive system"
            )
        a = _subset_mask(self._index, subset)
        centers = list(_bits(a))
        table = []
        for x in _bits(((1 << len(self.elements)) - 1) & ~a):
            hit = a
            for row in self._balls:
                for u in centers:
                    if row[u] >> x & 1:
                        hit &= row[u]
            if not hit:
                return OLRResult(False, None, self.elements[x])
            anchor = (hit & -hit).bit_length() - 1
            table.append((self.elements[x], self.elements[anchor]))
        return OLRResult(True, tuple(table), None)

    def retraction_exists(self, subset, x: str) -> bool:
        """Definitional check: some map fixing A and sending x into A is
        a homomorphism of the restriction to A + x.  Exhaustive over
        candidate images; the oracle for the ball test."""
        a = frozenset(subset)
        if x in a:
            return True
        scope = a | {x}
        for target in sorted(a):
            ok = True
            for _, pairs in self.relations:
                for u, v in pairs:
                    if u not in scope or v not in scope:
                        continue
                    uu = target if u == x else u
                    vv = target if v == x else v
                    if (uu, vv) not in pairs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
        return False
