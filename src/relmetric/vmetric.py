"""Metric spaces whose distances take values in an involutive ordered monoid.

A value monoid carries a lattice order with least element ``0`` (neutral
for the monoid operation ``oplus``) and an involution that reverses
``oplus``.  A space assigns a value to every ordered pair of points,
subject to three axioms: ``d(x,y) <= 0`` iff ``x == y``, the triangle
inequality ``d(x,y) <= d(x,z) (+) d(z,y)``, and the involution law
``involute(d(y,x)) == d(x,y)``.

Provided here:

* :class:`TableMonoid` -- finite value monoids given by explicit
  tables, including :func:`v4_monoid`, the four-value monoid whose
  spaces are exactly the partial orders;
* :class:`WordValueMonoid` -- values that are final segments of signed
  words (see :mod:`.words`) with a finite quantification carrier;
* :class:`VSpace` -- finite spaces with balls, diameter and radius,
  the relational-system view, hyperconvexity and boundedness checks,
  products, and the canonical isometric embedding given by distance
  profiles;
* holes (radius maps whose balls miss a common point), hole images
  under maps, and the hole-preservation test.

Hyperconvexity and boundedness quantify over values: they range over
the monoid's finite carrier, which a space closes itself
(:meth:`VSpace.closed`) whatever carrier it was built over, so
word-valued verdicts are relative to that closed set.  The axioms, the
radius and the relational view read the distances alone; hole
preservation closes the carrier only to round up a value outside it.

Representation: a monoid keeps its order as one mask per carrier value,
the values above it.  A table monoid keeps the masks that ``make``
closes from its order pairs, reads meets, joins, zero and top as the
extremes of ANDed masks, and tabulates the distance of every pair of
values.  A word-value
carrier is grown by two closures: joins on up-sets, each value joined
only with the generating values, and meets on integer masks, run to a
fixpoint between join rounds.  The meet closure keeps each value as the
masks of its generator words and of its up-set over an index of the
words, and the monoid reads its order off those masks.  Closed carriers
are kept for the life of the process, the last 64 by use, keyed by the
generator set (the seeds, 0, top and their involutes), the product
length bound and the cap; a refusal is kept as the text of its
``CapError``.  A carrier is immutable and shared by every space built on
the same key.  A space keeps one table of balls, the mask of B(x, v) for
every element x and carrier index of v, where bit j stands for the j-th
element in sorted order, built from the order masks.  Hyperconvexity
(ball classes, the disjointness test and the clique search) reads the
table of the closed space, and holes the table of the space itself; a
radius outside its carrier is scanned with the monoid's order.
"""

from __future__ import annotations

import json
from functools import cache, cached_property, lru_cache
from itertools import combinations, product as iter_product
from typing import Iterable, Mapping

from . import words
from ._record import record
from .errors import (
    CapError,
    HypothesisError,
    InputError,
    InternalCheckError,
    StructureError,
)
from .relsys import RelSys, _bits, _extreme, _transitive_closure, _transpose
from .words import UpSet

CARRIER_CAP = 512
PRODUCT_CAP = 256


# --------------------------------------------------------------- value monoids


class ValueMonoid:
    """Shared derived operations over a finite carrier of values.

    Subclasses provide the primitives: ``carrier``, ``zero``, ``top``,
    ``oplus``, ``involute``, ``leq``, ``meet``, ``join``, ``name`` and
    ``value``, and the order as masks, ``_up``.
    """

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.carrier)}

    def contains(self, v) -> bool:
        return v in self._index

    def index(self, v) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise InputError(f"value {v!r} is not in the carrier") from None

    def meet_all(self, values: Iterable):
        out = None
        for v in values:
            out = v if out is None else self.meet(out, v)
        return self.top if out is None else out

    def join_all(self, values: Iterable):
        out = None
        for v in values:
            out = v if out is None else self.join(out, v)
        return self.zero if out is None else out

    def dist(self, p, q):
        """Distance of the value monoid on itself: the least r with
        ``q <= p (+) r`` and ``p <= q (+) involute(r)``, searched over
        the carrier for all pairs at the first call."""
        try:
            r = self._dists[self._index[p]][self._index[q]]
        except (KeyError, TypeError):
            r = self._dists[self.index(p)][self.index(q)]
        if r is None:
            raise StructureError(
                f"value monoid is not residuated at ({self.name(p)}, {self.name(q)})"
            )
        return r

    @cached_property
    def _dists(self) -> tuple[tuple, ...]:
        """``_dists[i][j]``: the distance from carrier[i] to carrier[j],
        None where the solutions have no least element."""
        up = self._up
        table = []
        for p in self.carrier:
            row = []
            for q in self.carrier:
                sols = sum(
                    1 << k
                    for k, r in enumerate(self.carrier)
                    if self.leq(q, self.oplus(p, r))
                    and self.leq(p, self.oplus(q, self.involute(r)))
                )
                least = _extreme(up, sols)
                row.append(None if least is None else self.carrier[least])
            table.append(tuple(row))
        return tuple(table)

    def accessibility_value_witness(self, v):
        """A value r with ``not leq(v, r)`` and
        ``leq(v, r (+) involute(r))``, or None; searched over the
        carrier."""
        for r in self.carrier:
            if not self.leq(v, r) and self.leq(v, self.oplus(r, self.involute(r))):
                return r
        return None

    def is_accessible(self, v) -> bool:
        return self.accessibility_value_witness(v) is not None

    def inaccessible_values(self) -> tuple:
        return tuple(v for v in self.carrier if not self.is_accessible(v))


@record
class TableMonoid(ValueMonoid):
    """A value monoid given by explicit finite tables.

    The carrier is a tuple of value names.  The order must be a lattice
    whose least element is neutral for ``oplus``; ``oplus`` must be
    associative and monotone; the involution must be an order
    automorphism of period two that reverses ``oplus``.  All of this is
    validated in :meth:`make`; after that ``oplus`` and ``involute``
    read the tables through the carrier index, ``leq`` reads ``_up``,
    the mask of the values above each value, and a value outside the
    carrier is rejected by ``index``.  Meets, joins, zero and top are
    the extremes of ANDed masks: the join of a and b is the least value
    above both, the least index in ``_up[a] & _up[b]`` whose up-set
    holds them all, and dually on the down-sets for the meet.
    """

    carrier: tuple[str, ...]
    _up: tuple[int, ...]
    oplus_table: tuple[tuple[str, ...], ...]
    involution: tuple[str, ...]

    @staticmethod
    def make(carrier, leq, oplus: Mapping, involution: Mapping) -> "TableMonoid":
        els = tuple(carrier)
        if not els or len(els) != len(set(els)):
            raise InputError("carrier must be a nonempty sequence of distinct names")
        if not all(isinstance(x, str) and x for x in els):
            raise InputError("carrier values must be nonempty strings")
        idx = {x: i for i, x in enumerate(els)}
        up = [1 << i for i in range(len(els))]
        for x, y in leq:
            if x not in idx or y not in idx:
                raise InputError(f"order pair ({x!r}, {y!r}) leaves the carrier")
            up[idx[x]] |= 1 << idx[y]
        up = tuple(_transitive_closure(up))
        for i, row in enumerate(up):
            for j in _bits(row):
                if j > i and up[j] >> i & 1:
                    raise InputError(f"order cycle through {els[i]!r} and {els[j]!r}")
        rows = []
        for a in els:
            row = []
            for b in els:
                try:
                    c = oplus[a, b]
                except KeyError:
                    raise InputError(f"oplus undefined at ({a!r}, {b!r})") from None
                if c not in idx:
                    raise InputError(f"oplus({a!r}, {b!r}) leaves the carrier")
                row.append(c)
            rows.append(tuple(row))
        inv = []
        for a in els:
            try:
                b = involution[a]
            except KeyError:
                raise InputError(f"involution undefined at {a!r}") from None
            if b not in idx:
                raise InputError(f"involution of {a!r} leaves the carrier")
            inv.append(b)
        down = _transpose(up)
        for bounds, kind in ((down, "meet"), (up, "join")):
            for i, j in combinations(range(len(els)), 2):
                if _extreme(bounds, bounds[i] & bounds[j]) is None:
                    raise InputError(
                        f"not a lattice: ({els[i]!r}, {els[j]!r}) has no {kind}"
                    )
        monoid = TableMonoid(els, up, tuple(rows), tuple(inv))
        zero = monoid.zero
        for a in els:
            if monoid.oplus(zero, a) != a or monoid.oplus(a, zero) != a:
                raise InputError("the least value must be neutral for oplus")
            if monoid.involute(monoid.involute(a)) != a:
                raise InputError("involution must have period two")
        for a in els:
            for b in els:
                if monoid.leq(a, b) != monoid.leq(monoid.involute(a), monoid.involute(b)):
                    raise InputError("involution must preserve the order")
                got = monoid.involute(monoid.oplus(a, b))
                if got != monoid.oplus(monoid.involute(b), monoid.involute(a)):
                    raise InputError("involution must reverse oplus")
                for c in els:
                    left = monoid.oplus(monoid.oplus(a, b), c)
                    if left != monoid.oplus(a, monoid.oplus(b, c)):
                        raise InputError("oplus is not associative")
                    if monoid.leq(a, b):
                        if not monoid.leq(monoid.oplus(a, c), monoid.oplus(b, c)):
                            raise InputError("oplus is not monotone")
                        if not monoid.leq(monoid.oplus(c, a), monoid.oplus(c, b)):
                            raise InputError("oplus is not monotone")
        return monoid

    # ------------------------------------------------------------ primitives

    # ``_index`` is read directly on the hot path; on a miss, ``index``
    # raises the carrier error for the value outside the carrier.

    def leq(self, a, b) -> bool:
        try:
            return bool(self._up[self._index[a]] >> self._index[b] & 1)
        except (KeyError, TypeError):
            return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def oplus(self, a, b) -> str:
        try:
            return self.oplus_table[self._index[a]][self._index[b]]
        except (KeyError, TypeError):
            return self.oplus_table[self.index(a)][self.index(b)]

    def involute(self, a) -> str:
        try:
            return self.involution[self._index[a]]
        except (KeyError, TypeError):
            return self.involution[self.index(a)]

    @cached_property
    def _down(self) -> tuple[int, ...]:
        return _transpose(self._up)

    def meet(self, a, b) -> str:
        down = self._down
        return self.carrier[_extreme(down, down[self.index(a)] & down[self.index(b)])]

    def join(self, a, b) -> str:
        up = self._up
        return self.carrier[_extreme(up, up[self.index(a)] & up[self.index(b)])]

    @cached_property
    def zero(self) -> str:
        return self.carrier[_extreme(self._up, (1 << len(self.carrier)) - 1)]

    @cached_property
    def top(self) -> str:
        return self.carrier[_extreme(self._down, (1 << len(self.carrier)) - 1)]

    def name(self, v) -> str:
        self.index(v)
        return v

    def value(self, text: str) -> str:
        self.index(text)
        return text


@cache
def v4_monoid() -> TableMonoid:
    """The four-value monoid on 0 <= +,- <= 1 with join as ``oplus``
    and the involution swapping + and -.

    Its metric spaces are exactly the partial orders: 0 on the
    diagonal, + strictly below, - strictly above, 1 between
    incomparable points.
    """
    carrier = ("0", "+", "-", "1")

    def vee(a: str, b: str) -> str:
        if a == b:
            return a
        if a == "0":
            return b
        if b == "0":
            return a
        return "1"

    return TableMonoid.make(
        carrier,
        [("0", "+"), ("0", "-"), ("0", "1"), ("+", "1"), ("-", "1")],
        {(a, b): vee(a, b) for a in carrier for b in carrier},
        {"0": "0", "+": "-", "-": "+", "1": "1"},
    )


def _upset_key(u: UpSet) -> tuple:
    return tuple((len(g), g) for g in u.generators)


def _check_carrier_size(size: int, cap: int) -> None:
    if size > cap:
        raise CapError(
            f"value carrier exceeded {cap} elements; "
            "raise the cap or trim the seed values"
        )


class _JoinClosure:
    """The joins of nonempty sets of generators, grown in rounds.

    Each round joins every value found in the last one with every
    generator: |J|·|G| joins for J values over G generators, not
    |J|²/2.  Results not seen yet are pending for the next round; they
    lie in the closure too, so they count towards the cap.  Pushed
    values not seen yet become generators.

    Generators are pushed only when nothing is pending; the values then
    are every join of the earlier generators, closed under joining with
    them, so no old value is joined again.  A join v of a set S with new
    generators is still found: join one new generator of S with the
    others, new ones first, one at a time.  While the value is new, the
    next round joins it with every generator.  Once it is an old value,
    it is a join of earlier generators alone, so v is the join of fewer
    new generators with earlier ones (none: v is old), and the argument
    repeats.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.generators: list[UpSet] = []
        # every value found, pending ones included
        self.known: set[UpSet] = set()
        self.pending: set[UpSet] = set()

    def _add(self, w: UpSet) -> None:
        if w not in self.known:
            self.known.add(w)
            self.pending.add(w)
            _check_carrier_size(len(self.known), self.cap)

    def push(self, values: Iterable[UpSet]) -> None:
        for v in values:
            if v not in self.known:
                self.generators.append(v)
                self._add(v)

    def step(self) -> None:
        """One round: joins the pending values with every generator."""
        frontier, self.pending = self.pending, set()
        for u in frontier:
            for g in self.generators:
                self._add(u.join(g))


class _MeetClosure:
    """The meet closure of word values, grown in semi-naive rounds on
    integer masks: each round adds the pending values as members and
    meets each with the members before it.

    Every generator word gets a bit in an append-only index.  A value is
    two masks over it: G, the bits of its generators, and U, the bits of
    the indexed words in its up-set.  Meet is the union of up-sets, so a
    generator of one side stays minimal unless the other side holds a
    proper subword of it: ``G = (Ga & ~Ub) | (Gb & ~Ua) | (Ga & Gb)``
    and ``U = Ua | Ub``.  Values are keyed by G, and ``up`` maps the G of
    every member and pending value to its U.  Meets bring no new words;
    when pushed values do, U of every known value is derived again as
    the OR of the superword masks of its generators.  An ``UpSet`` is
    built only for a value that becomes a member.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.bit: dict[str, int] = {}
        self.indexed: list[str] = []
        # supers[i]: the bits of indexed[i] and of its indexed superwords
        self.supers: list[int] = []
        self.up: dict[int, int] = {}
        self.pending: set[int] = set()
        # the G of each member, in the order the members were added
        self.members: dict[UpSet, int] = {}

    def _index_word(self, w: str) -> None:
        i = len(self.indexed)
        mask = 1 << i
        for j, v in enumerate(self.indexed):
            if len(v) < len(w):
                if words.is_subword(v, w):
                    self.supers[j] |= 1 << i
            elif len(v) > len(w) and words.is_subword(w, v):
                mask |= 1 << j
        self.bit[w] = i
        self.indexed.append(w)
        self.supers.append(mask)

    def _up_mask(self, g: int) -> int:
        u = 0
        for i in _bits(g):
            u |= self.supers[i]
        return u

    def push(self, values: Iterable[UpSet]) -> None:
        values = list(values)
        fresh = dict.fromkeys(
            w for u in values for w in u.generators if w not in self.bit
        )
        for w in fresh:
            self._index_word(w)
        if fresh:
            for g in self.up:
                self.up[g] = self._up_mask(g)
        for u in values:
            g = sum(1 << self.bit[w] for w in u.generators)
            if g not in self.up:
                self.up[g] = self._up_mask(g)
                self.pending.add(g)
        _check_carrier_size(len(self.up), self.cap)

    def step(self) -> list[UpSet]:
        """One round; returns the values it added as members."""
        frontier, self.pending = self.pending, set()
        up, pending, members = self.up, self.pending, self.members
        added = []
        for ga in frontier:
            ua = up[ga]
            for gb in members.values():
                ub = up[gb]
                g = (ga & ~ub) | (gb & ~ua) | (ga & gb)
                if g not in up:
                    up[g] = ua | ub
                    pending.add(g)
                    _check_carrier_size(len(up), self.cap)
            value = UpSet(tuple(sorted(self.indexed[i] for i in _bits(ga))))
            members[value] = ga
            added.append(value)
        return added

    def masks(self, v: UpSet) -> tuple[int, int]:
        """The (G, U) masks of a member."""
        g = self.members[v]
        return g, self.up[g]


def parse_word_value(text: str) -> UpSet:
    """Parse a JSON list of generator words into an up-set value."""
    try:
        gens = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad word value {text!r}: {exc}") from None
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError(f"bad word value {text!r}: expected a list of words")
    return UpSet.from_words(gens)


@record(hidden=("masks",))
class WordValueMonoid(ValueMonoid):
    """Final-segment word values with a finite quantification carrier.

    Operations are exact in the full algebra of final segments: order
    by reverse inclusion, meet by union, join by minimal common
    superwords, ``oplus`` by concatenation, involution by reverse and
    flip, distance by residuals, accessibility by the one-word witness
    search.  The carrier only fixes the finite range for radii and
    holes: it is the least set that contains the seed values plus 0 and
    top, is closed under involution, meets and joins, and contains
    pairwise products whose generators respect the length bound.

    :meth:`from_values` builds that least set without combining every
    pair of values by every operation:

    * Meet is union and join is intersection of word sets, so the
      lattice is distributive.  There the meets of joins of a generating
      set G already form the sublattice that G generates:
      ``(a1 & ... & am) | (b1 & ... & bn)`` is the meet of the joins
      ``ai | bj`` by distributivity.  So the carrier is the meet
      closure of the join closure of G, which joins values with the
      members of G only (see :class:`_JoinClosure`).  Each value it
      finds goes to the meet closure at once, and the meet closure runs
      to a fixpoint before each join round, so a carrier over the cap
      is mostly refused by cheap mask meets.
    * The involution reverses and flips every word, so it maps up-sets
      to up-sets and preserves union and intersection: it is a lattice
      automorphism.  The sublattice generated by a set closed under the
      involution is therefore closed under it too, and G starts as the
      seeds, 0, top and their involutes.
    * Products are added in semi-naive rounds: a pair of values that
      were both in the carrier in an earlier round was tried then, so
      each round only tries pairs with a value new since the last one.
      The product of two values is reversed and flipped by the
      involution, so the products of a round are closed under it as
      well; those not in the carrier yet join G, and the two closures
      resume from where they stopped.  A pair is skipped when the
      shortest generators of the two values are already longer than the
      bound together, since every generator of the product is at least
      that long.

    * The meet closure runs on integer masks (see :class:`_MeetClosure`):
      each value is a mask of generator words and a mask of the indexed
      words in its up-set, so a meet is three mask operations and no
      subword test.  Its masks also give the carrier order, ``_up``.

    Every set built this way lies inside the least set, and the rounds
    stop only when the set is closed under all four operations, so the
    result is that least set, whatever order the values were tried in.
    The cap is checked as the sets grow, and the closure exceeds it
    exactly when some intermediate set does.
    """

    carrier: tuple[UpSet, ...]
    oplus_length_bound: int
    # The (G, U) masks of each carrier value from the meet closure, out of
    # ==, hash and repr; None for a carrier given directly.
    masks: tuple[tuple[int, int], ...] | None = None

    @staticmethod
    def over(values: Iterable[UpSet], bound: int | None = None) -> "WordValueMonoid":
        """The values, 0 and top, not closed; the values are checked, and
        the bound defaults to twice the longest generator, at least 2."""
        seeds = set(values) | {words.ZERO, words.TOP}
        if not all(isinstance(u, UpSet) for u in seeds):
            raise InputError("word values must be UpSet instances")
        if bound is None:
            bound = max(2, 2 * max(u.max_generator_len() for u in seeds))
        return WordValueMonoid(tuple(sorted(seeds, key=_upset_key)), bound)

    @staticmethod
    def from_values(
        values: Iterable[UpSet],
        oplus_length_bound: int | None = None,
        carrier_cap: int = CARRIER_CAP,
    ) -> "WordValueMonoid":
        """The carrier generated by ``values``, closed once per process.

        The values and the bound are those of :meth:`over`.  The result
        is then looked up in a memo of the last 64 closures, keyed by the
        frozen generator set (the seeds, 0, top and their involutes), the
        resolved bound and ``carrier_cap``: seed sets that give the same
        generators, in any order, share one immutable carrier.  A
        refusal is kept as the text of its ``CapError`` alone, and each
        later call with that key raises a fresh ``CapError`` with the
        same text, without closing again.
        """
        seeds = WordValueMonoid.over(values, oplus_length_bound)
        generators = frozenset(seeds.carrier) | {u.involute() for u in seeds.carrier}
        closed = _closed_carrier(generators, seeds.oplus_length_bound, carrier_cap)
        if isinstance(closed, str):
            raise CapError(closed)
        return closed

    def merged(self, other: "WordValueMonoid") -> "WordValueMonoid":
        return WordValueMonoid.from_values(
            set(self.carrier) | set(other.carrier),
            max(self.oplus_length_bound, other.oplus_length_bound),
        )

    @cached_property
    def _up(self) -> tuple[int, ...]:
        """Bit l of ``_up[k]`` is set when carrier[k] <= carrier[l]:
        the up-set of carrier[k] holds every generator of carrier[l].
        Read off the closure's masks, or found with ``leq`` for a
        carrier given directly."""
        if self.masks is None:
            return tuple(
                sum(1 << l for l, w in enumerate(self.carrier) if v.leq(w))
                for v in self.carrier
            )
        gens = [g for g, _ in self.masks]
        return tuple(
            sum(1 << l for l, g in enumerate(gens) if not g & ~u)
            for _, u in self.masks
        )

    # ------------------------------------------------------------ primitives

    @property
    def zero(self) -> UpSet:
        return words.ZERO

    @property
    def top(self) -> UpSet:
        return words.TOP

    def leq(self, a: UpSet, b: UpSet) -> bool:
        return a.leq(b)

    def oplus(self, a: UpSet, b: UpSet) -> UpSet:
        return a.concat(b)

    def involute(self, a: UpSet) -> UpSet:
        return a.involute()

    def meet(self, a: UpSet, b: UpSet) -> UpSet:
        return a.meet(b)

    def join(self, a: UpSet, b: UpSet) -> UpSet:
        return a.join(b)

    def dist(self, p: UpSet, q: UpSet) -> UpSet:
        return words.distance(p, q)

    def accessibility_value_witness(self, v: UpSet) -> UpSet | None:
        w = words.principal_accessibility_witness(v)
        return None if w is None else words.principal(w)

    def name(self, v: UpSet) -> str:
        return json.dumps(list(v.generators), separators=(",", ":"))

    def value(self, text: str) -> UpSet:
        return parse_word_value(text)


@lru_cache(maxsize=64)
def _closed_carrier(
    generators: frozenset[UpSet], bound: int, cap: int
) -> WordValueMonoid | str:
    """The carrier that :meth:`WordValueMonoid.from_values` closes from
    its generators, or the text of the ``CapError`` that refuses it."""
    joins = _JoinClosure(cap)
    lattice = _MeetClosure(cap)
    try:
        joins.push(generators)
        added: list[UpSet] = []
        while joins.pending:
            lattice.push(joins.pending)
            while lattice.pending:
                added += lattice.step()
            joins.step()
            if joins.pending:
                continue
            # TOP is absorbing for concatenation and always present.
            shortest = sorted(
                (
                    (min(len(g) for g in v.generators), v)
                    for v in lattice.members
                    if not v.is_top
                ),
                key=lambda pair: pair[0],
            )
            products = set()
            for u in added:
                if u.is_top:
                    continue
                room = bound - min(len(g) for g in u.generators)
                for length, v in shortest:
                    if length > room:
                        break
                    for w in (u.concat(v), v.concat(u)):
                        if w.max_generator_len() <= bound:
                            products.add(w)
            joins.push(products.difference(lattice.members))
            added = []
    except CapError as exc:
        return str(exc)
    carrier = tuple(sorted(lattice.members, key=_upset_key))
    return WordValueMonoid(carrier, bound, tuple(map(lattice.masks, carrier)))


# --------------------------------------------------------------------- spaces


@record
class RadiusMap:
    """A radius for every point of a space.

    The map is a hole when the balls with these radii have an empty
    common intersection.
    """

    radii: tuple[tuple[str, object], ...]

    @staticmethod
    def make(mapping: Mapping, elements) -> "RadiusMap":
        els = set(elements)
        if set(mapping) != els:
            raise InputError("a radius map must cover exactly the elements")
        return RadiusMap(tuple(sorted(mapping.items())))

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.radii)

    def __call__(self, x: str):
        try:
            return self.as_dict[x]
        except KeyError:
            raise InputError(f"no radius for element {x!r}") from None


@record(eq=False)
class VSpace:
    """A finite set of named points with a value-monoid distance."""

    elements: tuple[str, ...]
    monoid: ValueMonoid
    dist: dict

    @staticmethod
    def make(elements, monoid: ValueMonoid, dist: Mapping) -> "VSpace":
        given = tuple(elements)
        els = tuple(sorted(set(given)))
        if not els:
            raise InputError("a space needs at least one element")
        if len(els) != len(given):
            raise InputError("duplicate elements")
        for x in els:
            if not isinstance(x, str) or not x or "," in x:
                raise InputError("element names must be nonempty and comma-free")
        matrix = {}
        for x in els:
            for y in els:
                try:
                    v = dist[x, y]
                except KeyError:
                    raise InputError(f"distance undefined for ({x!r}, {y!r})") from None
                if not monoid.contains(v):
                    raise InputError(
                        f"distance value for ({x!r}, {y!r}) is outside the carrier"
                    )
                matrix[x, y] = v
        return VSpace(els, monoid, matrix)

    def d(self, x: str, y: str):
        try:
            return self.dist[x, y]
        except KeyError:
            raise InputError(f"unknown pair ({x!r}, {y!r})") from None

    # ------------------------------------------------------------ the axioms

    def check_axioms(self) -> tuple[bool, tuple | None]:
        """Separation, involution law and triangle inequality over all
        pairs and triples; returns the first violation found."""
        m = self.monoid
        for x in self.elements:
            for y in self.elements:
                if m.leq(self.d(x, y), m.zero) != (x == y):
                    return False, ("identity", x, y)
                if m.involute(self.d(y, x)) != self.d(x, y):
                    return False, ("involution", x, y)
        for x in self.elements:
            for y in self.elements:
                dxy = self.d(x, y)
                for z in self.elements:
                    if not m.leq(dxy, m.oplus(self.d(x, z), self.d(z, y))):
                        return False, ("triangle", x, y, z)
        return True, None

    # -------------------------------------------------- balls and subsets

    def _check_subset(self, subset) -> frozenset[str]:
        a = frozenset(subset)
        unknown = a - set(self.elements)
        if unknown:
            raise InputError(f"unknown elements {sorted(unknown)}")
        return a

    def ball(self, x: str, v) -> frozenset[str]:
        return frozenset(y for y in self.elements if self.monoid.leq(self.d(x, y), v))

    @cached_property
    def _balls(self) -> tuple[tuple[int, ...], ...]:
        """``_balls[i][k]``: the mask of the ball around elements[i] with
        radius carrier[k]; bit j stands for elements[j]."""
        m = self.monoid
        below: dict = {}
        table = []
        for x in self.elements:
            row = [0] * len(m.carrier)
            for j, y in enumerate(self.elements):
                d = self.dist[x, y]
                if d not in below:
                    below[d] = list(_bits(m._up[m.index(d)]))
                for k in below[d]:
                    row[k] |= 1 << j
            table.append(tuple(row))
        return tuple(table)

    def _ball_mask(self, i: int, v) -> int:
        """The mask of the ball around elements[i] with radius v; a
        radius outside the carrier is scanned with the monoid's order."""
        try:
            k = self.monoid._index.get(v)
        except TypeError:
            k = None
        if k is not None:
            return self._balls[i][k]
        ball = self.ball(self.elements[i], v)
        return sum(1 << j for j, y in enumerate(self.elements) if y in ball)

    def diameter(self, subset=None):
        a = self.elements if subset is None else self._check_subset(subset)
        return self.monoid.join_all(self.d(x, y) for x in a for y in a)

    def radius(self, subset):
        """Meet of the values v of the closed carrier for which some point
        x of the subset covers it with B(x, v).  The least such v for one
        x is the join of d(x, y) over the subset, which the closed carrier
        holds, so this is the meet of those joins; no carrier is read."""
        a = self._check_subset(subset)
        m = self.monoid
        return m.meet_all(m.join_all(self.d(x, y) for y in a) for x in a)

    def is_equally_centered(self, subset) -> bool:
        a = self._check_subset(subset)
        return self.radius(a) == self.diameter(a)

    def restrict(self, subset) -> "VSpace":
        a = sorted(self._check_subset(subset))
        if not a:
            raise InputError("cannot restrict to the empty set")
        return VSpace(
            tuple(a), self.monoid, {(x, y): self.d(x, y) for x in a for y in a}
        )

    # ------------------------------------------------------ relational view

    def to_relsys(self) -> RelSys:
        """One relation R_u = {(x, y) : d(x, y) <= u} per join u of distance
        values (0 for none), named by u; reflexive and involutive whenever
        the axioms hold.  Each u is the join of the distances below it, so
        on a lattice these are the distinct R_v, each named by the least v
        that gives it.  No carrier is read."""
        m = self.monoid
        pairs_at: dict = {}
        for pair, d in self.dist.items():
            pairs_at.setdefault(d, []).append(pair)
        joins = {m.zero}
        for d in pairs_at:
            for u in list(joins):
                joins.add(m.join(u, d))
                if len(joins) > CARRIER_CAP:  # so would the closed carrier
                    raise CapError(f"the distances have over {CARRIER_CAP} joins")
        rels = []
        for u in joins:
            below = [pairs for d, pairs in pairs_at.items() if m.leq(d, u)]
            rels.append((m.name(u), frozenset().union(*below)))
        return RelSys(self.elements, tuple(sorted(rels)))

    def closed(self, cap: int = CARRIER_CAP) -> "VSpace":
        """This space over its word values closed under ``cap``, as the
        checks over values close it; a table or closed carrier stays."""
        m = self.monoid
        if not isinstance(m, WordValueMonoid) or m.masks is not None:
            return self
        closed = WordValueMonoid.from_values(m.carrier, m.oplus_length_bound, cap)
        return VSpace(self.elements, closed, self.dist)

    # ------------------------------------------------------- hyperconvexity

    def is_hyperconvex(self) -> tuple[bool, tuple | None]:
        """Convexity plus the two-out-of-many ball intersection
        property, with radii drawn from the closed carrier.

        Convexity: whenever ``d(x,y) <= r (+) involute(s)`` the balls
        B(x,r) and B(y,s) must meet.  Each ordered pair (x, y) is first
        decided on ball classes: the radii around a point fall into
        classes by their ball, and since ``oplus`` is monotone and the
        involution preserves the order, some r and s of two classes
        violate the condition exactly when some maximal r and s of those
        classes do.  So a pair needs only the maxima of each pair of
        disjoint classes.  For the first pair with a violation, the
        ordered scan over all (r, s) with disjoint balls gives the
        witness: the first pair in that order, as if every pair were
        scanned.  The family property: any pairwise-intersecting family
        of balls has a common point; it is enough to inspect maximal
        cliques of the intersection graph on distinct balls, since
        subfamilies only have larger intersections.
        """
        space = self.closed()
        m = space.monoid
        balls = space._balls
        up = m._up
        # a mask of carrier indices -> its maximal values and their involutes
        maxima: dict[int, tuple[list, list]] = {}
        # classes[i]: (ball mask, maximal radii, their involutes) for
        # every distinct ball around elements[i].
        classes = []
        for row in balls:
            radii: dict[int, int] = {}
            for k, b in enumerate(row):
                radii[b] = radii.get(b, 0) | 1 << k
            point = []
            for b, c in radii.items():
                if c not in maxima:
                    rs = [m.carrier[k] for k in _bits(c) if up[k] & c == 1 << k]
                    maxima[c] = (rs, [m.involute(s) for s in rs])
                point.append((b, *maxima[c]))
            classes.append(point)
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                dxy = self.d(x, y)
                if not any(
                    m.leq(dxy, m.oplus(r, s))
                    for bx, rs, _ in classes[i]
                    for by, _, ss in classes[j]
                    if not bx & by
                    for r in rs
                    for s in ss
                ):
                    continue
                for r, bx in zip(m.carrier, balls[i]):
                    for s, by in zip(m.carrier, balls[j]):
                        if not bx & by and m.leq(dxy, m.oplus(r, m.involute(s))):
                            return False, ("convexity", x, y, m.name(r), m.name(s))
        distinct: dict[int, tuple[str, str]] = {}
        for x, row in zip(self.elements, balls):
            for r, b in zip(m.carrier, row):
                if b not in distinct:
                    distinct[b] = (x, m.name(r))
        nodes = sorted(distinct, key=lambda b: tuple(_bits(b)))
        neighbors = {
            i: {
                j
                for j, other in enumerate(nodes)
                if i != j and nodes[i] & other
            }
            for i in range(len(nodes))
        }
        for clique in _maximal_cliques(len(nodes), neighbors):
            if len(clique) < 3:
                continue
            common = nodes[clique[0]]
            for i in clique[1:]:
                common &= nodes[i]
            if not common:
                family = tuple(distinct[nodes[i]] for i in clique)
                return False, ("ball-family", family)
        return True, None

    def is_bounded(self) -> bool:
        """0 must be the only value of the closed carrier below the
        diameter without an accessibility witness."""
        m = self.closed().monoid
        diam = self.diameter()
        return all(
            v == m.zero or not m.leq(v, diam) or m.is_accessible(v)
            for v in m.carrier
        )

    # ---------------------------------------------------------------- holes

    def is_hole(self, radii: RadiusMap) -> bool:
        rd = radii.as_dict
        if set(rd) != set(self.elements):
            raise InputError("the radius map must cover exactly the elements")
        return self._is_hole_at(rd[x] for x in self.elements)

    def _is_hole_at(self, radii: Iterable) -> bool:
        """Whether the balls around the elements, in order, with these
        radii share no point: the AND of the ball table's masks by
        carrier index, stopping once it is empty."""
        common = (1 << len(self.elements)) - 1
        for i, v in enumerate(radii):
            common &= self._ball_mask(i, v)
            if not common:
                return True
        return False


def _maximal_cliques(count: int, neighbors: dict[int, set[int]]) -> list[list[int]]:
    """Bron-Kerbosch with pivoting over vertices 0..count-1."""
    out: list[list[int]] = []

    def extend(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(sorted(p | x), key=lambda v: len(p & neighbors[v]))
        for v in sorted(p - neighbors[pivot]):
            extend(r + [v], p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    extend([], set(range(count)), set())
    return out


def word_space(elements, dist: Mapping) -> VSpace:
    """Build a word-valued space, deriving the carrier from the matrix."""
    monoid = WordValueMonoid.from_values(set(dist.values()))
    return VSpace.make(elements, monoid, dist)


def monoid_space(monoid: ValueMonoid) -> VSpace:
    """The value monoid as a space over itself, with its own distance.

    Usable when value names are valid element names (table monoids)."""
    names = [monoid.name(v) for v in monoid.carrier]
    dist = {}
    for p in monoid.carrier:
        for q in monoid.carrier:
            dist[monoid.name(p), monoid.name(q)] = monoid.dist(p, q)
    return VSpace.make(names, monoid, dist)


def product_space(spaces, cap: int = PRODUCT_CAP) -> VSpace:
    """Direct product with the coordinatewise-join distance; element
    names join the coordinates with '|'."""
    spaces = list(spaces)
    if not spaces:
        raise InputError("a product needs at least one factor")
    monoid = spaces[0].monoid
    for s in spaces[1:]:
        if s.monoid == monoid:
            continue
        if isinstance(monoid, WordValueMonoid) and isinstance(s.monoid, WordValueMonoid):
            monoid = monoid.merged(s.monoid)
        else:
            raise InputError("product factors must share a value monoid")
    size = 1
    for s in spaces:
        size *= len(s.elements)
    if size > cap:
        raise CapError(f"product would have {size} elements (cap {cap})")
    combos = list(iter_product(*(s.elements for s in spaces)))
    names = {combo: "|".join(combo) for combo in combos}
    dist = {}
    for c1 in combos:
        for c2 in combos:
            dist[names[c1], names[c2]] = monoid.join_all(
                s.d(a, b) for s, a, b in zip(spaces, c1, c2)
            )
    return VSpace.make(sorted(names.values()), monoid, dist)


# ----------------------------------------------------------------------- maps


@record(eq=False)
class VMap:
    """A map between two spaces over compatible value monoids."""

    source: VSpace
    target: VSpace
    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def make(source: VSpace, target: VSpace, mapping: Mapping) -> "VMap":
        if set(mapping) != set(source.elements):
            raise InputError("the map must be defined exactly on the source elements")
        bad = {mapping[x] for x in mapping} - set(target.elements)
        if bad:
            raise InputError(f"map image leaves the target space: {sorted(bad)}")
        same = source.monoid == target.monoid
        both_words = isinstance(source.monoid, WordValueMonoid) and isinstance(
            target.monoid, WordValueMonoid
        )
        if not (same or both_words):
            raise InputError("source and target must share a value monoid")
        return VMap(source, target, tuple(sorted(mapping.items())))

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, x: str) -> str:
        try:
            return self.as_dict[x]
        except KeyError:
            raise InputError(f"map undefined on {x!r}") from None

    @cached_property
    def image(self) -> tuple[str, ...]:
        return tuple(sorted({y for _, y in self.pairs}))

    @cached_property
    def _preimages(self) -> dict[str, list[str]]:
        """The source points mapped to each image point, in source order."""
        out: dict[str, list[str]] = {}
        for x, y in self.pairs:
            out.setdefault(y, []).append(x)
        return out

    def is_nonexpansive(self) -> bool:
        m = self.target.monoid
        return all(
            m.leq(self.target.d(self(x), self(y)), self.source.d(x, y))
            for x in self.source.elements
            for y in self.source.elements
        )

    def is_isometry(self) -> bool:
        """Distance-preserving onto the image (hence injective)."""
        return all(
            self.target.d(self(x), self(y)) == self.source.d(x, y)
            for x in self.source.elements
            for y in self.source.elements
        )

    def is_hole_preserving(self) -> bool:
        """Every hole of the source, a radius map over its closed carrier,
        must map to a hole of the target under :func:`hole_image`.

        * The image of a hole h is not a hole exactly when some target
          point t lies in every image ball.  The image radius at y is the
          meet of h over the preimages of y, and top where y has none, so
          this happens when ``d(f(x), t) <= h(x)`` for every source x.
        * Holes are closed downward, because smaller radii give smaller
          balls.  So, for a fixed t, some hole lies above the map
          ``x -> d(f(x), t)`` iff the least carrier-valued map above it
          is a hole.  That map is ``d(f(x), t)`` itself where the value
          is in the source carrier, always so when both spaces share a
          monoid; elsewhere it is the meet of the values above it in the
          closed source carrier.
        * So f preserves holes iff that map is a source hole for no
          target point t: |T| hole tests, not |carrier|^|S| hole images.

        Hole images, and with them hole preservation, are only defined
        for non-expansive maps; anything else raises.
        """
        if not self.is_nonexpansive():
            raise HypothesisError(
                "hole preservation is defined for non-expansive maps only"
            )
        m = self.source.monoid
        for t in self.target.elements:
            radii = {x: self.target.d(y, t) for x, y in self.pairs}
            for x, v in radii.items():
                if not m.contains(v):
                    m = self.source.closed().monoid
                    radii[x] = m.meet_all(c for c in m.carrier if m.leq(v, c))
            if self.source.is_hole(RadiusMap(tuple(radii.items()))):
                return False
        return True


def hole_image(radii: RadiusMap, vmap: VMap) -> RadiusMap:
    """Image radius map: each target point receives the meet of the
    radii of its preimages, top when there are none."""
    m = vmap.source.monoid
    rd = radii.as_dict
    preimages = vmap._preimages
    out = {
        y: m.meet_all(rd[x] for x in preimages.get(y, ()))
        for y in vmap.target.elements
    }
    return RadiusMap.make(out, vmap.target.elements)


# ------------------------------------------------------- canonical embedding


@record(eq=False)
class CanonicalEmbedding:
    """A space embedded by distance profiles ``x -> (d(z, x) for z)``.

    The image carries the join of coordinatewise monoid distances,
    which provably reproduces the original distance; construction
    verifies this, so ``vmap`` is an isometry by construction.
    """

    source: VSpace
    image: VSpace
    coordinates: tuple[tuple, ...]

    @property
    def vmap(self) -> VMap:
        return VMap.make(self.source, self.image, {x: x for x in self.source.elements})


def canonical_embedding(space: VSpace) -> CanonicalEmbedding:
    """Embed each point as its distance profile and verify that the
    join of coordinatewise monoid distances returns the original
    distance (an internal-consistency failure raises)."""
    m = space.monoid
    els = space.elements
    profiles = {x: tuple(space.d(z, x) for z in els) for x in els}
    for x in els:
        for y in els:
            got = m.join_all(
                m.dist(profiles[x][i], profiles[y][i]) for i in range(len(els))
            )
            if got != space.d(x, y):
                raise InternalCheckError(
                    f"distance profiles fail to reproduce d({x!r}, {y!r})"
                )
    image = VSpace(els, m, dict(space.dist))
    return CanonicalEmbedding(space, image, tuple(profiles[x] for x in els))
