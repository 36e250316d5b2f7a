"""Partial orders as four-valued metric spaces.

A poset is a space over the four-value monoid: 0 on the diagonal, +
strictly below, - strictly above, 1 between incomparable points, and
the translation goes both ways.  On top of the translation this module
provides complete-lattice detection, gaps (pairs of subsets with
nothing in between, the order-side picture of holes), the Tarski
fixed-point solver, fences, products, and the retract-of-fence-products
demonstration.

Representation: the elements are kept sorted, element i is bit i of an
integer mask, and each poset keeps the up-set and the down-set of every
element as masks.  The upper bounds of a subset are the AND of the
up-sets of its members, and a mask has a least element when one of its
members has an up-set containing the whole mask; joins, meets, the
complete-lattice test and the gap tests are built from these two steps.
The gap enumeration keeps the upper bounds of every prefix of the
current subset, so each next subset ANDs only from its first changed
member.  The least gap inside a gap (A, B) reads the upper bounds of
subsets of A and the lower bounds of subsets of B in the order of the
least sub-pair (total size, lower part, upper part), up to the first
hit; no table spans the subsets of the whole poset.  Names are checked
once, where they enter a public function.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, combinations, product as iter_product
from math import prod
from operator import and_
from typing import Iterable, Mapping, Sequence

from ._record import record
from .errors import CapError, HypothesisError, InputError, InternalCheckError
from .relsys import OLRResult, SelfMap, _bits, _extreme, _subset_mask, _transpose
from .relsys import _transitive_closure, retraction_violation
from .vmetric import PRODUCT_CAP, RadiusMap, TableMonoid, VSpace, v4_monoid
from .words import check_word

GAP_CAP = 8


@record
class Gap:
    """Two subsets with every lower element below every upper element
    and no point lying between them."""

    lower: tuple[str, ...]
    upper: tuple[str, ...]


@record
class Poset:
    """A finite strict order, transitively closed."""

    elements: tuple[str, ...]
    lt: frozenset[tuple[str, str]]

    @staticmethod
    def make(elements, pairs: Iterable[tuple[str, str]]) -> "Poset":
        els = tuple(sorted(set(elements)))
        if not els:
            raise InputError("a poset needs at least one element")
        for x in els:
            if not isinstance(x, str) or not x or "," in x:
                raise InputError("element names must be nonempty and comma-free")
        idx = {x: i for i, x in enumerate(els)}
        above = [0] * len(els)
        for x, y in pairs:
            if x not in idx or y not in idx:
                raise InputError(f"order pair ({x!r}, {y!r}) leaves the elements")
            above[idx[x]] |= 1 << idx[y]
        above = _transitive_closure(above)
        for i, row in enumerate(above):
            if row >> i & 1:
                raise InputError(f"order cycle through {els[i]!r}")
        closed = frozenset(
            (els[i], els[j]) for i, row in enumerate(above) for j in _bits(row)
        )
        return Poset(els, closed)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _up(self) -> tuple[int, ...]:
        """Bit j of ``_up[i]`` is set when elements[i] <= elements[j]."""
        idx = self._index
        up = [1 << i for i in range(len(self.elements))]
        for x, y in self.lt:
            up[idx[x]] |= 1 << idx[y]
        return tuple(up)

    @cached_property
    def _down(self) -> tuple[int, ...]:
        """Bit j of ``_down[i]`` is set when elements[j] <= elements[i]."""
        return _transpose(self._up)

    def _check(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise InputError(f"unknown element {x!r}") from None

    def _check_subset(self, subset) -> frozenset[str]:
        a = frozenset(subset)
        unknown = a.difference(self._index)
        if unknown:
            raise InputError(f"unknown elements {sorted(unknown)}")
        return a

    def _mask(self, subset) -> int:
        return _subset_mask(self._index, subset)

    def _names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in _bits(mask))

    def _bounds(self, rows, mask: int) -> int:
        """The AND of ``rows[i]`` over the set bits i of a mask: its
        upper bounds for ``_up``, its lower bounds for ``_down``."""
        out = (1 << len(self.elements)) - 1
        for i in _bits(mask):
            out &= rows[i]
        return out

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self._check(x)] >> self._check(y) & 1)

    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs: x < y with nothing strictly between, so
        the up-set of x meets the down-set of y in x and y alone."""
        idx, up, down = self._index, self._up, self._down
        return tuple(
            (x, y)
            for x, y in sorted(self.lt)
            if up[idx[x]] & down[idx[y]] == 1 << idx[x] | 1 << idx[y]
        )

    # ----------------------------------------------------------- bounds

    def upper_bounds(self, subset) -> tuple[str, ...]:
        return self._names(self._bounds(self._up, self._mask(subset)))

    def lower_bounds(self, subset) -> tuple[str, ...]:
        return self._names(self._bounds(self._down, self._mask(subset)))

    def sup(self, subset) -> str | None:
        i = _extreme(self._up, self._bounds(self._up, self._mask(subset)))
        return None if i is None else self.elements[i]

    def inf(self, subset) -> str | None:
        i = _extreme(self._down, self._bounds(self._down, self._mask(subset)))
        return None if i is None else self.elements[i]

    @property
    def bottom(self) -> str | None:
        return self.inf(self.elements)

    @property
    def top(self) -> str | None:
        return self.sup(self.elements)

    # ------------------------------------------------------- structure

    def is_complete_lattice(self) -> bool:
        """Finite reduction: top and bottom exist and every pair has a
        join and a meet, the least element of ``up[i] & up[j]`` and the
        greatest of ``down[i] & down[j]``."""
        n = len(self.elements)
        full = (1 << n) - 1
        up, down = self._up, self._down
        if _extreme(up, full) is None or _extreme(down, full) is None:
            return False
        return all(
            _extreme(up, up[i] & up[j]) is not None
            and _extreme(down, down[i] & down[j]) is not None
            for i, j in combinations(range(n), 2)
        )

    def restrict(self, subset) -> "Poset":
        a = self._check_subset(subset)
        if not a:
            raise InputError("cannot restrict to the empty set")
        return Poset(
            tuple(sorted(a)),
            frozenset(p for p in self.lt if p[0] in a and p[1] in a),
        )

    def is_order_preserving(self, mapping: Mapping) -> bool:
        if set(mapping) != set(self.elements):
            raise InputError("the map must be defined exactly on the elements")
        image = {x: self._check(y) for x, y in mapping.items()}
        return all(self._up[image[x]] >> image[y] & 1 for x, y in self.lt)


def all_posets(names: Sequence[str]):
    """Every strict order on the given labeled points, by scanning the
    subsets of off-diagonal pairs for transitive antisymmetric ones."""
    els = tuple(sorted(names))
    cells = [(x, y) for x in els for y in els if x != y]
    for bits in iter_product((False, True), repeat=len(cells)):
        rel = {c for c, b in zip(cells, bits) if b}
        antisymmetric = not any((y, x) in rel for x, y in rel)
        if antisymmetric and all(
            (x, z) in rel for x, y in rel for y2, z in rel if y2 == y and x != z
        ):
            yield Poset(els, frozenset(rel))


# ----------------------------------------------------------- the translation


def poset_to_vspace(p: Poset) -> VSpace:
    """0 on the diagonal, + strictly below, - strictly above, 1 between
    incomparable points."""
    up, sign = p._up, ("1", "+", "-", "0")  # indexed by [i <= j] + 2 [j <= i]
    dist = {
        (x, y): sign[(up[i] >> j & 1) | (up[j] >> i & 1) << 1]
        for i, x in enumerate(p.elements)
        for j, y in enumerate(p.elements)
    }
    return VSpace.make(p.elements, v4_monoid(), dist)


def vspace_to_poset(space: VSpace) -> Poset:
    """Read the strict order back off the + distances."""
    if not isinstance(space.monoid, TableMonoid) or space.monoid != v4_monoid():
        raise InputError("expects a space over the four-value monoid")
    ok, witness = space.check_axioms()
    if not ok:
        raise InputError(f"the distance matrix violates the axioms: {witness}")
    els = space.elements
    return Poset.make(els, {(x, y) for x in els for y in els if space.d(x, y) == "+"})


# ------------------------------------------------------------------- gaps


def is_gap(p: Poset, lower, upper) -> bool:
    """Definitional check: the lower part sits below the upper part and
    no point lies between them.  On masks: B lies inside the upper
    bounds of A, and no point is both an upper bound of A and a lower
    bound of B."""
    return _is_gap_mask(p, p._mask(lower), p._mask(upper))


def _is_gap_mask(p: Poset, a: int, b: int) -> bool:
    ub = p._bounds(p._up, a)
    return b & ~ub == 0 and ub & p._bounds(p._down, b) == 0


def _gaps(p: Poset):
    """The gaps (A, upper bounds of A), by the size of A and then in the
    order of ``combinations`` over the elements; no cap.  ``ubs[t]`` is
    the upper bounds of the first t members of A, so the next subset
    redoes the ANDs only from the first member that changed."""
    n, up, els = len(p.elements), p._up, p.elements
    for size in range(n + 1):
        combo, ubs, t = list(range(size)), [(1 << n) - 1] * (size + 1), 0
        while t >= 0:
            for j in range(t, size):
                ubs[j + 1] = ubs[j] & up[combo[j]]
            if _extreme(up, ubs[size]) is None:
                yield Gap(tuple(map(els.__getitem__, combo)), p._names(ubs[size]))
            t = size - 1
            while t >= 0 and combo[t] == n - size + t:
                t -= 1
            if t >= 0:
                combo[t:] = range(combo[t] + 1, combo[t] + 1 + size - t)


def find_gaps(p: Poset, cap: int = GAP_CAP) -> tuple[Gap, ...]:
    """All gaps of the canonical form (A, upper bounds of A).

    By the reduction behind the no-gap criterion, (A, A^up) fails to be
    a gap exactly when A has a join, so scanning these pairs finds a
    gap whenever any exists; arbitrary pairs are checked by is_gap.
    """
    if len(p.elements) > cap:
        raise CapError(f"gap enumeration over {len(p.elements)} elements (cap {cap})")
    return tuple(_gaps(p))


def minimal_subgap(p: Poset, gap: Gap) -> Gap:
    """A smallest gap contained in the given one (the finite-character
    witness; the gap itself in the worst case): the least contained gap
    by total size, then by (lower, upper) as tuples of names in the
    order the given gap lists them."""
    if not is_gap(p, gap.lower, gap.upper):
        raise InputError("not a gap")
    return _least_subgap(p, gap)


def _least_subgap(p: Poset, gap: Gap) -> Gap:
    """The least gap inside a gap whose names are known, in the order of
    :func:`minimal_subgap`; names compare as their indices, the elements
    being sorted.  A sub-pair (a, b) keeps b inside the upper bounds of
    a, so it is a gap exactly when those bounds miss the lower bounds of
    b.  No pair of total size below 2 is a gap (its one point, or any
    point for the empty pair, lies between), so the scan starts at 2;
    each size's pairs are read in (lower, upper) order, up to a gap."""
    idx, full, name = p._index, (1 << len(p.elements)) - 1, p.elements.__getitem__
    lower, upper = [idx[x] for x in gap.lower], [idx[x] for x in gap.upper]
    for size in range(2, len(lower) + len(upper) + 1):
        sizes = range(max(0, size - len(upper)), min(size, len(lower)) + 1)
        for a in sorted(chain.from_iterable(combinations(lower, k) for k in sizes)):
            ub = reduce(and_, map(p._up.__getitem__, a), full)
            for b in sorted(combinations(upper, size - len(a))):
                if ub & reduce(and_, map(p._down.__getitem__, b), full) == 0:
                    return Gap(tuple(map(name, a)), tuple(map(name, b)))
    raise InternalCheckError("a gap must contain itself as a subgap")


def gap_hole(p: Poset, gap: Gap) -> RadiusMap:
    """The radius map of a gap on the order space: + on the lower part,
    - on the upper part, 1 elsewhere; its balls have empty intersection
    exactly because nothing lies between the parts."""
    if not is_gap(p, gap.lower, gap.upper):
        raise InputError("not a gap")
    return RadiusMap(tuple(_gap_radii(p, gap.lower, gap.upper).items()))


def _gap_radii(p: Poset, lower, upper) -> dict[str, str]:
    """The radius map of a gap with known names, in element order."""
    radii = dict.fromkeys(p.elements, "1") | dict.fromkeys(upper, "-")
    return radii | dict.fromkeys(lower, "+")


# ---------------------------------------------------------------- solvers


def _as_selfmap(p: Poset, mapping) -> SelfMap:
    pairs = mapping.pairs if isinstance(mapping, SelfMap) else tuple(
        sorted(dict(mapping).items())
    )
    f = dict(pairs)
    if not p.is_order_preserving(f):
        bad = next((x, y) for x, y in p.lt if not p.leq(f[x], f[y]))
        raise InputError(f"map is not order-preserving at {bad}")
    return SelfMap(pairs)


def tarski_common_fixed_points(p: Poset, maps) -> tuple[str, ...]:
    """Common fixed points of a commuting family of order-preserving
    maps on a complete lattice, routed through the generic solver on
    the relational view, which intersects the fixed sets of the maps."""
    return _tarski(p, maps)[0]


def _tarski(p: Poset, maps) -> tuple[tuple[str, ...], OLRResult]:
    """The common fixed points with the solver's retract certificate."""
    selfmaps = [_as_selfmap(p, f) for f in maps]
    if not p.is_complete_lattice():
        raise HypothesisError("the poset is not a complete lattice")
    rs = poset_to_vspace(p).to_relsys()
    common, cert = rs.common_fixed_points(selfmaps)
    if not p.restrict(common).is_complete_lattice():
        raise InternalCheckError("the common fixed set must be a complete lattice")
    return tuple(sorted(common)), cert


# ------------------------------------------------------ fences and products


def make_fence(orientation: str) -> Poset:
    """The poset of a plus-minus word: vertices v0..vn with vi < vi+1
    on +, vi > vi+1 on -; alternating words give fences, and the empty
    word gives a single point."""
    check_word(orientation)
    els = [f"v{i}" for i in range(len(orientation) + 1)]
    pairs = [
        (els[i], els[i + 1]) if sign == "+" else (els[i + 1], els[i])
        for i, sign in enumerate(orientation)
    ]
    return Poset.make(els, pairs)


def poset_product(posets: Sequence[Poset], cap: int = PRODUCT_CAP) -> Poset:
    """Componentwise order; names join the coordinates with '|'."""
    posets = list(posets)
    if not posets:
        raise InputError("a product needs at least one factor")
    size = prod(len(q.elements) for q in posets)
    if size > cap:
        raise CapError(f"product would have {size} elements (cap {cap})")
    combos = list(iter_product(*(range(len(q.elements)) for q in posets)))
    name = {c: "|".join(q.elements[i] for q, i in zip(posets, c)) for c in combos}
    pairs = {
        (name[c1], name[c2])
        for c1 in combos
        for c2 in combos
        if c1 != c2 and all(q._up[i] >> j & 1 for q, i, j in zip(posets, c1, c2))
    }
    return Poset.make(sorted(name.values()), pairs)


@record(eq=False)
class FenceRetractDemo:
    """Outcome of the retract-of-fence-products demonstration."""

    product: Poset
    sub: Poset
    retraction: tuple[tuple[str, str], ...]
    fixed_points: tuple[str, ...]
    certificate: OLRResult


def fence_product_retract_demo(
    orientations: Sequence[str],
    sub_elements,
    retraction: Mapping,
    maps,
) -> FenceRetractDemo:
    """Check that the claimed retraction exhibits a sub-poset as a
    retract of a product of fences, then solve for common fixed points
    of the supplied commuting order-preserving maps on the retract.

    The solver works on the four-value order space of the retract,
    where normal structure is a hypothesis to be checked, not a
    consequence of being a retract: the space of the fence +-+ lacks
    it.  A retract without it raises HypothesisError naming an
    equally-centered ball intersection.
    """
    product = poset_product([make_fence(w) for w in orientations])
    sub_set = product._check_subset(sub_elements)
    if not sub_set:
        raise InputError("the retract must be nonempty")
    violation = retraction_violation(
        product.elements, product.lt, sub_set, retraction
    )
    if violation is not None:
        raise InputError(violation)
    sub = product.restrict(sub_set)
    selfmaps = [_as_selfmap(sub, f) for f in maps]
    rs = poset_to_vspace(sub).to_relsys()
    common, cert = rs.common_fixed_points(selfmaps)
    return FenceRetractDemo(
        product,
        sub,
        tuple(sorted(retraction.items())),
        tuple(sorted(common)),
        cert,
    )
