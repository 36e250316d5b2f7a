"""Final segments of the two-letter subword order.

Words are plain strings over the alphabet "+", "-"; the empty string is
the empty word.  ``u`` is a subword of ``v`` when the letters of ``u``
appear in ``v`` in order, not necessarily contiguously.  Up-sets (final
segments) of this order form the value algebra used for zigzag
distances: every up-set is represented by its finite minimal antichain
of generators, which exists because the subword order is a well quasi
order.

The algebra carries three interacting structures:

* a complete lattice ordered by *reverse* inclusion -- smaller value
  means bigger set of words; the least value ``ZERO`` is the full
  language (generated by the empty word) and the greatest value ``TOP``
  is the empty set (no generators);
* a monoid operation ``concat`` given by elementwise concatenation of
  the two sets;
* an involution that reverses each generator and flips its letters,
  reversing ``concat`` and preserving the order.

``concat`` distributes over ``meet``, which yields residuals: for any
``p`` and ``q`` there is a least ``r`` with ``q <= concat(p, r)``, and
dually on the left.  They are computed, not searched: the words w with
g + w above a generator h are the superwords of the left quotient of h
by g, what follows the longest prefix of h embedding into g, so a
residual is a join of finitely many such up-sets and has no length
bound.  The two residuals combine into the distance
``distance(p, q)``, the least ``r`` with ``p <= concat(q, involute(r))``
and ``q <= concat(p, r)``; it makes the algebra a generalized metric
space over itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator

from ._record import record
from .errors import InputError

ALPHABET = "+-"
_FLIP = str.maketrans("+-", "-+")

# Entries kept by each memo of this module, so a long-lived process
# holds a bounded number of words and values.
_CACHE_SIZE = 1 << 16


def check_word(w: str) -> str:
    if not isinstance(w, str) or any(c not in ALPHABET for c in w):
        raise InputError(f"not a word over +/-: {w!r}")
    return w


def involute_word(w: str) -> str:
    """Reverse the word and flip every letter."""
    return w[::-1].translate(_FLIP)


@lru_cache(maxsize=_CACHE_SIZE)
def is_subword(u: str, v: str) -> bool:
    """Greedy left-to-right embedding test for the subword order."""
    it = iter(v)
    return all(c in it for c in u)


def words_up_to(maxlen: int) -> list[str]:
    """All words of length <= maxlen, shortest first, "+" before "-":
    the finite universes of the test oracles."""
    return ["".join(t) for n in range(maxlen + 1) for t in product(ALPHABET, repeat=n)]


def minimal_words(words: Iterable[str]) -> tuple[str, ...]:
    """The subword-minimal elements of a finite set, sorted."""
    ordered = sorted(set(words), key=lambda w: (len(w), w))
    keep: list[str] = []
    for w in ordered:
        # Any strict subword of w is shorter, hence already seen.
        if not any(is_subword(m, w) for m in keep):
            keep.append(w)
    return tuple(sorted(keep))


@lru_cache(maxsize=_CACHE_SIZE)
def subwords(w: str) -> frozenset[str]:
    """All subwords of w (including the empty word and w itself)."""
    out = {""}
    for k in range(1, len(w) + 1):
        out.update("".join(w[i] for i in ix) for ix in combinations(range(len(w)), k))
    return frozenset(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _mcs(u: str, v: str) -> tuple[str, ...]:
    """Minimal common superwords of two words.

    When u and v start with the same letter every minimal common
    superword starts with it too, and its tail is a minimal common
    superword of the tails; otherwise the first letter comes from one of
    the two words.  Both facts follow by deleting positions not used by
    a fixed pair of embeddings, so the recursion below is complete and a
    single antichain reduction per level suffices.
    """
    if not u:
        return (v,)
    if not v:
        return (u,)
    if u[0] == v[0]:
        return tuple(u[0] + w for w in _mcs(u[1:], v[1:]))
    out = [u[0] + w for w in _mcs(u[1:], v)]
    out.extend(v[0] + w for w in _mcs(u, v[1:]))
    return minimal_words(out)


@record
class UpSet:
    """A final segment of the subword order, as its minimal antichain.

    ``generators`` is sorted lexicographically ("+" sorts before "-"),
    so equal up-sets compare and hash equal.  Construct through
    ``from_words`` unless the argument is already a canonical antichain.
    """

    generators: tuple[str, ...]

    @staticmethod
    def from_words(words: Iterable[str]) -> "UpSet":
        return UpSet(minimal_words(check_word(w) for w in words))

    @property
    def is_top(self) -> bool:
        return not self.generators

    @property
    def is_zero(self) -> bool:
        return self.generators == ("",)

    def member(self, w: str) -> bool:
        return any(is_subword(g, w) for g in self.generators)

    def leq(self, other: "UpSet") -> bool:
        """Value order: self <= other iff self contains other as a set."""
        return all(self.member(g) for g in other.generators)

    def meet(self, other: "UpSet") -> "UpSet":
        """Greatest lower bound: union of the two segments.

        Both antichains are canonical, so a generator stays minimal in
        the union unless the other antichain holds a subword of it (a
        proper one for the first side, so that a shared generator is
        kept once); the two filtered antichains merge without a general
        reduction.
        """
        a, b = self.generators, other.generators
        keep = []
        for g in a:
            for h in b:
                if len(h) < len(g) and is_subword(h, g):
                    break
            else:
                keep.append(g)
        for h in b:
            for g in a:
                if len(g) <= len(h) and is_subword(g, h):
                    break
            else:
                keep.append(h)
        return UpSet(tuple(sorted(keep)))

    def join(self, other: "UpSet") -> "UpSet":
        """Least upper bound: intersection of the two segments."""
        return _join(self, other)

    def concat(self, other: "UpSet") -> "UpSet":
        """Monoid operation: elementwise concatenation.

        Every word of the product segment splits around an embedded
        generator pair, so the pairwise concatenations generate it.
        """
        return _concat(self, other)

    def involute(self) -> "UpSet":
        return UpSet(tuple(sorted(involute_word(g) for g in self.generators)))

    def max_generator_len(self) -> int:
        return max((len(g) for g in self.generators), default=0)

    def __str__(self) -> str:
        if self.is_top:
            return "top"
        return "^{" + ",".join("e" if g == "" else g for g in self.generators) + "}"


@lru_cache(maxsize=_CACHE_SIZE)
def _join(a: UpSet, b: UpSet) -> UpSet:
    gens: list[str] = []
    for g in a.generators:
        for h in b.generators:
            gens.extend(_mcs(g, h))
    return UpSet(minimal_words(gens))


@lru_cache(maxsize=_CACHE_SIZE)
def _concat(a: UpSet, b: UpSet) -> UpSet:
    gens = [g + h for g in a.generators for h in b.generators]
    return UpSet(minimal_words(gens))


TOP = UpSet(())
ZERO = UpSet(("",))


def principal(w: str) -> UpSet:
    """The up-set of all superwords of a single word."""
    return UpSet((check_word(w),))


def join_all(values: Iterable[UpSet]) -> UpSet:
    out = ZERO
    for v in values:
        out = out.join(v)
    return out


def _rest(h: str, g: str) -> str:
    """What follows the longest prefix of h that embeds into g; the
    greedy embedding places each letter as early as it can, so it
    embeds the longest prefix."""
    it = iter(g)
    for k, c in enumerate(h):
        if c not in it:
            return h[k:]
    return ""


def left_residual(q: UpSet, p: UpSet) -> UpSet:
    """The least r in the value order with q <= concat(p, r).

    Equivalently the largest final segment R with ``p . R`` inside q:
    w belongs to R iff g + w lies in q for every generator g of p.  A
    generator h of q embeds into g + w exactly when the rest of h after
    its longest prefix embedding into g embeds into w, so the words w
    with g + w in q form the up-set of those rests, one per h.  R is
    their intersection over the generators g of p: the join of the
    quotients, with no search.  No generators of p leave R the full
    language, ``ZERO``; no generators of q leave it empty, ``TOP``.
    """
    return join_all(
        UpSet(minimal_words(_rest(h, g) for h in q.generators))
        for g in p.generators
    )


def right_residual(q: UpSet, p: UpSet) -> UpSet:
    """The least r in the value order with q <= concat(r, p).

    Computed from the left residual through the involution, which
    reverses concat and preserves the order.
    """
    return left_residual(q.involute(), p.involute()).involute()


@lru_cache(maxsize=_CACHE_SIZE)
def distance(p: UpSet, q: UpSet) -> UpSet:
    """The least r with p <= concat(q, involute(r)) and q <= concat(p, r).

    The first condition is equivalent, through the involution, to
    ``involute(p) <= concat(r, involute(q))``; each condition has a
    least solution (a residual) and the two conditions cut out up-sets
    of values, so the overall least solution is the join of the two
    residuals.
    """
    a = right_residual(p.involute(), q.involute())
    b = left_residual(q, p)
    return a.join(b)


def lower_cone(words: Iterable[str]) -> tuple[str, ...]:
    """Common subwords of every word in a finite nonempty set, sorted
    shortest first."""
    ws = [check_word(w) for w in words]
    if not ws:
        raise InputError("lower cone of the empty set is the full language")
    common = set(subwords(ws[0]))
    for w in ws[1:]:
        common &= subwords(w)
    return tuple(sorted(common, key=lambda w: (len(w), w)))


def upper_cone(words: Iterable[str]) -> UpSet:
    """Superwords of every word in a finite set: the join of the
    principal up-sets.  The empty set yields ZERO."""
    out = ZERO
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        out = out.join(principal(w))
    return out


def in_macneille(u: UpSet) -> bool:
    """Whether u is an upper cone, i.e. a cut of the completion by cones.

    u is a cone iff it equals the upper cone of its lower cone; the
    lower cone of the whole segment equals the lower cone of its
    generators.  TOP is the upper cone of the full language.
    """
    if u.is_top:
        return True
    return upper_cone(lower_cone(u.generators)) == u


def principal_accessibility_witness(u: UpSet) -> str | None:
    """A word w with ``w not in u`` and ``w + involute(w) in u``, so the
    principal up-set of w certifies accessibility of u; None when u is
    inaccessible.  Works for every up-set, not only cones.

    If any witness value r exists (``not u.leq(r)`` and
    ``u.leq(concat(r, involute(r)))``) then some generator a of r is a
    one-word witness: a is outside u while ``a + involute(a)`` lands in
    u.  Such a word embeds some generator g of u split as g = p + s with
    p a subword of a and ``involute(s)`` a subword of a, so a shortest
    witness appears among the minimal common superwords of the split
    halves; the search below is therefore exact.
    """
    best: tuple[int, str] | None = None
    for g in u.generators:
        for cut in range(len(g) + 1):
            for cand in _mcs(g[:cut], involute_word(g[cut:])):
                if not u.member(cand):
                    key = (len(cand), cand)
                    if best is None or key < best:
                        best = key
    return None if best is None else best[1]


def iter_upsets(max_generator_len: int, max_generators: int) -> Iterator[UpSet]:
    """All up-sets whose canonical antichain fits the given bounds.

    Enumerated by extending antichains over the words of length up to
    ``max_generator_len`` in a fixed order; deterministic.
    """
    pool = [
        "".join(t)
        for n in range(max_generator_len + 1)
        for t in product(ALPHABET, repeat=n)
    ]

    def extend(prefix: tuple[str, ...], start: int) -> Iterator[tuple[str, ...]]:
        yield prefix
        if len(prefix) == max_generators:
            return
        for i in range(start, len(pool)):
            w = pool[i]
            if any(is_subword(g, w) or is_subword(w, g) for g in prefix):
                continue
            yield from extend(prefix + (w,), i + 1)

    for antichain in extend((), 0):
        yield UpSet(tuple(sorted(antichain)))
