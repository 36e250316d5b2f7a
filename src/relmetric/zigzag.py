"""Reflexive directed graphs with word-valued zigzag distances.

A word over "+", "-" describes a walk shape: its path graph has one
vertex per position, an edge per letter oriented forward for "+" and
backward for "-", and a loop everywhere.  The zigzag distance from x
to y in a reflexive digraph collects the words whose path graph maps
into the digraph by an arc-preserving map sending the first position
to x and the last to y.  Loops let consecutive positions share an
image, so inserting letters never breaks membership and each distance
is a final segment of the subword order -- a value of :mod:`.words`;
the assignment satisfies the axioms of :mod:`.vmetric` spaces.

Provided here:

* :class:`Digraph`, products, and the path graphs of words
  (:func:`zigzag_from_word`);
* membership and generator computation for zigzag distances with an
  automaton-based completeness certificate (:func:`zz_member`,
  :func:`zz_generators`);
* word-valued spaces over the distance values (:func:`distance_space`)
  or their closure (:func:`zigzag_space`), and the test that all distance
  values are cuts of the completion by cones (:func:`values_in_macneille`);
* isometric embeddings: prefix cones embed each path graph into the
  value algebra (:func:`claim_zigzag_embedding`), and a digraph whose
  distances are cuts embeds into a finite product of path graphs
  (:func:`embed_into_zigzag_product`);
* a fixed-point demonstration for commuting endomorphisms, with the
  hypotheses checked up front (:func:`zigzag_fixed_point_demo`).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import product as iter_product
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
from .relsys import OLRResult, SelfMap, retraction_violation
from .vmetric import CARRIER_CAP, PRODUCT_CAP, VSpace, WordValueMonoid
from .words import UpSet

#: Hard ceiling for the default generator-search depth.
MAXLEN_CAP = 64
#: Ceiling on explored automaton runs per generator search.
SEARCH_NODE_CAP = 200_000
#: Ceiling on the number of factors of a product embedding.
FACTOR_CAP = 64
#: Ceiling on the word length in the prefix-cone embedding.
PREFIX_EMBED_CAP = 8


# --------------------------------------------------------------- digraphs


@record
class Digraph:
    """A finite directed graph on named vertices.

    Zigzag operations require a loop at every vertex; construct
    through :meth:`make`, which can add the loops for you.
    """

    vertices: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]

    @staticmethod
    def make(vertices, arcs, add_loops: bool = False) -> "Digraph":
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise InputError("a digraph needs at least one vertex")
        for v in vs:
            if not isinstance(v, str) or not v or "," in v:
                raise InputError(f"bad vertex name {v!r}")
        members = set(vs)
        pairs: set[tuple[str, str]] = set()
        for a in arcs:
            pair = tuple(a)
            if len(pair) != 2 or pair[0] not in members or pair[1] not in members:
                raise InputError(f"arc {a!r} is not a pair of vertices")
            pairs.add(pair)
        if add_loops:
            pairs.update((v, v) for v in vs)
        return Digraph(vs, frozenset(pairs))

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def _check_vertex(self, v) -> None:
        if v not in self._members:
            raise InputError(f"unknown vertex {v!r}")

    @cached_property
    def is_reflexive(self) -> bool:
        return all((v, v) in self.arcs for v in self.vertices)

    @cached_property
    def is_oriented(self) -> bool:
        """No two-way arcs between distinct vertices."""
        return not any(x != y and (y, x) in self.arcs for x, y in self.arcs)

    @cached_property
    def _forward(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for x, y in self.arcs:
            out[x].add(y)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def _backward(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for x, y in self.arcs:
            out[y].add(x)
        return {v: frozenset(s) for v, s in out.items()}

    def restrict(self, subset) -> "Digraph":
        sub = tuple(sorted(set(subset)))
        if not sub:
            raise InputError("a digraph needs at least one vertex")
        for v in sub:
            self._check_vertex(v)
        keep = set(sub)
        return Digraph(
            sub, frozenset(a for a in self.arcs if a[0] in keep and a[1] in keep)
        )

    def to_dot(self) -> str:
        """DOT source for the graph; loops are left out of the drawing."""
        lines = ["digraph {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for x, y in sorted(self.arcs):
            if x != y:
                lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def digraph_product(graphs: Iterable[Digraph], cap: int = PRODUCT_CAP) -> Digraph:
    """Componentwise product; an arc between combined vertices needs an
    arc in every coordinate.  Vertex names join coordinates with '|'."""
    factors = list(graphs)
    if not factors:
        raise InputError("a product needs at least one factor")
    size = 1
    for g in factors:
        size *= len(g.vertices)
    if size > cap:
        raise CapError(f"product would have {size} vertices (cap {cap})")
    combos = list(iter_product(*(g.vertices for g in factors)))
    names = {c: "|".join(c) for c in combos}
    arcs = {
        (names[c1], names[c2])
        for c1 in combos
        for c2 in combos
        if all((a, b) in g.arcs for g, a, b in zip(factors, c1, c2))
    }
    return Digraph(tuple(sorted(names.values())), frozenset(arcs))


# ----------------------------------------------------- path graphs of words


@record
class ZigzagGraph:
    """The reflexive path graph of a word.

    Vertices are "0" .. "n" for a word of length n; letter i orients
    the edge between positions i and i+1, forward for "+".
    """

    word: str
    graph: Digraph

    @property
    def start(self) -> str:
        return "0"

    @property
    def end(self) -> str:
        return str(len(self.word))


def zigzag_from_word(u: str) -> ZigzagGraph:
    words.check_word(u)
    vs = [str(i) for i in range(len(u) + 1)]
    arcs = {(v, v) for v in vs}
    for i, letter in enumerate(u):
        if letter == "+":
            arcs.add((vs[i], vs[i + 1]))
        else:
            arcs.add((vs[i + 1], vs[i]))
    return ZigzagGraph(u, Digraph.make(vs, arcs))


# ------------------------------------------------------- zigzag distances


def zz_member(g: Digraph, x: str, y: str, w: str) -> bool:
    """Whether the word w belongs to the zigzag distance from x to y.

    Composes, letter by letter, the arc relation for "+" and its
    reverse for "-", and asks whether y lies in the image of x.  The
    reduction from arc-preserving path maps to plain reachability
    rests on reflexivity: consecutive path positions may share an
    image by sliding along a loop.
    """
    if not g.is_reflexive:
        raise StructureError("zigzag distances need a reflexive digraph")
    g._check_vertex(x)
    g._check_vertex(y)
    words.check_word(w)
    frontier: frozenset[str] = frozenset([x])
    for letter in w:
        step = g._forward if letter == "+" else g._backward
        frontier = frozenset().union(*(step[v] for v in frontier))
        if not frontier:
            return False
    return y in frontier


@record
class ZigzagDistance:
    """A computed zigzag distance: the value and a completeness flag.

    ``complete`` certifies that the generator antichain is exhaustive;
    a truncated search reports the generators found so far, which
    generate a final segment at least as large in the value order.
    """

    value: UpSet
    complete: bool


def default_maxlen(g: Digraph) -> int:
    """A search depth covering every repetition-free automaton run,
    capped at :data:`MAXLEN_CAP`."""
    return min(2 ** len(g.vertices), MAXLEN_CAP)


def zz_generators(
    g: Digraph,
    x: str,
    y: str,
    maxlen: int | None = None,
    node_cap: int = SEARCH_NODE_CAP,
) -> ZigzagDistance:
    """The minimal words of the zigzag distance from x to y.

    Words act on vertex sets: the state after a word is the set of
    vertices reachable from x along it, and a word belongs to the
    distance exactly when its state contains y.  Deleting the factor
    between two equal states of a run yields a subword with the same
    final state, so every minimal word heads a repetition-free run and
    a first in-language prefix ends it.  The search below therefore
    extends only repetition-free runs, stops each at its first hit,
    and is exact whenever nothing was cut off by ``maxlen`` or
    ``node_cap`` -- the ``complete`` flag records that.
    """
    if not g.is_reflexive:
        raise StructureError("zigzag distances need a reflexive digraph")
    g._check_vertex(x)
    g._check_vertex(y)
    if maxlen is None:
        maxlen = default_maxlen(g)
    if maxlen < 1:
        raise InputError("maxlen must be at least 1")
    start = frozenset([x])
    found: list[str] = []
    complete = True
    queue: deque[tuple[str, frozenset[str], frozenset[frozenset[str]]]] = deque(
        [("", start, frozenset([start]))]
    )
    explored = 1
    while queue:
        word, state, seen = queue.popleft()
        if y in state:
            found.append(word)
            continue
        if len(word) == maxlen:
            complete = False
            continue
        for letter in "+-":
            step = g._forward if letter == "+" else g._backward
            nxt = frozenset().union(*(step[v] for v in state))
            if not nxt or nxt in seen:
                continue
            if explored >= node_cap:
                complete = False
                continue
            explored += 1
            queue.append((word + letter, nxt, seen | {nxt}))
    return ZigzagDistance(UpSet(words.minimal_words(found)), complete)


def all_zigzag_distances(
    g: Digraph, maxlen: int | None = None
) -> dict[tuple[str, str], ZigzagDistance]:
    """Every pairwise zigzag distance, keyed by ordered vertex pair."""
    return {
        (x, y): zz_generators(g, x, y, maxlen) for x in g.vertices for y in g.vertices
    }


def _complete_distances(
    g: Digraph, maxlen: int | None
) -> dict[tuple[str, str], UpSet]:
    """Every pairwise zigzag distance value; a search cut off by
    ``maxlen`` or the node cap raises :class:`CapError`."""
    dists = all_zigzag_distances(g, maxlen)
    bad = sorted(pair for pair, d in dists.items() if not d.complete)
    if bad:
        raise CapError(
            f"the zigzag distance for {bad[0]} is not certified complete; "
            "raise maxlen"
        )
    return {pair: d.value for pair, d in dists.items()}


def values_in_macneille(g: Digraph, maxlen: int | None = None) -> bool | None:
    """Whether every pairwise distance is a cut of the completion by
    cones; None when a truncated computation blocks the verdict."""
    dists = all_zigzag_distances(g, maxlen)
    if any(not d.complete for d in dists.values()):
        return None
    return all(words.in_macneille(d.value) for d in dists.values())


# ------------------------------------------------ the metric-space bridge


def distance_space(g: Digraph, maxlen: int | None = None) -> VSpace:
    """The word-valued space of a reflexive digraph over its distance
    values, 0 and top, not closed; every distance must be complete.  The
    checks that quantify over values close it themselves."""
    values = _complete_distances(g, maxlen)
    bound = max(1, max(v.max_generator_len() for v in values.values()))
    return VSpace.make(g.vertices, WordValueMonoid.over(values.values(), bound), values)


def zigzag_space(
    g: Digraph, maxlen: int | None = None, carrier_cap: int = CARRIER_CAP
) -> VSpace:
    """:func:`distance_space` over the closure of its values, products
    bounded by the longest generator and refused over ``carrier_cap``."""
    return distance_space(g, maxlen).closed(carrier_cap)


# ------------------------------------------------------ prefix embedding


def claim_zigzag_embedding(u: str) -> tuple[UpSet, ...]:
    """Embed the path graph of a word into the value algebra by prefixes.

    Position i goes to the principal up-set of the first i letters.
    The word-algebra distance between the images of i and j is
    verified to equal the principal up-set of the letters between them
    (involuted when j < i), which is the zigzag distance between the
    positions, so the embedding is isometric.
    """
    words.check_word(u)
    if len(u) > PREFIX_EMBED_CAP:
        raise CapError(f"word length {len(u)} exceeds the bound {PREFIX_EMBED_CAP}")
    phi = tuple(words.principal(u[:i]) for i in range(len(u) + 1))
    for i in range(len(u) + 1):
        for j in range(len(u) + 1):
            expected = words.principal(_segment_word(u, i, j))
            got = words.distance(phi[i], phi[j])
            if got != expected:
                raise InternalCheckError(
                    f"the prefix embedding is not isometric at ({i}, {j}): "
                    f"{got} != {expected}"
                )
    return phi


def _segment_word(u: str, i: int, j: int) -> str:
    return u[i:j] if i <= j else words.involute_word(u[j:i])


def _segment_value(u: str, i: int, j: int) -> UpSet:
    return words.principal(_segment_word(u, i, j))


# ----------------------------------------------------- product embedding


@record
class FactorMap:
    """One coordinate of a zigzag-product embedding.

    For a source pair and a word u below their distance, a
    nonexpansive map into the path graph of u sending the pair to the
    two ends; ``image`` lists each vertex with its path position.
    """

    pair: tuple[str, str]
    word: str
    image: tuple[tuple[str, int], ...]

    @cached_property
    def as_dict(self) -> dict[str, int]:
        return dict(self.image)


@record(eq=False)
class ZigzagEmbedding:
    """A verified isometric embedding of a digraph into a product of
    path graphs, one coordinate per factor map; ``distances`` is the
    distance table that the factors reproduce."""

    graph: Digraph
    factors: tuple[FactorMap, ...]
    distances: Mapping[tuple[str, str], UpSet]

    def coordinates(self, v: str) -> tuple[int, ...]:
        self.graph._check_vertex(v)
        return tuple(f.as_dict[v] for f in self.factors)

    def factor_words(self) -> tuple[str, ...]:
        return tuple(f.word for f in self.factors)

    def to_dot(self) -> str:
        """DOT source for the graph with coordinate labels."""
        lines = ["digraph {"]
        for v in self.graph.vertices:
            coords = ",".join(str(c) for c in self.coordinates(v))
            lines.append(f'  "{v}" [label="{v}\\n({coords})"];')
        for x, y in sorted(self.graph.arcs):
            if x != y:
                lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _extend_into_path(
    g: Digraph,
    values: Mapping[tuple[str, str], UpSet],
    x: str,
    y: str,
    u: str,
) -> dict[str, int]:
    """Extend {x -> 0, y -> len(u)} to a nonexpansive map into the
    path graph of u, one vertex at a time.

    The admissible positions for a new vertex form an intersection of
    balls of the path graph, which are integer intervals, and the
    pairwise intersections are nonempty by convexity, so the whole
    intersection is nonempty; the least admissible position is chosen
    for determinism.
    """
    n = len(u)
    image = {x: 0}
    image[y] = n
    for z in g.vertices:
        if z in image:
            continue
        admissible = [
            j
            for j in range(n + 1)
            if all(
                _segment_value(u, image[w], j).leq(values[w, z]) for w in image
            )
        ]
        if not admissible:
            raise InternalCheckError(
                f"single-point extension into the path graph of {u!r} "
                f"failed at vertex {z!r}"
            )
        image[z] = admissible[0]
    return image


def embedding_violation(
    vertices, values: Mapping[tuple[str, str], UpSet], factors: Iterable[FactorMap]
) -> str | None:
    """The first reason the factor maps fail to embed the distance table
    isometrically into the product of their path graphs, or None.

    The table must hold every ordered pair.  Each factor must map every
    vertex to a position of its path graph, send its pair to the start
    and the end of its word, and be nonexpansive; the join of the factor
    distances must then reproduce every distance in the table.
    """
    for a in vertices:
        for b in vertices:
            if (a, b) not in values:
                return f"the distance table lacks d({a!r},{b!r})"
    factors = list(factors)
    for f in factors:
        (x, y), u, image = f.pair, f.word, f.as_dict
        where = f"factor ({x!r},{y!r},{u!r})"
        if sorted(image) != sorted(vertices):
            return f"{where}: image does not cover the vertices"
        for a, j in sorted(image.items()):
            if type(j) is not int or not 0 <= j <= len(u):
                return f"{where}: the image {j!r} of {a!r} is not a path position"
        if image.get(x) != 0 or image.get(y) != len(u):
            return f"{where}: endpoints are not start and end"
        for a in vertices:
            for b in vertices:
                if not _segment_value(u, image[a], image[b]).leq(values[a, b]):
                    return f"{where}: expansive at ({a!r},{b!r})"
    for a in vertices:
        for b in vertices:
            joined = words.join_all(
                _segment_value(f.word, f.as_dict[a], f.as_dict[b]) for f in factors
            )
            if joined != values[a, b]:
                return f"the factor distances do not reproduce d({a!r},{b!r})"
    return None


def embed_into_zigzag_product(
    g: Digraph, maxlen: int | None = None, factor_cap: int = FACTOR_CAP
) -> ZigzagEmbedding:
    """Isometrically embed a digraph into a finite product of path
    graphs, when its distance values permit it.

    Requires every pairwise distance to be a cut of the completion by
    cones -- otherwise no product of path graphs can receive the
    digraph isometrically -- and every pair of vertices to be
    connected, since a disconnected pair would need factors of
    unbounded length, beyond any finite product.  One factor is built
    for each pair (x, y) and each word u below their distance, by
    nonexpansive single-point extension of {x -> start, y -> end};
    the coordinatewise join of the factor distances is then verified
    to reproduce every source distance.
    """
    values = _complete_distances(g, maxlen)
    not_cut = sorted(pair for pair, v in values.items() if not words.in_macneille(v))
    if not_cut:
        raise HypothesisError(
            f"the distance for {not_cut[0]} is not a cut of the completion "
            "by cones, so no product of path graphs receives this digraph "
            "isometrically"
        )
    disconnected = sorted(
        (x, y) for (x, y), v in values.items() if x != y and v.is_top
    )
    if disconnected:
        x, y = disconnected[0]
        raise CapError(
            f"vertices {x!r} and {y!r} are not connected: an embedding "
            "would need infinitely many factors of unbounded length"
        )
    factor_plan = [
        (x, y, u)
        for x in g.vertices
        for y in g.vertices
        for u in words.lower_cone(values[x, y].generators)
    ]
    if len(factor_plan) > factor_cap:
        raise CapError(
            f"the embedding needs {len(factor_plan)} factors (cap {factor_cap})"
        )
    factors = tuple(
        FactorMap(
            (x, y), u, tuple(sorted(_extend_into_path(g, values, x, y, u).items()))
        )
        for x, y, u in factor_plan
    )
    violation = embedding_violation(g.vertices, values, factors)
    if violation is not None:
        raise InternalCheckError(f"the product embedding fails: {violation}")
    return ZigzagEmbedding(g, factors, values)


# ------------------------------------------------------------ boundedness


@record
class BoundedCert:
    """Certificate that a word-valued space is bounded over the cut
    values: the diameter is a cut below the top, and every nonzero cut
    value of the carrier at or below it has an accessibility witness,
    recorded as (value name, witness word)."""

    diameter: UpSet
    witnesses: tuple[tuple[str, str], ...]


def bounded_cuts(space: VSpace, diameter: UpSet) -> list[UpSet]:
    """The values boundedness quantifies over: the nonzero values of the
    closed carrier at or below the diameter that are cuts of the
    completion by cones."""
    return [
        v
        for v in space.closed().monoid.carrier
        if not v.is_zero and v.leq(diameter) and words.in_macneille(v)
    ]


def macneille_bounded(space: VSpace) -> BoundedCert:
    """Check boundedness of a word-valued space over the cut values.

    Quantifies over :func:`bounded_cuts`, the values of the closed
    carrier that are cuts of the completion by cones: each nonzero cut
    at or below the diameter must admit a word w outside it with w
    followed by its involute inside it (the principal witness of
    accessibility).  Other values lie outside the completion.
    """
    monoid = space.monoid
    if not isinstance(monoid, WordValueMonoid):
        raise InputError("boundedness over cuts needs word values")
    diameter = space.diameter()
    if diameter.is_top:
        raise HypothesisError(
            "the diameter is the top value: some pair is disconnected"
        )
    if not words.in_macneille(diameter):
        raise HypothesisError("the diameter is not a cut of the completion")
    failures: list[str] = []
    witnesses: list[tuple[str, str]] = []
    for v in bounded_cuts(space, diameter):
        w = words.principal_accessibility_witness(v)
        if w is None:
            failures.append(monoid.name(v))
        else:
            witnesses.append((monoid.name(v), w))
    if failures:
        raise HypothesisError(
            "inaccessible cut value(s) at or below the diameter: "
            + ", ".join(sorted(failures))
        )
    return BoundedCert(diameter, tuple(sorted(witnesses)))


# ------------------------------------------------------ fixed-point demo


@record(eq=False)
class ZigzagFixedPointDemo:
    """A verified fixed-point run on a digraph.

    ``route`` records which hypothesis was checked: "retract" (the
    digraph was presented as a retract of a supplied product of path
    graphs, retraction verified) or "direct" (hyperconvexity and
    boundedness over cuts verified on the digraph's own space).
    ``certificate`` is the solver's one-local-retract certificate for
    the fixed-point set.
    """

    graph: Digraph
    route: str
    fixed_points: tuple[str, ...]
    certificate: OLRResult
    bounded: BoundedCert | None


def product_retract_violation(
    g: Digraph, factor_words: Iterable[str], retraction: Mapping[str, str]
) -> str | None:
    """The first reason the retraction fails to exhibit the digraph as a
    retract of the product of the path graphs of the factor words, or
    None: the digraph must be the induced subgraph of the product on its
    vertices, and the retraction is checked by
    :func:`.relsys.retraction_violation`."""
    product = digraph_product(
        [zigzag_from_word(w).graph for w in factor_words]
    )
    if not g._members <= product._members or g != product.restrict(g.vertices):
        return (
            "the digraph must be the induced subgraph of the product on "
            "its vertices"
        )
    return retraction_violation(
        product.vertices, product.arcs, g.vertices, dict(retraction)
    )


def zigzag_fixed_point_demo(
    g: Digraph,
    maps: Iterable[Mapping[str, str]],
    *,
    factor_words: Iterable[str] | None = None,
    retraction: Mapping[str, str] | None = None,
    maxlen: int | None = None,
) -> ZigzagFixedPointDemo:
    """Common fixed points of commuting endomorphisms of a digraph
    whose fixed-point hypothesis is verified first.

    Two routes establish the hypothesis.  Retract route: the digraph
    is the induced subgraph of the product of the given path graphs
    and the given retraction onto it is checked.  Direct route (no
    product given): the digraph's own space is checked hyperconvex
    relative to its closed value carrier and bounded over the cut
    values; both checks close the carrier themselves.  Either way the
    solver works on the distances alone; with the hypothesis verified, a
    solver refusal is an internal error, not a user error.
    """
    if (factor_words is None) != (retraction is None):
        raise InputError(
            "the retract route needs both factor words and a retraction"
        )
    space = distance_space(g, maxlen)
    bounded: BoundedCert | None = None
    if factor_words is not None:
        violation = product_retract_violation(g, factor_words, retraction)
        if violation is not None:
            raise InputError(violation)
        route = "retract"
    else:
        ok, witness = space.check_axioms()
        if not ok:
            raise InternalCheckError(
                f"zigzag distances must satisfy the metric axioms: {witness}"
            )
        ok, witness = space.is_hyperconvex()
        if not ok:
            raise HypothesisError(
                "the digraph's space is not hyperconvex relative to its "
                f"value carrier: {witness}"
            )
        bounded = macneille_bounded(space)
        route = "direct"
    system = space.to_relsys()
    selfmaps = [SelfMap.make(dict(m), space.elements) for m in maps]
    try:
        fixed, certificate = system.common_fixed_points(selfmaps)
    except HypothesisError as exc:
        raise InternalCheckError(
            "the verified hypotheses guarantee a normal structure, but the "
            f"solver refused: {exc}"
        ) from exc
    return ZigzagFixedPointDemo(
        g, route, tuple(sorted(fixed)), certificate, bounded
    )
