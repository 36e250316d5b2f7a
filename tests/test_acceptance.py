"""Acceptance suite: one test per numbered criterion, printed as
"ACCEPT-NN pass" when it holds.

Corpora are exhaustive wherever affordable (all labeled posets with up
to five points, all zigzag words up to the stated lengths, all value
antichains over short words) and seeded otherwise; every seed is fixed
in this file, so the corpus is identical on every run.  Oracles are
independent re-derivations: brute-force least-element searches over a
finite word universe, literal depth-first homomorphism search,
definitional fixed-point intersections, and a three-way per-pair
enumeration of strict orders whose counts are pinned against the known
ladder 1, 3, 19, 219, 4231.
"""

from __future__ import annotations

import json
import random
import time
from functools import cache
from itertools import combinations, islice, product as iproduct

import pytest

from conftest import (
    closure_system_lattice,
    metric_one_local_retract,
    monotone_selfmaps,
    random_reflexive_digraph,
    random_reflexive_involutive_system,
    random_strict_order,
    v4_space_from_order,
)
from relmetric import words
from relmetric.cli import main as cli_main
from relmetric.errors import HypothesisError
from relmetric.poset import Poset, tarski_common_fixed_points
from relmetric.vmetric import (
    VMap,
    VSpace,
    WordValueMonoid,
    canonical_embedding,
    monoid_space,
    v4_monoid,
)
from relmetric.words import (
    TOP,
    ZERO,
    UpSet,
    involute_word,
    iter_upsets,
    principal,
    words_up_to,
)
from relmetric.zigzag import (
    Digraph,
    all_zigzag_distances,
    claim_zigzag_embedding,
    digraph_product,
    embed_into_zigzag_product,
    values_in_macneille,
    zigzag_from_word,
    zz_member,
)

LABELED_POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def all_strict_orders_exhaustive(n: int) -> list[frozenset]:
    """Every strict order on n labeled points, via the three possible
    states of each unordered pair (below, above, incomparable) plus a
    transitivity filter; the counts match the known ladder."""
    pts = [str(i) for i in range(n)]
    prs = list(combinations(pts, 2))
    out = []
    for choice in iproduct((0, 1, 2), repeat=len(prs)):
        rel = set()
        for (x, y), c in zip(prs, choice):
            if c == 1:
                rel.add((x, y))
            elif c == 2:
                rel.add((y, x))
        ok = True
        for x, y in rel:
            for y2, z in rel:
                if y2 == y and (x, z) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(rel))
    assert len(out) == LABELED_POSET_COUNTS[n]
    return out


def all_words(maxlen: int) -> list[str]:
    return ["".join(p) for k in range(maxlen + 1) for p in iproduct("+-", repeat=k)]


def upset_key(u: UpSet) -> tuple:
    return tuple((len(g), g) for g in u.generators)


def thin_word_space(g: Digraph) -> VSpace:
    """The zigzag space of a digraph over the smallest carrier that
    contains its distance values.

    The carrier of a word-value monoid only fixes the quantification
    range for radii and forms; distances, joins and embeddings are
    exact algebra operations, so embedding checks are valid over this
    thin carrier even where the closed carrier would be huge.
    """
    dists = all_zigzag_distances(g)
    assert all(d.complete for d in dists.values())
    vals = {d.value for d in dists.values()} | {ZERO, TOP}
    monoid = WordValueMonoid(
        tuple(sorted(vals, key=upset_key)),
        max(1, max(v.max_generator_len() for v in vals)),
    )
    return VSpace.make(g.vertices, monoid, {p: d.value for p, d in dists.items()})


@cache
def lattice_corpus() -> tuple:
    """Complete-lattice orders: all with up to four points, plus 25
    seeded intersection-closed families with five or six elements."""
    corpus = []
    for n in range(1, 5):
        for lt in all_strict_orders_exhaustive(n):
            els = tuple(str(i) for i in range(n))
            if Poset.make(els, lt).is_complete_lattice():
                corpus.append((els, lt))
    rng = random.Random(424)
    seeded = 0
    while seeded < 25:
        els, lt = closure_system_lattice(rng, 3, rng.choice([2, 3, 4]))
        if not 5 <= len(els) <= 6:
            continue
        corpus.append((tuple(els), lt))
        seeded += 1
    return tuple(corpus)


# --------------------------------------------------------------- criteria


def test_accept_01_distance_axioms():
    """Identity, involution and triangle laws of the value-algebra
    distance over sixty word values with generators of length at most
    three, and exhaustively over the four-value monoid; under 60 s."""
    start = time.time()
    pool = list(islice(iter_upsets(3, 2), 60))
    assert len(pool) >= 50
    d = words.distance
    for p in pool:
        for q in pool:
            assert d(p, q).leq(ZERO) == (p == q)
            assert d(p, q).involute() == d(q, p)
    for p in pool:
        for q in pool:
            dpq = d(p, q)
            for r in pool:
                assert dpq.leq(d(p, r).concat(d(r, q)))
    ok, witness = monoid_space(v4_monoid()).check_axioms()
    assert ok and witness is None
    assert time.time() - start < 60
    print("ACCEPT-01 pass")


def test_accept_02_residuals_match_brute_force():
    """Left/right residuals and the distance agree with least-element
    searches over the full word universe of length at most six, on 200
    seeded value pairs."""
    rng = random.Random(20260823)
    pool = list(islice(iter_upsets(2, 2), 200))
    universe = all_words(6)
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        left = words.left_residual(q, p)
        right = words.right_residual(q, p)
        dist = words.distance(p, q)
        for value in (left, right, dist):
            assert max((len(g) for g in value.generators), default=0) <= 6
        assert left == UpSet.from_words(
            w for w in universe if q.leq(p.concat(principal(w)))
        )
        assert right == UpSet.from_words(
            w for w in universe if q.leq(principal(w).concat(p))
        )
        assert dist == UpSet.from_words(
            w
            for w in universe
            if q.leq(p.concat(principal(w)))
            and p.leq(q.concat(principal(involute_word(w))))
        )
    print("ACCEPT-02 pass")


def test_accept_03_canonical_embedding_isometric():
    """Distance-profile embeddings verified isometric on the
    four-valued spaces of all 4473 labeled posets with up to five
    points and on the zigzag spaces of all words of length at most
    four (the construction raises on any isometry failure)."""
    total = 0
    for n in range(1, 6):
        for lt in all_strict_orders_exhaustive(n):
            els = [str(i) for i in range(n)]
            canonical_embedding(v4_space_from_order(els, lt))
            total += 1
    assert total == sum(LABELED_POSET_COUNTS.values())
    for u in all_words(4):
        emb = canonical_embedding(thin_word_space(zigzag_from_word(u).graph))
        assert len(emb.coordinates) == len(u) + 1
    print("ACCEPT-03 pass")


def test_accept_04_hyperconvex_iff_complete_lattice():
    """Hyperconvexity of the four-valued order space coincides with
    the order being a complete lattice, exhaustively over all 4473
    labeled posets with up to five points; zero disagreements."""
    checked = 0
    for n in range(1, 6):
        for lt in all_strict_orders_exhaustive(n):
            els = [str(i) for i in range(n)]
            space = v4_space_from_order(els, lt)
            hyper = space.is_hyperconvex()[0]
            lattice = Poset.make(els, lt).is_complete_lattice()
            assert hyper == lattice, (lt, hyper, lattice)
            checked += 1
    assert checked >= 500
    print("ACCEPT-04 pass")


def test_accept_05_lattice_solver_matches_brute_intersection():
    """On 200 seeded complete lattices with at most six elements, the
    generic solver's common fixed set for a commuting monotone pair is
    nonempty and equals the brute-force intersection."""
    rng = random.Random(550)
    solved = 0
    while solved < 200:
        els, lt = closure_system_lattice(rng, 3, rng.choice([2, 3, 4]))
        if len(els) > 6:
            continue
        p = Poset.make(els, lt)
        maps = monotone_selfmaps(els, lt, limit=50)
        pair = None
        for f, g in combinations(maps, 2):
            if f.commutes_with(g):
                pair = (f, g)
                break
        if pair is None:
            pair = (maps[0], maps[0])
        fixed = tarski_common_fixed_points(p, list(pair))
        brute = {
            x for x in els if all(f.as_dict[x] == x for f in pair)
        }
        assert fixed and set(fixed) == brute
        solved += 1
    print("ACCEPT-05 pass")


def test_accept_06_endomorphisms_always_have_fixed_points():
    """Every monotone self-map, and every commuting pair from a
    deterministic prefix of twenty maps per space, on the bounded
    hyperconvex spaces of the lattice corpus yields a nonempty,
    certified common fixed set."""
    singles = pairs = 0
    for els, lt in lattice_corpus():
        space = v4_space_from_order(els, lt)
        assert space.is_hyperconvex()[0] and space.is_bounded()
        system = space.to_relsys()
        maps = monotone_selfmaps(els, lt)
        for f in maps:
            fixed, cert = system.common_fixed_points([f])
            assert fixed and cert.ok
            singles += 1
        for f, g in combinations(maps[:20], 2):
            if f.commutes_with(g):
                fixed, cert = system.common_fixed_points([f, g])
                assert fixed and cert.ok
                pairs += 1
    assert singles > 5000 and pairs > 2000
    print("ACCEPT-06 pass")


def test_accept_07_fixed_sets_are_one_local_retracts():
    """For every monotone self-map on every space of the lattice
    corpus, the fixed-point set passes the one-local-retract check."""
    checked = 0
    for els, lt in lattice_corpus():
        space = v4_space_from_order(els, lt)
        system = space.to_relsys()
        for f in monotone_selfmaps(els, lt):
            fixed = {x for x in els if f.as_dict[x] == x}
            assert fixed
            assert system.is_one_local_retract(fixed).ok
            checked += 1
    assert checked > 5000
    print("ACCEPT-07 pass")


def test_accept_08_descending_retract_chains_intersect_well():
    """100 seeded descending chains of one-local retracts in normal
    involutive systems with at most eight elements: the intersection
    of each chain passes the one-local-retract check."""
    rng = random.Random(88)
    chains = 0
    attempts = 0
    while chains < 100 and attempts < 2000:
        attempts += 1
        n = rng.choice([4, 5, 6, 7, 8])
        if attempts % 5 == 0:
            system = random_reflexive_involutive_system(
                rng, n, nrel=1, density=rng.choice([0.25, 0.4])
            )
        else:
            els = [str(i) for i in range(n)]
            lt = random_strict_order(rng, n)
            system = v4_space_from_order(els, lt).to_relsys()
        if not system.has_normal_structure()[0]:
            continue
        current = set(system.elements)
        chain = [frozenset(current)]
        order = sorted(current)
        rng.shuffle(order)
        for x in order:
            cand = current - {x}
            if cand and system.is_one_local_retract(cand).ok:
                current = cand
                chain.append(frozenset(current))
        if len(chain) < 3:
            continue
        assert all(system.is_one_local_retract(a).ok for a in chain)
        meet = frozenset.intersection(*chain)
        assert meet == chain[-1]
        assert system.is_one_local_retract(meet).ok
        chains += 1
    assert chains >= 100
    print("ACCEPT-08 pass")


def test_accept_09_membership_matches_literal_homomorphisms():
    """Word membership through relation composition agrees with a
    literal depth-first search for arc-preserving position maps on 300
    seeded digraphs with at most four vertices, for every vertex pair
    and every word of length at most five; 100% agreement."""

    def hom_oracle(g: Digraph, x: str, y: str, w: str) -> bool:
        fwd, bwd = g._forward, g._backward
        n = len(w)
        dead = set()

        def walk(i: int, v: str) -> bool:
            if (i, v) in dead:
                return False
            if i == n:
                if v == y:
                    return True
                dead.add((i, v))
                return False
            for nxt in sorted(fwd[v] if w[i] == "+" else bwd[v]):
                if walk(i + 1, nxt):
                    return True
            dead.add((i, v))
            return False

        return walk(0, x)

    rng = random.Random(99)
    lexicon = all_words(5)
    graphs = checked = 0
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4])
        vs, arcs = random_reflexive_digraph(
            rng, n, density=rng.choice([0.2, 0.4, 0.7])
        )
        g = Digraph.make(vs, arcs)
        graphs += 1
        for x in vs:
            for y in vs:
                for w in lexicon:
                    assert zz_member(g, x, y, w) == hom_oracle(g, x, y, w)
                    checked += 1
    assert graphs >= 300 and checked > 100_000
    print("ACCEPT-09 pass")


def test_accept_10_prefix_embedding_isometric():
    """The prefix embedding of every word of length at most five into
    the value algebra is isometric: the distance between prefix images
    is the principal value of the letters between the positions."""
    for u in all_words(5):
        phi = claim_zigzag_embedding(u)
        assert len(phi) == len(u) + 1
        for i in range(len(u) + 1):
            for j in range(i, len(u) + 1):
                assert words.distance(phi[i], phi[j]) == principal(u[i:j])
    print("ACCEPT-10 pass")


def test_accept_11_cut_values_are_accessible():
    """Every cut of the completion by cones whose generators have
    length at most four — all 79 of them among the 90271 up-sets over
    those words — either is an endpoint (least or top value) or has a
    verified accessibility witness passing both order checks."""
    upsets = list(iter_upsets(4, 16))
    assert len(upsets) == 90_271
    cuts = [u for u in upsets if words.in_macneille(u)]
    assert len(cuts) == 79
    assert words.principal_accessibility_witness(ZERO) is None
    assert words.principal_accessibility_witness(TOP) is None
    witnessed = 0
    for v in cuts:
        if v in (ZERO, TOP):
            continue
        w = words.principal_accessibility_witness(v)
        assert w is not None, v
        r = principal(w)
        assert not v.leq(r)
        assert v.leq(r.concat(r.involute()))
        witnessed += 1
    assert witnessed == 77
    print("ACCEPT-11 pass")


def test_accept_12_product_embedding_theorem_boundary():
    """The oriented three-cycle has a non-cut distance value and is
    refused; every path graph of a word of length at most four and
    five products of two such graphs have cut values only, and their
    product embeddings verify as isometric."""
    cycle = Digraph.make(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], add_loops=True
    )
    assert values_in_macneille(cycle) is False
    with pytest.raises(HypothesisError):
        embed_into_zigzag_product(cycle)
    for u in all_words(4):
        g = zigzag_from_word(u).graph
        assert values_in_macneille(g) is True
        emb = embed_into_zigzag_product(g, factor_cap=100_000)
        assert len(emb.factors) >= len(u)
    for u, v in [("+", "+"), ("+", "-"), ("+-", "+"), ("+-", "-+"), ("++", "-")]:
        p = digraph_product(
            [zigzag_from_word(u).graph, zigzag_from_word(v).graph]
        )
        assert values_in_macneille(p) is True
        embed_into_zigzag_product(p, factor_cap=100_000)
    print("ACCEPT-12 pass")


def test_accept_13_hole_preservation_characterized():
    """Over all monotone self-maps of the four-valued spaces of all
    labeled posets with up to four points (9740 maps), a map preserves
    holes exactly when it is an isometry whose image passes the
    one-local-retract check; 100% agreement."""
    checked = 0
    for n in range(1, 5):
        for lt in all_strict_orders_exhaustive(n):
            els = [str(i) for i in range(n)]
            space = v4_space_from_order(els, lt)
            for f in monotone_selfmaps(els, lt):
                vmap = VMap.make(space, space, f.as_dict)
                preserving = vmap.is_hole_preserving()
                image_olr = metric_one_local_retract(
                    space, set(f.as_dict.values())
                ).ok
                assert preserving == (vmap.is_isometry() and image_olr)
                checked += 1
    assert checked == 9740
    print("ACCEPT-13 pass")


def test_accept_14_certificates_verify_and_runs_are_reproducible(tmp_path):
    """Every certificate the command line emits on a mixed corpus
    passes verification, and re-running the same seeded invocation
    reproduces the bytes exactly."""

    def write(name: str, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    graph = write(
        "g.json",
        {
            "vertices": ["0", "1", "2"],
            "arcs": [["0", "1"], ["2", "1"]],
            "add_loops": True,
        },
    )
    chain = write(
        "chain.json",
        {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]},
    )
    vee = write(
        "vee.json",
        {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["c", "b"]]},
    )
    space = write(
        "s.json",
        {
            "elements": ["x", "y"],
            "monoid": "V4",
            "dist": {"x,x": "0", "x,y": "+", "y,x": "-", "y,y": "0"},
        },
    )
    gmap = write("gmap.json", {"0": "0", "1": "1", "2": "1"})
    pmap = write("pmap.json", {"a": "a", "b": "a", "c": "c"})
    demo_zz = write(
        "dzz.json",
        {
            "kind": "zigzag",
            "graph": {
                "vertices": ["0", "1"],
                "arcs": [["0", "1"]],
                "add_loops": True,
            },
            "maps": [{"0": "0", "1": "1"}],
        },
    )
    demo_fence = write(
        "dfence.json",
        {
            "kind": "fence-retract",
            "orientations": ["+", "-"],
            "sub": ["v0|v0", "v1|v0"],
            "retraction": {
                "v0|v0": "v0|v0",
                "v1|v0": "v1|v0",
                "v0|v1": "v0|v0",
                "v1|v1": "v1|v0",
            },
            "maps": [{"v0|v0": "v0|v0", "v1|v0": "v1|v0"}],
        },
    )
    invocations = [
        ["check", "axioms", "--input", graph],
        ["check", "hyperconvex", "--input", graph],
        ["check", "macneille-bounded", "--input", graph],
        ["check", "macneille", "--input", graph],
        ["check", "normal", "--input", graph],
        ["check", "lattice", "--input", vee],
        ["check", "axioms", "--input", space],
        ["distance", "--input", graph, "--from", "0", "--to", "2"],
        ["distance", "--input", space, "--from", "x", "--to", "y"],
        ["fixpoint", "--input", graph, "--maps", gmap],
        ["fixpoint", "--input", chain, "--maps", pmap],
        ["embed", "--input", graph],
        ["embed", "--input", space],
        ["gaps", "--input", vee],
        ["holes", "--input", vee],
        ["demo", "--input", demo_zz],
        ["demo", "--input", demo_fence],
    ]
    for k, argv in enumerate(invocations):
        first = tmp_path / f"cert-{k}-a.json"
        second = tmp_path / f"cert-{k}-b.json"
        assert cli_main(argv + ["--seed", "7", "--out", str(first)]) == 0
        assert cli_main(argv + ["--seed", "7", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv
        report = tmp_path / f"verify-{k}.json"
        assert (
            cli_main(
                ["verify", "--cert", str(first), "--out", str(report)]
            )
            == 0
        )
        verdict = json.loads(report.read_text())
        assert verdict["verdict"] is True, (argv, verdict)
    print("ACCEPT-14 pass")
