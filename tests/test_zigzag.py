"""Zigzag-distance tests.

Oracles: membership is cross-checked against a literal search for
arc-preserving position maps; generator sets are checked against the
membership predicate on a bounded universe of words; both embeddings
re-verify their isometry claims from raw distances recomputed here.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_reflexive_digraph
from relmetric import vmetric, words
from relmetric.errors import (
    CapError,
    HypothesisError,
    InputError,
    StructureError,
)
from relmetric.words import TOP, ZERO, UpSet, involute_word, principal
from relmetric.zigzag import (
    Digraph,
    all_zigzag_distances,
    claim_zigzag_embedding,
    default_maxlen,
    digraph_product,
    distance_space,
    embed_into_zigzag_product,
    macneille_bounded,
    values_in_macneille,
    zigzag_fixed_point_demo,
    zigzag_from_word,
    zigzag_space,
    zz_generators,
    zz_member,
)

short_words = st.text(alphabet="+-", max_size=5)


def oriented_cycle():
    return Digraph.make(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], add_loops=True
    )


def loops_only(n: int) -> Digraph:
    vs = [str(i) for i in range(n)]
    return Digraph.make(vs, [], add_loops=True)


def literal_hom_member(g: Digraph, x: str, y: str, w: str) -> bool:
    """Oracle: search exhaustively for an arc-preserving position map
    sending the first position to x and the last to y."""
    n = len(w)
    for assignment in product(g.vertices, repeat=n + 1):
        if assignment[0] != x or assignment[n] != y:
            continue
        ok = True
        for i, letter in enumerate(w):
            a, b = assignment[i], assignment[i + 1]
            pair = (a, b) if letter == "+" else (b, a)
            if pair not in g.arcs:
                ok = False
                break
        if ok:
            return True
    return False


# ----------------------------------------------------------- path graphs


def test_path_graph_shapes():
    single = zigzag_from_word("+")
    assert single.graph.vertices == ("0", "1")
    assert single.graph.arcs == frozenset({("0", "0"), ("1", "1"), ("0", "1")})
    vee = zigzag_from_word("+-")
    assert ("0", "1") in vee.graph.arcs and ("2", "1") in vee.graph.arcs
    assert ("1", "2") not in vee.graph.arcs
    assert vee.start == "0" and vee.end == "2"
    point = zigzag_from_word("")
    assert point.graph.vertices == ("0",)
    assert point.graph.is_reflexive and point.graph.is_oriented


@settings(max_examples=120, derandomize=True)
@given(short_words)
def test_word_round_trip(u):
    canonical = min(u, involute_word(u))
    rebuilt = zigzag_from_word(canonical)
    if u == canonical:
        assert rebuilt.graph == zigzag_from_word(u).graph


def test_digraph_construction_and_validation():
    with pytest.raises(InputError, match="vertex"):
        Digraph.make([], [])
    with pytest.raises(InputError, match="name"):
        Digraph.make(["a,b"], [])
    with pytest.raises(InputError, match="arc"):
        Digraph.make(["a"], [("a", "b")])
    g = Digraph.make(["b", "a"], [("a", "b")], add_loops=True)
    assert g.vertices == ("a", "b")
    assert g.is_reflexive
    sub = g.restrict(["a"])
    assert sub.arcs == frozenset({("a", "a")})
    assert 'digraph' in g.to_dot() and '"a" -> "b"' in g.to_dot()


def test_digraph_product_arc_rule():
    p = digraph_product(
        [zigzag_from_word("+").graph, zigzag_from_word("-").graph]
    )
    assert p.vertices == ("0|0", "0|1", "1|0", "1|1")
    assert ("0|1", "1|0") in p.arcs  # forward in both coordinates
    assert ("0|0", "1|1") not in p.arcs  # second coordinate has no 0->1
    assert p.is_reflexive
    with pytest.raises(CapError):
        digraph_product([loops_only(4)] * 5)


# ------------------------------------------------------------- membership


def test_membership_basics():
    vee = zigzag_from_word("+-").graph
    assert zz_member(vee, "0", "2", "+-")
    single = zigzag_from_word("+").graph
    assert not zz_member(single, "0", "1", "-")
    assert zz_member(single, "0", "1", "+")
    assert zz_member(single, "0", "0", "")
    with pytest.raises(StructureError, match="reflexive"):
        zz_member(Digraph.make(["0", "1"], [("0", "1")]), "0", "1", "+")
    with pytest.raises(InputError, match="unknown vertex"):
        zz_member(single, "0", "9", "+")


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 10**6), short_words)
def test_membership_matches_literal_homomorphism_search(seed, w):
    rng = random.Random(seed)
    g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(1, 4)))
    x = rng.choice(g.vertices)
    y = rng.choice(g.vertices)
    assert zz_member(g, x, y, w) == literal_hom_member(g, x, y, w)


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 10**6), short_words)
def test_membership_is_closed_under_insertion(seed, w):
    rng = random.Random(seed)
    g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(1, 4)))
    x = rng.choice(g.vertices)
    y = rng.choice(g.vertices)
    if not zz_member(g, x, y, w):
        return
    for i in range(len(w) + 1):
        for letter in "+-":
            assert zz_member(g, x, y, w[:i] + letter + w[i:])


# ------------------------------------------------------------- generators


def test_generators_of_path_ends():
    for u in words.words_up_to(5):
        zz = zigzag_from_word(u)
        d = zz_generators(zz.graph, zz.start, zz.end)
        assert d.complete
        assert d.value == principal(u)


def test_generator_basics():
    vee = zigzag_from_word("+-").graph
    assert zz_generators(vee, "1", "1").value == ZERO
    far = zz_generators(loops_only(2), "0", "1")
    assert far.value == TOP and far.complete
    d = zz_generators(oriented_cycle(), "a", "b")
    assert d.complete
    assert d.value == UpSet.from_words(["+", "--"])


def test_generator_sets_are_antichains_matching_membership():
    rng = random.Random(9)
    checked = 0
    for _ in range(25):
        g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(1, 4)))
        x = rng.choice(g.vertices)
        y = rng.choice(g.vertices)
        d = zz_generators(g, x, y)
        if not d.complete:
            continue
        gens = d.value.generators
        assert gens == words.minimal_words(gens)
        for w in words.words_up_to(4):
            assert d.value.member(w) == zz_member(g, x, y, w)
        checked += 1
    assert checked > 20


def test_distance_tables_satisfy_the_axioms_elementwise():
    """Identity, involution, triangle, and the splitting law, read off
    complete distance tables through the membership predicate."""
    rng = random.Random(17)
    for _ in range(10):
        g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(2, 4)))
        table = all_zigzag_distances(g)
        if any(not d.complete for d in table.values()):
            continue
        values = {pair: d.value for pair, d in table.items()}
        for x in g.vertices:
            for y in g.vertices:
                assert (values[x, y] == ZERO) == (x == y)
                assert values[y, x] == values[x, y].involute()
                for z in g.vertices:
                    lhs = values[x, y]
                    rhs = values[x, z].concat(values[z, y])
                    assert lhs.leq(rhs)


def test_distance_splitting_law():
    """A word in d(x, y) splits at any position through some midpoint."""
    rng = random.Random(29)
    for _ in range(8):
        g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(2, 4)))
        for x in g.vertices:
            for y in g.vertices:
                for w in words.words_up_to(4):
                    if not zz_member(g, x, y, w):
                        continue
                    for cut in range(len(w) + 1):
                        assert any(
                            zz_member(g, x, z, w[:cut])
                            and zz_member(g, z, y, w[cut:])
                            for z in g.vertices
                        )


def test_truncated_searches_are_flagged():
    chain = zigzag_from_word("++").graph
    d = zz_generators(chain, "0", "2", maxlen=1)
    assert not d.complete
    assert d.value == TOP
    d = zz_generators(chain, "0", "2", node_cap=2)
    assert not d.complete
    with pytest.raises(InputError, match="maxlen"):
        zz_generators(chain, "0", "2", maxlen=0)
    assert default_maxlen(loops_only(2)) == 4
    assert default_maxlen(loops_only(8)) == 64


# ---------------------------------------- homomorphism vs nonexpansive


def hom_and_nonexpansive(f, g, h):
    """Arc preservation and non-expansiveness of f, computed apart."""
    is_hom = all((f[a], f[b]) in h.arcs for a, b in g.arcs)
    dist_g = all_zigzag_distances(g)
    dist_h = all_zigzag_distances(h)
    assert all(d.complete for d in (*dist_g.values(), *dist_h.values()))
    nonexpansive = all(
        dist_h[f[x], f[y]].value.leq(dxy.value) for (x, y), dxy in dist_g.items()
    )
    return is_hom, nonexpansive


def test_hom_check_examples():
    chain = zigzag_from_word("++").graph
    single = zigzag_from_word("+").graph
    identity = {v: v for v in chain.vertices}
    assert hom_and_nonexpansive(identity, chain, chain) == (True, True)
    collapse = {"0": "0", "1": "1", "2": "1"}
    assert hom_and_nonexpansive(collapse, chain, single) == (True, True)
    reverse = {"0": "1", "1": "0"}
    assert hom_and_nonexpansive(reverse, single, single) == (False, False)


def test_hom_check_agrees_on_random_maps():
    rng = random.Random(41)
    for _ in range(30):
        g = Digraph.make(*random_reflexive_digraph(rng, rng.randint(1, 3)))
        h = Digraph.make(*random_reflexive_digraph(rng, rng.randint(1, 3)))
        f = {v: rng.choice(h.vertices) for v in g.vertices}
        is_hom, nonexpansive = hom_and_nonexpansive(f, g, h)
        assert is_hom == nonexpansive


# --------------------------------------------------- values in the cuts


def test_cut_valued_distance_verdicts():
    for u in ["", "+", "+-", "-++"]:
        assert values_in_macneille(zigzag_from_word(u).graph) is True
    assert values_in_macneille(oriented_cycle()) is False
    prod = digraph_product(
        [zigzag_from_word("+").graph, zigzag_from_word("-").graph]
    )
    assert values_in_macneille(prod) is True
    chain = zigzag_from_word("++").graph
    assert values_in_macneille(chain, maxlen=1) is None


# ------------------------------------------------------ prefix embedding


def test_prefix_embedding_examples():
    phi = claim_zigzag_embedding("+")
    assert phi == (ZERO, principal("+"))
    assert words.distance(phi[0], phi[1]) == principal("+")
    assert claim_zigzag_embedding("") == (ZERO,)
    with pytest.raises(CapError, match="bound"):
        claim_zigzag_embedding("+" * 9)


def test_prefix_embedding_is_isometric_for_short_words():
    for u in words.words_up_to(5):
        phi = claim_zigzag_embedding(u)
        assert len(phi) == len(u) + 1
        for i in range(len(u) + 1):
            assert phi[i] == principal(u[:i])


# ----------------------------------------------------- product embedding


def recomputed_product_distance(embedding, a: str, b: str) -> UpSet:
    out = ZERO
    for factor in embedding.factors:
        i = factor.as_dict[a]
        j = factor.as_dict[b]
        seg = factor.word[i:j] if i <= j else involute_word(factor.word[j:i])
        out = out.join(principal(seg))
    return out


def test_product_embedding_of_path_graphs():
    for u in ["+", "+-", "++"]:
        g = zigzag_from_word(u).graph
        embedding = embed_into_zigzag_product(g)
        assert u in embedding.factor_words()
        coords = [embedding.coordinates(v) for v in g.vertices]
        assert len(set(coords)) == len(coords)
        table = all_zigzag_distances(g)
        for x in g.vertices:
            for y in g.vertices:
                assert recomputed_product_distance(embedding, x, y) == (
                    table[x, y].value
                )


def test_product_embedding_factors_respect_endpoints():
    g = zigzag_from_word("+-").graph
    embedding = embed_into_zigzag_product(g)
    for factor in embedding.factors:
        x, y = factor.pair
        assert factor.as_dict[x] == 0
        assert factor.as_dict[y] == len(factor.word)
    dot = embedding.to_dot()
    assert "label=" in dot


def test_product_embedding_refusals():
    with pytest.raises(HypothesisError, match="cut"):
        embed_into_zigzag_product(oriented_cycle())
    with pytest.raises(CapError, match="unbounded length"):
        embed_into_zigzag_product(loops_only(2))
    with pytest.raises(CapError, match="factors"):
        embed_into_zigzag_product(zigzag_from_word("+-+").graph, factor_cap=5)
    with pytest.raises(CapError, match="maxlen"):
        embed_into_zigzag_product(zigzag_from_word("++").graph, maxlen=1)


# -------------------------------------------------- space and boundedness


def test_zigzag_space_of_vee():
    space = zigzag_space(zigzag_from_word("+-").graph)
    assert space.elements == ("0", "1", "2")
    assert space.check_axioms() == (True, None)
    assert space.diameter() == principal("+-")
    assert space.d("0", "1") == principal("+")
    ok, witness = space.is_hyperconvex()
    assert ok and witness is None
    with pytest.raises(CapError, match="maxlen"):
        zigzag_space(zigzag_from_word("++").graph, maxlen=1)


def test_bounded_certificate_over_cuts():
    space = zigzag_space(zigzag_from_word("+-").graph)
    cert = macneille_bounded(space)
    assert cert.diameter == principal("+-")
    assert cert.witnesses
    for name, witness in cert.witnesses:
        value = space.monoid.value(name)
        assert not value.member(witness)
        assert value.member(witness + involute_word(witness))
    names = [name for name, _ in cert.witnesses]
    assert space.monoid.name(principal("+-")) in names


def test_bounded_certificate_refusals():
    space = zigzag_space(loops_only(2))
    with pytest.raises(HypothesisError, match="disconnected"):
        macneille_bounded(space)
    from relmetric.vmetric import monoid_space, v4_monoid

    with pytest.raises(InputError, match="word values"):
        macneille_bounded(monoid_space(v4_monoid()))


# ------------------------------------------------------ fixed-point demo


def test_demo_direct_route_on_path_graphs():
    single = zigzag_from_word("+").graph
    demo = zigzag_fixed_point_demo(single, [{v: v for v in single.vertices}])
    assert demo.route == "direct"
    assert demo.fixed_points == ("0", "1")
    assert demo.bounded is not None
    vee = zigzag_from_word("+-").graph
    fold = {"0": "0", "1": "1", "2": "1"}
    demo = zigzag_fixed_point_demo(vee, [fold])
    brute = tuple(sorted(v for v in vee.vertices if fold[v] == v))
    assert demo.fixed_points == brute == ("0", "1")
    assert demo.certificate.ok


def test_demo_retract_route():
    product = digraph_product(
        [zigzag_from_word("+").graph, zigzag_from_word("-").graph]
    )
    sub = product.restrict(["0|0", "1|0"])
    retraction = {"0|0": "0|0", "1|0": "1|0", "0|1": "0|0", "1|1": "1|0"}
    identity = {v: v for v in sub.vertices}
    constant = {v: "0|0" for v in sub.vertices}
    demo = zigzag_fixed_point_demo(
        sub,
        [identity, constant],
        factor_words=["+", "-"],
        retraction=retraction,
    )
    assert demo.route == "retract"
    assert demo.fixed_points == ("0|0",)
    assert demo.bounded is None


def test_relational_path_reads_the_distances_alone(monkeypatch):
    """The axioms, normal structure and the retract route of the demo
    need no closed carrier, though the closure of the path +-+ exceeds
    the default cap; the direct route closes one for hyperconvexity."""

    def refuse(*args):
        raise AssertionError("a value carrier was closed")

    monkeypatch.setattr(vmetric, "_closed_carrier", refuse)
    for factor_words in (["+-+"], ["+-", "+-+"]):
        g = digraph_product([zigzag_from_word(w).graph for w in factor_words])
        space = distance_space(g)
        assert space.check_axioms() == (True, None)
        assert space.to_relsys().has_normal_structure()[0]
        identity = {v: v for v in g.vertices}
        demo = zigzag_fixed_point_demo(
            g, [identity], factor_words=factor_words, retraction=identity
        )
        assert demo.route == "retract" and demo.fixed_points == g.vertices
    with pytest.raises(AssertionError, match="closed"):
        zigzag_fixed_point_demo(g, [identity])


def test_demo_retract_route_validation():
    product = digraph_product(
        [zigzag_from_word("+").graph, zigzag_from_word("-").graph]
    )
    sub = product.restrict(["0|0", "1|0"])
    good = {"0|0": "0|0", "1|0": "1|0", "0|1": "0|0", "1|1": "1|0"}
    with pytest.raises(InputError, match="both factor words"):
        zigzag_fixed_point_demo(sub, [], factor_words=["+", "-"])
    with pytest.raises(InputError, match="whole product"):
        zigzag_fixed_point_demo(
            sub, [], factor_words=["+", "-"], retraction={"0|0": "0|0"}
        )
    moves = dict(good, **{"1|0": "0|0"})
    with pytest.raises(InputError, match="moves"):
        zigzag_fixed_point_demo(
            sub, [], factor_words=["+", "-"], retraction=moves
        )
    outside = dict(good, **{"0|1": "1|1"})
    with pytest.raises(InputError, match="outside"):
        zigzag_fixed_point_demo(
            sub, [], factor_words=["+", "-"], retraction=outside
        )
    thin = Digraph.make(["0|0", "1|0"], [("0|0", "0|0"), ("1|0", "1|0")])
    with pytest.raises(InputError, match="induced"):
        zigzag_fixed_point_demo(
            thin, [], factor_words=["+", "-"], retraction=good
        )


def test_demo_refuses_bad_hypotheses():
    with pytest.raises(HypothesisError):
        zigzag_fixed_point_demo(
            oriented_cycle(), [{v: v for v in oriented_cycle().vertices}]
        )
    vee = zigzag_from_word("+-").graph
    to_start = {v: "0" for v in vee.vertices}
    to_end = {v: "2" for v in vee.vertices}
    with pytest.raises(InputError, match="commute"):
        zigzag_fixed_point_demo(vee, [to_start, to_end])
