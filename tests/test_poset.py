"""Order-side tests.

Oracles: gap detection is cross-checked against a definitional scan of
arbitrary subset pairs; complete-lattice detection against a full
subset scan; the fixed-point solvers against brute-force scans of all
candidate points.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from conftest import (
    all_strict_orders,
    monotone_selfmaps,
    random_strict_order,
    v4_space_from_order,
)
from relmetric.errors import CapError, HypothesisError, InputError
from relmetric.poset import (
    Gap,
    Poset,
    all_posets,
    fence_product_retract_demo,
    find_gaps,
    gap_hole,
    is_gap,
    make_fence,
    minimal_subgap,
    poset_product,
    poset_to_vspace,
    tarski_common_fixed_points,
    vspace_to_poset,
)
from relmetric.vmetric import VMap, product_space


def chain2() -> Poset:
    return Poset.make(["0", "1"], {("0", "1")})


def vee() -> Poset:
    # v1 < v0 and v1 < v2
    return make_fence("-+")


def grid() -> Poset:
    return poset_product([make_fence("+"), make_fence("+")])


def random_poset(rng: random.Random, n: int) -> Poset:
    return Poset.make([str(i) for i in range(n)], random_strict_order(rng, n))


# ------------------------------------------------------------- construction


def test_make_closes_transitively_and_rejects_cycles():
    p = Poset.make(["a", "b", "c"], {("a", "b"), ("b", "c")})
    assert ("a", "c") in p.lt
    assert p.leq("a", "a") and p.leq("a", "c") and not p.leq("c", "a")
    with pytest.raises(InputError, match="cycle"):
        Poset.make(["a", "b"], {("a", "b"), ("b", "a")})
    with pytest.raises(InputError, match="leaves"):
        Poset.make(["a"], {("a", "z")})
    with pytest.raises(InputError, match="at least one"):
        Poset.make([], set())
    # the first element in sorted order that lies on a cycle is named
    with pytest.raises(InputError, match="^order cycle through 'b'$"):
        Poset.make(["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "b")})


def test_covers_drop_composite_pairs():
    p = Poset.make(["0", "a", "b", "1"], {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")})
    assert ("0", "1") in p.lt
    assert p.covers() == (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))


def test_bounds_sup_inf():
    p = grid()
    assert p.bottom == "v0|v0" and p.top == "v1|v1"
    assert p.sup(["v0|v1", "v1|v0"]) == "v1|v1"
    assert p.inf(["v0|v1", "v1|v0"]) == "v0|v0"
    v = vee()
    assert v.sup(["v0", "v2"]) is None
    assert v.inf(["v0", "v2"]) == "v1"
    assert v.top is None and v.bottom == "v1"


def test_all_posets_matches_the_independent_enumeration():
    for n in (2, 3):
        mine = {p.lt for p in all_posets([str(i) for i in range(n)])}
        theirs = set(all_strict_orders(n))
        assert mine == theirs
    assert sum(1 for _ in all_posets(["0", "1", "2", "3"])) == 219


# ------------------------------------------------------------- translation


def test_order_distances_frozen():
    s = poset_to_vspace(chain2())
    assert s.d("0", "1") == "+" and s.d("1", "0") == "-"
    assert s.d("0", "0") == "0"
    anti = poset_to_vspace(Poset.make(["x", "y"], set()))
    assert anti.d("x", "y") == "1" and anti.d("y", "x") == "1"


def test_translation_round_trips_and_matches_the_oracle():
    rng = random.Random(61)
    for _ in range(30):
        p = random_poset(rng, 6)
        s = poset_to_vspace(p)
        assert s.check_axioms() == (True, None)
        oracle = v4_space_from_order(p.elements, p.lt)
        assert s.dist == oracle.dist
        assert vspace_to_poset(s) == p


def test_vspace_to_poset_rejects_bad_input():
    bad = v4_space_from_order(["a", "b"], frozenset())
    broken = dict(bad.dist)
    broken["a", "b"] = "+"
    from relmetric.vmetric import VSpace, v4_monoid

    crooked = VSpace.make(["a", "b"], v4_monoid(), broken)
    with pytest.raises(InputError, match="axioms"):
        vspace_to_poset(crooked)
    from relmetric.vmetric import word_space
    from relmetric import words as W

    ws = word_space(["a"], {("a", "a"): W.ZERO})
    with pytest.raises(InputError, match="four-value"):
        vspace_to_poset(ws)


def test_order_preserving_iff_nonexpansive():
    rng = random.Random(67)
    for _ in range(15):
        p = random_poset(rng, 4)
        s = poset_to_vspace(p)
        for values in product(p.elements, repeat=len(p.elements)):
            f = dict(zip(p.elements, values))
            vm = VMap.make(s, s, f)
            assert p.is_order_preserving(f) == vm.is_nonexpansive()


# -------------------------------------------------------------------- gaps


def test_gap_frozen_examples():
    assert find_gaps(chain2()) == ()
    assert find_gaps(grid()) == ()
    listed = find_gaps(vee())
    assert Gap(("v0", "v2"), ()) in listed
    assert all(g.upper == () for g in listed)  # only joins are missing


def test_every_listed_gap_is_a_gap_and_none_is_missed():
    # oracle: scan every pair of subsets for the definitional property
    for lt in all_strict_orders(3):
        p = Poset.make(["0", "1", "2"], lt)
        listed = find_gaps(p)
        for g in listed:
            assert is_gap(p, g.lower, g.upper)
        subsets = [
            combo
            for size in range(len(p.elements) + 1)
            for combo in combinations(p.elements, size)
        ]
        any_gap = any(is_gap(p, a, b) for a in subsets for b in subsets)
        assert bool(listed) == any_gap


def test_no_gap_iff_complete_lattice():
    for lt in all_strict_orders(4):
        p = Poset.make([str(i) for i in range(4)], lt)
        assert (find_gaps(p) == ()) == p.is_complete_lattice()
    rng = random.Random(71)
    for _ in range(20):
        p = random_poset(rng, 5)
        assert (find_gaps(p) == ()) == p.is_complete_lattice()


def test_complete_lattice_reduction_matches_subset_scan():
    def oracle(p: Poset) -> bool:
        subsets = [
            combo
            for size in range(len(p.elements) + 1)
            for combo in combinations(p.elements, size)
        ]
        return all(
            p.sup(c) is not None and p.inf(c) is not None for c in subsets
        )

    for lt in all_strict_orders(4):
        p = Poset.make([str(i) for i in range(4)], lt)
        assert p.is_complete_lattice() == oracle(p)


def test_order_space_hyperconvex_iff_complete_lattice():
    for lt in all_strict_orders(4):
        p = Poset.make([str(i) for i in range(4)], lt)
        assert poset_to_vspace(p).is_hyperconvex()[0] == p.is_complete_lattice()


def test_gap_enumeration_cap():
    p = Poset.make([str(i) for i in range(9)], set())
    with pytest.raises(CapError, match="cap"):
        find_gaps(p)


def test_minimal_subgap_is_a_smallest_contained_gap():
    rng = random.Random(73)
    seen = 0
    for _ in range(30):
        p = random_poset(rng, 5)
        for g in find_gaps(p):
            sub = minimal_subgap(p, g)
            assert is_gap(p, sub.lower, sub.upper)
            assert set(sub.lower) <= set(g.lower)
            assert set(sub.upper) <= set(g.upper)
            budget = len(sub.lower) + len(sub.upper)
            for la in range(len(g.lower) + 1):
                for lb in range(len(g.upper) + 1):
                    if la + lb >= budget:
                        continue
                    for a in combinations(g.lower, la):
                        for b in combinations(g.upper, lb):
                            assert not is_gap(p, a, b)
            seen += 1
    assert seen > 10
    with pytest.raises(InputError, match="not a gap"):
        minimal_subgap(chain2(), Gap(("0",), ("1",)))


def test_gap_holes_are_holes_of_the_order_space():
    rng = random.Random(79)
    seen = 0
    for _ in range(25):
        p = random_poset(rng, 5)
        s = poset_to_vspace(p)
        for g in find_gaps(p):
            h = gap_hole(p, g)
            assert set(h.as_dict.values()) <= {"+", "-", "1"}
            assert s.is_hole(h)
            seen += 1
    assert seen > 10
    with pytest.raises(InputError, match="not a gap"):
        gap_hole(chain2(), Gap(("0",), ("1",)))


# ----------------------------------------------------------------- solvers


def test_tarski_frozen_examples():
    c = chain2()
    ident = {"0": "0", "1": "1"}
    assert tarski_common_fixed_points(c, [ident]) == ("0", "1")
    assert tarski_common_fixed_points(c, [{"0": "1", "1": "1"}]) == ("1",)


def test_tarski_matches_brute_force_on_the_grid():
    g = grid()
    maps = monotone_selfmaps(g.elements, g.lt)
    rng = random.Random(83)
    rng.shuffle(maps)
    solved = 0
    for f in maps[:12]:
        for h in maps[:12]:
            if f.compose(h).pairs != h.compose(f).pairs:
                continue
            got = tarski_common_fixed_points(g, [f, h])
            brute = tuple(
                sorted(x for x in g.elements if f(x) == x and h(x) == x)
            )
            assert got == brute and got
            solved += 1
    assert solved > 20


def test_tarski_refuses_bad_hypotheses():
    with pytest.raises(HypothesisError, match="complete lattice"):
        tarski_common_fixed_points(vee(), [{x: x for x in vee().elements}])
    c = chain2()
    with pytest.raises(InputError, match="order-preserving"):
        tarski_common_fixed_points(c, [{"0": "1", "1": "0"}])
    g = grid()
    f = {x: "v0|v1" for x in g.elements}
    h = {x: "v1|v0" for x in g.elements}
    assert g.is_order_preserving(f) and g.is_order_preserving(h)
    with pytest.raises(InputError, match="commute"):
        tarski_common_fixed_points(g, [f, h])


# ------------------------------------------------------ fences and products


def test_make_fence_frozen_shapes():
    two = make_fence("+")
    assert two.elements == ("v0", "v1") and two.lt == frozenset({("v0", "v1")})
    v = make_fence("-+")
    assert v.lt == frozenset({("v1", "v0"), ("v1", "v2")})
    single = make_fence("")
    assert single.elements == ("v0",) and single.lt == frozenset()
    chain3 = make_fence("++")
    assert ("v0", "v2") in chain3.lt
    with pytest.raises(InputError):
        make_fence("+x")


def test_fences_alternate_between_lattice_and_not():
    assert make_fence("+").is_complete_lattice()
    assert not make_fence("-+").is_complete_lattice()
    assert not make_fence("+-+-").is_complete_lattice()


def test_product_order_matches_product_space():
    rng = random.Random(97)
    for _ in range(10):
        p = random_poset(rng, 3)
        q = random_poset(rng, 2)
        pq = poset_product([p, q])
        left = poset_to_vspace(pq)
        right = product_space([poset_to_vspace(p), poset_to_vspace(q)])
        assert left.elements == right.elements
        assert left.dist == right.dist


def test_product_cap():
    c = chain2()
    with pytest.raises(CapError, match="cap"):
        poset_product([c] * 9)


def test_fence_retract_demo_happy_path():
    demo = fence_product_retract_demo(
        ["+", "+"],
        ["v0|v0", "v1|v1"],
        {
            "v0|v0": "v0|v0",
            "v0|v1": "v0|v0",
            "v1|v0": "v0|v0",
            "v1|v1": "v1|v1",
        },
        [
            {"v0|v0": "v0|v0", "v1|v1": "v1|v1"},
            {"v0|v0": "v0|v0", "v1|v1": "v0|v0"},
        ],
    )
    assert demo.fixed_points == ("v0|v0",)
    assert demo.certificate.ok
    assert demo.sub.elements == ("v0|v0", "v1|v1")


def test_fence_retract_demo_on_a_single_fence():
    v = make_fence("-+")
    demo = fence_product_retract_demo(
        ["-+"],
        list(v.elements),
        {x: x for x in v.elements},
        [{x: "v1" for x in v.elements}, {x: x for x in v.elements}],
    )
    assert demo.fixed_points == ("v1",)


def test_fence_retract_demo_rejects_bad_retractions():
    base = {
        "v0|v0": "v0|v0",
        "v0|v1": "v0|v0",
        "v1|v0": "v0|v0",
        "v1|v1": "v1|v1",
    }
    with pytest.raises(InputError, match="moves the retract"):
        fence_product_retract_demo(
            ["+", "+"],
            ["v0|v0", "v1|v1"],
            {**base, "v1|v1": "v0|v0"},
            [],
        )
    with pytest.raises(InputError, match="outside the retract"):
        fence_product_retract_demo(
            ["+", "+"],
            ["v0|v0", "v1|v1"],
            {**base, "v0|v1": "v0|v1"},
            [],
        )
    with pytest.raises(InputError, match="retraction claim invalid"):
        fence_product_retract_demo(
            ["+", "+"],
            ["v0|v1", "v1|v0"],
            {
                "v0|v0": "v0|v1",
                "v0|v1": "v0|v1",
                "v1|v0": "v1|v0",
                "v1|v1": "v1|v0",
            },
            [],
        )


def test_retracts_of_fence_products_admit_common_fixed_points():
    # sample retractions of a fence product and solve on each retract
    rng = random.Random(101)
    prod = poset_product([make_fence("+-"), make_fence("+")])
    maps = monotone_selfmaps(prod.elements, prod.lt, limit=None)
    retractions = [
        f
        for f in maps
        if all(f(f(x)) == f(x) for x in prod.elements)
    ]
    rng.shuffle(retractions)
    checked = 0
    for r in retractions[:8]:
        image = sorted({r(x) for x in prod.elements})
        sub = prod.restrict(image)
        inner = monotone_selfmaps(sub.elements, sub.lt, limit=30)
        pair = None
        for f in inner:
            for h in inner:
                if f.compose(h).pairs == h.compose(f).pairs:
                    pair = (f, h)
                    break
            if pair:
                break
        demo = fence_product_retract_demo(
            ["+-", "+"],
            image,
            r.as_dict,
            [dict(p.pairs) for p in pair],
        )
        assert demo.fixed_points
        checked += 1
    assert checked == 8


# ------------------------------------------------- set-based oracles


def set_leq(p: Poset, x: str, y: str) -> bool:
    return x == y or (x, y) in p.lt


def set_upper_bounds(p: Poset, a) -> tuple:
    return tuple(z for z in p.elements if all(set_leq(p, x, z) for x in a))


def set_lower_bounds(p: Poset, a) -> tuple:
    return tuple(z for z in p.elements if all(set_leq(p, z, x) for x in a))


def set_sup(p: Poset, a):
    ub = set_upper_bounds(p, a)
    best = [z for z in ub if all(set_leq(p, z, w) for w in ub)]
    return best[0] if len(best) == 1 else None


def set_inf(p: Poset, a):
    lb = set_lower_bounds(p, a)
    best = [z for z in lb if all(set_leq(p, w, z) for w in lb)]
    return best[0] if len(best) == 1 else None


def set_is_complete_lattice(p: Poset) -> bool:
    if set_inf(p, p.elements) is None or set_sup(p, p.elements) is None:
        return False
    return all(
        set_sup(p, pair) is not None and set_inf(p, pair) is not None
        for pair in combinations(p.elements, 2)
    )


def set_is_gap(p: Poset, a, b) -> bool:
    if not all(set_leq(p, x, y) for x in a for y in b):
        return False
    return not any(
        all(set_leq(p, x, z) for x in a) and all(set_leq(p, z, y) for y in b)
        for z in p.elements
    )


def set_find_gaps(p: Poset) -> tuple:
    return tuple(
        Gap(combo, set_upper_bounds(p, combo))
        for size in range(len(p.elements) + 1)
        for combo in combinations(p.elements, size)
        if set_sup(p, combo) is None
    )


def set_minimal_subgap(p: Poset, gap: Gap) -> Gap:
    """Every sub-pair sorted by (size, lower, upper); the first gap."""
    candidates = sorted(
        (
            (la + lb, Gap(a, b))
            for la in range(len(gap.lower) + 1)
            for lb in range(len(gap.upper) + 1)
            for a in combinations(gap.lower, la)
            for b in combinations(gap.upper, lb)
        ),
        key=lambda pair: (pair[0], pair[1].lower, pair[1].upper),
    )
    return next(sub for _, sub in candidates if set_is_gap(p, sub.lower, sub.upper))


def oracle_corpus() -> list[Poset]:
    """All labeled posets on at most 4 points and a seeded 5-point sample."""
    posets = [q for n in range(1, 5) for q in all_posets("dcba"[:n])]
    rng = random.Random(61)
    posets += [random_poset(rng, 5) for _ in range(30)]
    return posets


def test_poset_masks_match_the_set_scans():
    corpus = oracle_corpus()
    assert len(corpus) == 1 + 3 + 19 + 219 + 30
    for p in corpus:
        subsets = [
            a for k in range(len(p.elements) + 1) for a in combinations(p.elements, k)
        ]
        for a in subsets:
            assert p.upper_bounds(a) == set_upper_bounds(p, a)
            assert p.lower_bounds(a) == set_lower_bounds(p, a)
            assert p.sup(a) == set_sup(p, a)
            assert p.inf(a) == set_inf(p, a)
        assert p.is_complete_lattice() == set_is_complete_lattice(p)
        gaps = find_gaps(p)
        assert gaps == set_find_gaps(p)
        for g in gaps:
            assert minimal_subgap(p, g) == set_minimal_subgap(p, g)
            # the same gap listed in another order
            flipped = Gap(g.lower[::-1], g.upper[::-1])
            assert minimal_subgap(p, flipped) == set_minimal_subgap(p, flipped)


def test_gaps_and_least_subgaps_match_the_set_scans_on_larger_posets():
    # 6- to 8-point posets, each gap listed in a shuffled order of its
    # parts, which changes the name order the least sub-pair is read in
    rng = random.Random(83)
    seen = 0
    for n in (6, 7, 8):
        for _ in range(5):
            p = random_poset(rng, n)
            gaps = find_gaps(p)
            assert gaps == set_find_gaps(p)
            for g in gaps:
                lower, upper = list(g.lower), list(g.upper)
                rng.shuffle(lower)
                rng.shuffle(upper)
                shuffled = Gap(tuple(lower), tuple(upper))
                assert minimal_subgap(p, shuffled) == set_minimal_subgap(p, shuffled)
                seen += 1
    assert seen > 100


def test_is_gap_masks_match_the_set_scan():
    rng = random.Random(67)
    for p in oracle_corpus():
        subsets = [
            a for k in range(len(p.elements) + 1) for a in combinations(p.elements, k)
        ]
        pairs = product(subsets, subsets)
        if len(p.elements) == 5:
            pairs = rng.sample(list(pairs), 200)
        for a, b in pairs:
            assert is_gap(p, a, b) == set_is_gap(p, a, b)
