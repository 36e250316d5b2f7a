"""Relational-system tests: ball geometry identities, normal structure,
fixed points, one-local retracts."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_reflexive_involutive_system
from relmetric.errors import CapError, HypothesisError, InputError, StructureError
from relmetric.relsys import BALLSET_CAP, RelSys, SelfMap


def two_chain() -> RelSys:
    le = [("0", "0"), ("0", "1"), ("1", "1")]
    ge = [(y, x) for x, y in le]
    return RelSys.make(["0", "1"], {"le": le, "ge": ge})


def crown() -> RelSys:
    # two incomparable tops over two incomparable bottoms, order relation
    le = {(x, x) for x in "abcd"} | {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    ge = {(y, x) for x, y in le}
    return RelSys.make(list("abcd"), {"le": le, "ge": ge})


def diamond() -> RelSys:
    # the complete lattice 0 < a,b < 1 as an order system
    le = {(x, x) for x in "0ab1"}
    le |= {("0", "a"), ("0", "b"), ("0", "1"), ("a", "1"), ("b", "1")}
    ge = {(y, x) for x, y in le}
    return RelSys.make(list("0ab1"), {"le": le, "ge": ge})


def random_systems(seed: int, count: int, n_range=(2, 6)):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        yield random_reflexive_involutive_system(rng, n, nrel=rng.randint(1, 2))


# ------------------------------------------------------------ basic geometry


def test_ball_and_center_two_chain():
    s = two_chain()
    assert s.ball("0", "le") == {"0", "1"}
    assert s.ball("1", "le") == {"1"}
    assert s.ball("1", "ge") == {"0", "1"}
    assert s.center({"0", "1"}, "le") == {"0"}
    assert s.center({"0", "1"}, "ge") == {"1"}
    assert s.cov({"0", "1"}) == {"0", "1"}
    assert s.cov({"0"}) == {"0"}


def test_unknown_names_rejected():
    s = two_chain()
    with pytest.raises(InputError):
        s.ball("2", "le")
    with pytest.raises(InputError):
        s.ball("0", "nope")


def test_empty_set_conventions():
    s = two_chain()
    assert s.diameter_set(frozenset()) == {"le", "ge"}
    assert s.radius_set(frozenset()) == frozenset()
    assert not s.is_equally_centered(frozenset())


def test_singletons_equally_centered():
    for s in random_systems(5, 10):
        for x in s.elements:
            assert s.is_equally_centered({x})


def test_structure_flags():
    s = two_chain()
    assert s.is_reflexive and s.is_involutive
    assert s.inverse_name == {"le": "ge", "ge": "le"}
    t = RelSys.make(["0", "1"], {"le": [("0", "0"), ("0", "1"), ("1", "1")]})
    assert not t.is_involutive
    with pytest.raises(StructureError):
        t.inverse_name


def test_center_properties_random():
    # containment in centers vs diameter membership, the ball formula,
    # stability under covers, and monotonicity of radius sets
    for s in random_systems(11, 25, (2, 5)):
        rng = random.Random(int(s.elements[-1]))
        subsets = [
            frozenset(x for x in s.elements if rng.random() < 0.5) for _ in range(6)
        ]
        for a in subsets:
            cov = s.cov(a)
            assert a <= cov and s.cov(cov) == cov
            for rname in s.relation_names:
                c = s.center(a, rname)
                assert (a <= c) == (rname in s.diameter_set(a))
                # center as intersection of inverse balls
                inter = frozenset(s.elements)
                for el in a:
                    inter &= s.ball(el, s.inverse_name[rname])
                assert c == inter
                # centers only see the cover of A
                assert c == s.center(cov, rname)
            assert s.radius_set(a) <= s.radius_set(cov)
            if a:
                assert s.diameter_set(a) <= s.radius_set(a)
                assert s.diameter_set(a) == s.diameter_set(cov)
            for r in s.diameter_set(a):
                assert s.inverse_name[r] in s.diameter_set(a)


def test_ball_intersections_two_chain():
    s = two_chain()
    supports = {m.support for m in s.ball_intersections()}
    assert supports == {frozenset({"0", "1"}), frozenset({"0"}), frozenset({"1"})}
    for m in s.ball_intersections():
        inter = frozenset(s.elements)
        for x, rname in m.witness:
            inter &= s.ball(x, rname)
        assert inter == m.support


def ring(n: int) -> RelSys:
    """R holds every pair except (i, i+1 mod n), with its inverse; each
    ball misses one point, so every nonempty subset is an intersection."""
    els = [f"{i:02d}" for i in range(n)]
    r = [
        (x, y)
        for i, x in enumerate(els)
        for j, y in enumerate(els)
        if j != (i + 1) % n
    ]
    return RelSys.make(els, {"R": r, "S": [(y, x) for x, y in r]})


def test_ball_intersection_bound_counts_intersections():
    assert BALLSET_CAP == 4096
    assert len(ring(12).ball_intersections()) == 2**12 - 1
    s = ring(13)
    with pytest.raises(CapError, match="more than 4096 ball intersections"):
        s.ball_intersections()
    with pytest.raises(CapError, match="4096"):
        s.has_normal_structure()


def test_ball_intersections_are_kept_per_system():
    s = diamond()
    assert s.ball_intersections() is s.ball_intersections()
    for m in s.ball_intersections():
        assert m.support == {s.elements[i] for i in range(4) if m.mask >> i & 1}


def test_normal_structure_examples():
    ok, witness = two_chain().has_normal_structure()
    assert ok and witness is None
    # with only the full relation, E itself is equally centered
    full = [(x, y) for x in "ab" for y in "ab"]
    s = RelSys.make(["a", "b"], {"all": full})
    ok, witness = s.has_normal_structure()
    assert not ok and witness == {"a", "b"}


# ------------------------------------------------------------- fixed points


def test_fixed_point_two_chain():
    s = two_chain()
    const1 = SelfMap((("0", "1"), ("1", "1")))
    assert s.common_fixed_points([const1])[0] == {"1"}
    ident = SelfMap((("0", "0"), ("1", "1")))
    assert s.common_fixed_points([ident])[0] == {"0", "1"}


def test_fixed_point_refuses_without_normal_structure():
    full = [(x, y) for x in "ab" for y in "ab"]
    s = RelSys.make(["a", "b"], {"all": full})
    swap = SelfMap((("a", "b"), ("b", "a")))
    assert s.is_endomorphism(swap)
    with pytest.raises(HypothesisError):
        s.common_fixed_points([swap])


def test_fixed_point_exhaustive_small_normal_systems():
    seen = 0
    for s in random_systems(23, 40, (2, 4)):
        if not s.has_normal_structure()[0]:
            continue
        for f in s.endomorphisms():
            fix, olr = s.common_fixed_points([f])
            assert fix and olr.ok
            seen += 1
    assert seen > 50


# ------------------------------------------------------------- fixed families


def test_common_fixed_points_matches_brute_force():
    s = diamond()
    maps = list(s.endomorphisms())
    checked = 0
    for f, g in combinations(maps, 2):
        if not f.commutes_with(g):
            continue
        fix, olr = s.common_fixed_points([f, g])
        assert fix == f.fixed_points() & g.fixed_points()
        assert olr.ok
        checked += 1
        if checked > 100:
            break
    assert checked > 10


def test_common_fixed_points_refuses_without_normal_structure():
    s = crown()
    normal, witness = s.has_normal_structure()
    assert not normal and witness == frozenset({"a", "b"})
    ident = SelfMap(tuple((x, x) for x in s.elements))
    with pytest.raises(HypothesisError, match="normal"):
        s.common_fixed_points([ident])


def test_common_fixed_points_rejects_non_commuting():
    s = two_chain()
    const0 = SelfMap((("0", "0"), ("1", "0")))
    const1 = SelfMap((("0", "1"), ("1", "1")))
    with pytest.raises(InputError, match="commute"):
        s.common_fixed_points([const0, const1])


def test_common_fixed_points_empty_family():
    s = two_chain()
    fix, olr = s.common_fixed_points([])
    assert fix == {"0", "1"} and olr.ok


def test_fixed_set_checks_the_maps_but_not_the_hypotheses():
    s = crown()  # no normal structure
    ident = SelfMap(tuple((x, x) for x in s.elements))
    fix, olr = s.fixed_set([ident])
    assert fix == set(s.elements) and olr.ok
    flip = SelfMap((("a", "c"), ("b", "d"), ("c", "a"), ("d", "b")))
    with pytest.raises(InputError, match="map 1 is not an endomorphism"):
        s.fixed_set([ident, flip])


# -------------------------------------------------------- one-local retracts


def test_olr_agrees_with_definitional_search():
    rng = random.Random(31)
    for s in random_systems(31, 30, (2, 5)):
        for _ in range(6):
            a = frozenset(x for x in s.elements if rng.random() < 0.6)
            if not a:
                continue
            res = s.is_one_local_retract(a)
            expect = all(s.retraction_exists(a, x) for x in set(s.elements) - a)
            assert res.ok == expect
            if res.ok:
                table = res.table_dict
                assert set(table) == set(s.elements) - a
                assert all(v in a for v in table.values())


def test_olr_table_entries_are_homomorphic():
    for s in random_systems(37, 20, (3, 5)):
        a = frozenset(list(s.elements)[:2])
        res = s.is_one_local_retract(a)
        if not res.ok:
            continue
        for x, target in res.table:
            scope = a | {x}
            for _, pairs in s.relations:
                for u, v in pairs:
                    if u in scope and v in scope:
                        uu = target if u == x else u
                        vv = target if v == x else v
                        assert (uu, vv) in pairs


def test_whole_set_and_fix_sets_are_olr():
    s = diamond()
    assert s.is_one_local_retract(frozenset(s.elements)).ok
    for f in s.endomorphisms():
        fix = f.fixed_points()
        if fix:
            assert s.is_one_local_retract(fix).ok


def test_restriction_to_olr_stays_normal():
    # transfer of normal structure to one-local retracts
    for s in random_systems(41, 30, (2, 5)):
        if not s.has_normal_structure()[0]:
            continue
        rng = random.Random(7)
        for _ in range(4):
            a = frozenset(x for x in s.elements if rng.random() < 0.6)
            if not a or not s.is_one_local_retract(a).ok:
                continue
            assert s.restrict(a).has_normal_structure()[0]


# ------------------------------------------------- set-based oracles


def set_ball(s: RelSys, x: str, rname: str) -> frozenset:
    return frozenset(y for a, y in s.rel(rname) if a == x)


def set_ball_intersections(s: RelSys) -> list[tuple[frozenset, tuple]]:
    """The breadth-first scan of ball intersections on frozensets."""
    full = frozenset(s.elements)
    found = {full: ()}
    frontier = [full]
    balls = [
        (set_ball(s, x, rname), (x, rname))
        for x in s.elements
        for rname in s.relation_names
    ]
    while frontier:
        nxt = []
        for support in frontier:
            for b, tag in balls:
                inter = support & b
                if inter and inter not in found:
                    found[inter] = found[support] + (tag,)
                    nxt.append(inter)
        frontier = nxt
    order = sorted(found, key=lambda a: (len(a), tuple(sorted(a))))
    return [(a, found[a]) for a in order]


def set_is_equally_centered(s: RelSys, a: frozenset) -> bool:
    """Radius set equals diameter set."""
    radius = {
        r for r in s.relation_names if any(a <= set_ball(s, x, r) for x in a)
    }
    diameter = {
        r for r, pairs in s.relations if all((x, y) in pairs for x in a for y in a)
    }
    return radius == diameter


def set_normal_structure(s: RelSys):
    for a, _ in set_ball_intersections(s):
        if len(a) != 1 and set_is_equally_centered(s, a):
            return False, a
    return True, None


def set_one_local_retract(s: RelSys, a: frozenset):
    """(ok, table, violator) with the least anchor by name."""
    table = []
    for x in sorted(set(s.elements) - a):
        hit = frozenset(s.elements)
        for u in sorted(a):
            for rname in s.relation_names:
                b = set_ball(s, u, rname)
                if x in b:
                    hit &= b
        meet = hit & a
        if not meet:
            return False, None, x
        table.append((x, min(meet)))
    return True, tuple(table), None


@st.composite
def involutive_systems(draw, max_points: int = 7) -> RelSys:
    """Reflexive systems of at most 7 points with each relation's inverse
    added under its own name, symmetric relations included."""
    n = draw(st.integers(1, max_points))
    els = draw(st.permutations(["b", "a10", "a9", "c", "x", "a", "d"][:n]))
    cells = st.tuples(st.sampled_from(els), st.sampled_from(els))
    rels = {}
    for k in range(draw(st.integers(1, 2))):
        size = draw(st.integers(0, n * n))
        pairs = {(x, x) for x in els} | draw(st.sets(cells, max_size=size))
        rels[f"r{k}"] = pairs
        rels[f"r{k}-inverse"] = {(y, x) for x, y in pairs}
    return RelSys.make(els, rels)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(involutive_systems())
def test_ball_masks_match_the_set_scan(s):
    for x in s.elements:
        for rname in s.relation_names:
            assert s.ball(x, rname) == set_ball(s, x, rname)
    got = [(m.support, m.witness) for m in s.ball_intersections()]
    assert got == set_ball_intersections(s)
    for a in [frozenset()] + [support for support, _ in got]:
        assert s.is_equally_centered(a) == set_is_equally_centered(s, a)
    assert s.has_normal_structure() == set_normal_structure(s)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(involutive_systems(), st.data())
def test_one_local_retract_masks_match_the_set_scan(s, data):
    subsets = [frozenset(), frozenset(s.elements)]
    subsets.append(frozenset(data.draw(st.sets(st.sampled_from(s.elements)))))
    for a in subsets:
        res = s.is_one_local_retract(a)
        assert (res.ok, res.table, res.violator) == set_one_local_retract(s, a)
