"""Word algebra tests.

The oracle for every up-set operation is the word universe of length
<= 6: an up-set is identified with its membership function on that
universe, and each operation is checked against the set-level definition
computed by brute force.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relmetric import words as W
from relmetric.errors import InputError
from relmetric.words import TOP, ZERO, UpSet, principal

UNIVERSE = W.words_up_to(6)

word_lists = st.lists(st.text(alphabet="+-", max_size=4), max_size=5)


def members(u: UpSet) -> set[str]:
    return {w for w in UNIVERSE if u.member(w)}


def oracle_upset(accepted: set[str]) -> set[str]:
    """Up-closure of a set of words, restricted to the universe."""
    return {w for w in UNIVERSE if any(W.is_subword(a, w) for a in accepted)}


# ---------------------------------------------------------------- basics


def test_involute_word():
    assert W.involute_word("") == ""
    assert W.involute_word("+") == "-"
    assert W.involute_word("+-") == "+-"
    assert W.involute_word("++-") == "+--"
    for w in W.words_up_to(5):
        assert W.involute_word(W.involute_word(w)) == w


def test_is_subword():
    assert W.is_subword("", "anything ok")
    assert W.is_subword("+-", "++--")
    assert W.is_subword("-+", "-++")
    assert not W.is_subword("-+", "++--")
    assert not W.is_subword("++", "+")


def test_subword_order_respects_involution():
    for u in W.words_up_to(3):
        for v in W.words_up_to(4):
            assert W.is_subword(u, v) == W.is_subword(
                W.involute_word(u), W.involute_word(v)
            )


def test_words_up_to_counts():
    assert len(W.words_up_to(0)) == 1
    assert len(W.words_up_to(6)) == 2**7 - 1


def test_minimal_words_is_canonical_antichain():
    gens = W.minimal_words(["++", "+", "--", "+"])
    assert gens == ("+", "--")
    assert W.minimal_words([]) == ()
    assert W.minimal_words(["", "+"]) == ("",)


def test_canonical_sort_plus_before_minus():
    u = UpSet.from_words(["-", "+"])
    assert u.generators == ("+", "-")


@settings(max_examples=200, derandomize=True)
@given(word_lists)
def test_from_words_matches_up_closure(ws):
    u = UpSet.from_words(ws)
    gens = u.generators
    assert gens == tuple(sorted(gens))
    for a, b in zip(gens, gens[1:]):
        assert not W.is_subword(a, b) and not W.is_subword(b, a)
    assert members(u) == oracle_upset(set(ws))


# ------------------------------------------------------- lattice structure


def test_top_and_zero():
    assert TOP.is_top and not TOP.member("")
    assert ZERO.is_zero and ZERO.member("") and ZERO.member("-+-")
    assert ZERO.leq(TOP)
    assert not TOP.leq(ZERO)


def test_leq_is_reverse_inclusion():
    rng = random.Random(7)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:31], rng.randint(0, 3)))
        for _ in range(40)
    ]
    for u in pool:
        for v in pool:
            assert u.leq(v) == (members(u) >= members(v))


def test_meet_join_frozen_values():
    plus, minus = principal("+"), principal("-")
    assert plus.meet(minus) == UpSet(("+", "-"))
    assert plus.join(minus) == UpSet(("+-", "-+"))
    assert plus.join(ZERO) == plus
    assert plus.meet(ZERO) == ZERO
    assert plus.join(TOP) == TOP
    assert plus.meet(TOP) == plus


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet="+-", max_size=6), max_size=6),
    st.lists(st.text(alphabet="+-", max_size=6), max_size=6),
)
def test_meet_merges_antichains_like_a_full_reduction(ws1, ws2):
    # Reference: re-minimise the union of the two antichains.
    a, b = UpSet.from_words(ws1), UpSet.from_words(ws2)
    assert a.meet(b) == UpSet(W.minimal_words(a.generators + b.generators))


def test_meet_join_against_set_oracle():
    rng = random.Random(11)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:15], rng.randint(0, 3)))
        for _ in range(25)
    ]
    for u in pool:
        for v in pool:
            assert members(u.meet(v)) == members(u) | members(v)
            got = u.join(v)
            assert members(got) == members(u) & members(v)
            assert all(len(g) <= 6 for g in got.generators) or True


def test_mcs_against_brute_force():
    for u in W.words_up_to(3):
        for v in W.words_up_to(3):
            expect = W.minimal_words(
                w for w in UNIVERSE if W.is_subword(u, w) and W.is_subword(v, w)
            )
            assert principal(u).join(principal(v)).generators == expect


def test_lattice_laws():
    rng = random.Random(3)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:15], rng.randint(0, 2)))
        for _ in range(12)
    ]
    for a in pool:
        for b in pool:
            assert a.meet(b) == b.meet(a)
            assert a.join(b) == b.join(a)
            assert a.meet(a.join(b)) == a
            assert a.join(a.meet(b)) == a
            for c in pool[:6]:
                assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c))


# ------------------------------------------------------ monoid and involution


def test_concat_frozen_values():
    assert principal("+").concat(principal("-")) == principal("+-")
    assert principal("+").concat(ZERO) == principal("+")
    assert ZERO.concat(ZERO) == ZERO
    assert principal("+").concat(TOP) == TOP
    assert TOP.concat(ZERO) == TOP


def test_concat_against_split_oracle():
    rng = random.Random(19)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:15], rng.randint(0, 2)))
        for _ in range(15)
    ]
    for p in pool:
        for q in pool:
            got = p.concat(q)
            for w in W.words_up_to(5):
                expect = any(
                    p.member(w[:i]) and q.member(w[i:]) for i in range(len(w) + 1)
                )
                assert got.member(w) == expect


@settings(max_examples=150, derandomize=True)
@given(word_lists, word_lists)
def test_involution_is_an_anti_automorphism(ws1, ws2):
    p, q = UpSet.from_words(ws1), UpSet.from_words(ws2)
    assert p.involute().involute() == p
    assert p.concat(q).involute() == q.involute().concat(p.involute())
    assert p.leq(q) == p.involute().leq(q.involute())
    assert p.meet(q).involute() == p.involute().meet(q.involute())
    assert p.join(q).involute() == p.involute().join(q.involute())


def test_concat_distributes_over_meet():
    rng = random.Random(23)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:15], rng.randint(0, 3)))
        for _ in range(10)
    ]
    for a in pool:
        for b in pool:
            for c in pool[:5]:
                assert a.concat(b.meet(c)) == a.concat(b).meet(a.concat(c))
                assert b.meet(c).concat(a) == b.concat(a).meet(c.concat(a))


def test_concat_monotone_and_associative():
    rng = random.Random(29)
    pool = [
        UpSet.from_words(rng.sample(UNIVERSE[:15], rng.randint(0, 2)))
        for _ in range(10)
    ]
    for a in pool:
        for b in pool:
            for c in pool[:5]:
                assert a.concat(b).concat(c) == a.concat(b.concat(c))
                if a.leq(b):
                    assert a.concat(c).leq(b.concat(c))
                    assert c.concat(a).leq(c.concat(b))


# ------------------------------------------------------------- residuals


def residual_oracle_left(q: UpSet, p: UpSet, w: str) -> bool:
    """w belongs to the left residual iff concat(p, ^w) sits inside q."""
    return q.leq(p.concat(principal(w)))


def residual_oracle_right(q: UpSet, p: UpSet, w: str) -> bool:
    return q.leq(principal(w).concat(p))


def test_left_residual_frozen_value():
    assert W.left_residual(principal("++"), principal("+")) == principal("+")
    assert W.left_residual(ZERO, principal("+")) == ZERO
    assert W.left_residual(TOP, principal("+")) == TOP
    assert W.left_residual(principal("+"), TOP) == ZERO
    assert W.left_residual(principal("+"), ZERO) == principal("+")


def test_residuals_against_oracle():
    rng = random.Random(31)
    pool = [
        UpSet.from_words(rng.sample(W.words_up_to(3), rng.randint(1, 3)))
        for _ in range(20)
    ] + [TOP, ZERO]
    for q in pool:
        for p in pool:
            left = W.left_residual(q, p)
            right = W.right_residual(q, p)
            for w in W.words_up_to(4):
                assert left.member(w) == residual_oracle_left(q, p, w)
                assert right.member(w) == residual_oracle_right(q, p, w)
            # defining property of the least solution
            assert q.leq(p.concat(left))
            assert q.leq(right.concat(p))


# ------------------------------------------------------------- distance


def distance_oracle_member(p: UpSet, q: UpSet, w: str) -> bool:
    """w belongs to distance(p, q) iff the principal up-set of w solves
    both defining conditions; the solution set is up-closed, so this
    pins the least solution pointwise."""
    r = principal(w)
    return p.leq(q.concat(r.involute())) and q.leq(p.concat(r))


def test_distance_frozen_value():
    assert W.distance(principal("+"), principal("++")) == principal("+")
    assert W.distance(ZERO, principal("+")) == principal("+")
    assert W.distance(principal("+"), ZERO) == principal("-")
    assert W.distance(TOP, TOP) == ZERO


def test_distance_against_oracle():
    rng = random.Random(37)
    pool = [
        UpSet.from_words(rng.sample(W.words_up_to(3), rng.randint(1, 2)))
        for _ in range(16)
    ] + [ZERO]
    for p in pool:
        for q in pool:
            d = W.distance(p, q)
            for w in W.words_up_to(4):
                assert d.member(w) == distance_oracle_member(p, q, w)
            # the computed value itself solves both conditions
            assert p.leq(q.concat(d.involute()))
            assert q.leq(p.concat(d))


long_word_lists = st.lists(
    st.text(alphabet="+-", min_size=1, max_size=8), min_size=1, max_size=3
)


def assert_matches_membership(r: UpSet, member) -> None:
    """r is the up-set of the words that ``member`` accepts: each
    generator is accepted and none of its one-letter deletions is, and r
    agrees with ``member`` on the whole universe."""
    for g in r.generators:
        assert member(g), g
        assert not any(member(g[:i] + g[i + 1 :]) for i in range(len(g))), g
    for w in UNIVERSE:
        assert r.member(w) == member(w), w


@settings(max_examples=120, derandomize=True, deadline=None)
@given(long_word_lists, long_word_lists)
@example(["+-+-+-+-", "--++--++"], ["+-+-+-+", "-+-+-+-", "++--++-"])
@example(["++++++++", "--------"], ["+-+-+-+-", "-+-+-+-+", "++--++--"])
def test_residuals_and_distance_by_quotients_against_membership(qs, ps):
    """The residuals and the distance computed from quotients agree with
    the membership oracles, also where |p| * maxlen(q) exceeds 18, the
    bound past which an enumeration of every word was refused."""
    q, p = UpSet.from_words(qs), UpSet.from_words(ps)
    assert_matches_membership(
        W.left_residual(q, p), lambda w: residual_oracle_left(q, p, w)
    )
    assert_matches_membership(
        W.right_residual(q, p), lambda w: residual_oracle_right(q, p, w)
    )
    assert_matches_membership(
        W.distance(p, q), lambda w: distance_oracle_member(p, q, w)
    )


def test_distance_past_the_old_enumeration_bound():
    p = UpSet.from_words(["+-+-+-+", "-+-+-+-", "++--++-"])
    q = UpSet.from_words(["+-+-+-+-", "--++--++"])
    assert len(p.generators) * q.max_generator_len() == 24
    assert W.distance(p, q) == UpSet.from_words(["+-+-", "-++"])


def test_distance_axioms():
    rng = random.Random(41)
    pool = [
        UpSet.from_words(rng.sample(W.words_up_to(3), rng.randint(1, 2)))
        for _ in range(14)
    ] + [ZERO, TOP]
    for p in pool:
        for q in pool:
            d = W.distance(p, q)
            assert (d == ZERO) == (p == q)
            assert W.distance(q, p) == d.involute()
            for r in pool[:7]:
                lhs = W.distance(p, r)
                rhs = W.distance(p, q).concat(W.distance(q, r))
                assert lhs.leq(rhs)


def test_distance_translation_is_cancellative():
    # distance(v, concat(v, w)) == w for w below TOP
    for v_word in W.words_up_to(3):
        for w_word in W.words_up_to(3):
            v, w = principal(v_word), principal(w_word)
            assert W.distance(v, v.concat(w)) == w


# ------------------------------------------------------------- cones


def test_lower_cone_frozen_value():
    assert W.lower_cone(["+-", "-+"]) == ("", "+", "-")
    assert W.lower_cone(["++"]) == ("", "+", "++")
    with pytest.raises(InputError):
        W.lower_cone([])


def test_upper_cone_frozen_values():
    assert W.upper_cone([]) == ZERO
    assert W.upper_cone(["+"]) == principal("+")
    assert W.upper_cone(["+", "-"]) == UpSet(("+-", "-+"))


def test_cones_form_a_galois_connection():
    rng = random.Random(43)
    for _ in range(40):
        xs = rng.sample(W.words_up_to(3), rng.randint(1, 3))
        cone = W.upper_cone(xs)
        # every x bounds the cone from below, and the cone re-generates
        for x in xs:
            assert all(W.is_subword(x, g) for g in cone.generators)
        assert W.in_macneille(cone)
        assert W.upper_cone(W.lower_cone(cone.generators)) == cone


def test_in_macneille_frozen_values():
    assert W.in_macneille(TOP)
    assert W.in_macneille(ZERO)
    for w in W.words_up_to(4):
        assert W.in_macneille(principal(w))
    assert not W.in_macneille(UpSet(("+", "-")))
    assert W.in_macneille(UpSet(("+-", "-+")))


# -------------------------------------------------------- accessibility


def assert_principal_witness(v: UpSet, w: str) -> None:
    assert not v.member(w)
    assert v.member(w + W.involute_word(w))
    r = principal(w)
    assert not v.leq(r)
    assert v.leq(r.concat(r.involute()))


def test_accessibility_witness_inaccessible_ends():
    assert W.principal_accessibility_witness(ZERO) is None
    assert W.principal_accessibility_witness(TOP) is None


def test_accessibility_witness_principal():
    v = principal("+")
    w = W.principal_accessibility_witness(v)
    assert w == "-"
    assert_principal_witness(v, w)


def test_accessibility_witness_join_case():
    v = W.upper_cone(["+", "-"])
    w = W.principal_accessibility_witness(v)
    assert w is not None
    assert_principal_witness(v, w)


def test_accessibility_witness_random_cones():
    rng = random.Random(47)
    seen = set()
    for _ in range(80):
        xs = rng.sample(W.words_up_to(4)[1:], rng.randint(1, 3))
        v = W.upper_cone(xs)
        if v in seen or v.is_zero or v.is_top:
            continue
        seen.add(v)
        assert_principal_witness(v, W.principal_accessibility_witness(v))


# ------------------------------------------------------------ enumeration


def test_iter_upsets_small():
    got = list(W.iter_upsets(1, 2))
    assert TOP in got and ZERO in got
    assert len(got) == len(set(got))
    # antichains over {e, +, -}: (), (e), (+), (-), (+,-)
    assert len(got) == 5


def test_iter_upsets_all_canonical():
    for u in W.iter_upsets(2, 2):
        assert UpSet.from_words(u.generators) == u


def test_word_caches_are_bounded():
    caches = [f for f in vars(W).values() if hasattr(f, "cache_info")]
    assert len(caches) == 6
    for f in caches:
        assert f.cache_info().maxsize == 1 << 16, f.__name__
