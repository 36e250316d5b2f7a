"""Value-monoid metric space tests.

Oracles: the four-value distance table is recomputed here from the
least-solution definition; hyperconvexity is cross-checked against a
brute-force scan over every sub-family of balls; order-theoretic facts
(monotone = non-expansive, complete lattice = hyperconvex) are checked
against direct order computations on independently generated posets.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, permutations, product
from typing import Iterable

import pytest

from conftest import (
    all_strict_orders,
    closure_system_lattice,
    metric_one_local_retract,
    monotone_selfmaps,
    random_strict_order,
    v4_space_from_order,
)
from test_acceptance import thin_word_space
from relmetric import words as W
from relmetric.errors import CapError, HypothesisError, InputError, StructureError
from relmetric.relsys import SelfMap
from relmetric.words import UpSet
from relmetric.vmetric import (
    CARRIER_CAP,
    RadiusMap,
    TableMonoid,
    VMap,
    VSpace,
    WordValueMonoid,
    _check_carrier_size,
    _closed_carrier,
    _upset_key,
    canonical_embedding,
    hole_image,
    monoid_space,
    parse_word_value,
    product_space,
    _maximal_cliques,
    v4_monoid,
    word_space,
)
from relmetric.zigzag import (
    Digraph,
    all_zigzag_distances,
    distance_space,
    zigzag_from_word,
    zigzag_space,
)

V4 = v4_monoid()


# ------------------------------------------------------------------ fixtures


def two_chain() -> VSpace:
    return v4_space_from_order(["0", "1"], frozenset({("0", "1")}))


def fence_vee() -> VSpace:
    # 0 < a and 0 < b with a, b incomparable
    return v4_space_from_order(["0", "a", "b"], frozenset({("0", "a"), ("0", "b")}))


def diamond_space() -> VSpace:
    lt = frozenset({("0", "a"), ("0", "b"), ("0", "1"), ("a", "1"), ("b", "1")})
    return v4_space_from_order(["0", "a", "b", "1"], lt)


def m3_monoid() -> TableMonoid:
    # the diamond lattice 0 < a,b,c < 1 with join as oplus and the
    # identity involution; a valid value monoid that is not residuated
    carrier = ["0", "a", "b", "c", "1"]

    def vee(x: str, y: str) -> str:
        if x == y:
            return x
        if x == "0":
            return y
        if y == "0":
            return x
        return "1"

    return TableMonoid.make(
        carrier,
        [("0", m) for m in "abc1"] + [(m, "1") for m in "abc"],
        {(x, y): vee(x, y) for x in carrier for y in carrier},
        {x: x for x in carrier},
    )


def pm_word_space() -> VSpace:
    # two points whose distance is the self-dual value of the word "+-"
    pm = W.principal("+-")
    return word_space(
        ["x", "y"],
        {("x", "x"): W.ZERO, ("y", "y"): W.ZERO, ("x", "y"): pm, ("y", "x"): pm},
    )


# --------------------------------------------------------------- the monoids


def test_v4_structure():
    assert V4.carrier == ("0", "+", "-", "1")
    assert V4.zero == "0" and V4.top == "1"
    assert V4.involute("+") == "-" and V4.involute("1") == "1"
    assert V4.oplus("+", "-") == "1" and V4.oplus("0", "-") == "-"
    assert V4.meet("+", "-") == "0" and V4.join("+", "-") == "1"
    assert not V4.leq("+", "-") and V4.leq("0", "+")


def test_v4_distance_table_matches_least_solution_oracle():
    def oracle(p, q):
        sols = [
            r
            for r in V4.carrier
            if V4.leq(q, V4.oplus(p, r)) and V4.leq(p, V4.oplus(q, V4.involute(r)))
        ]
        least = [r for r in sols if all(V4.leq(r, s) for s in sols)]
        assert len(least) == 1
        return least[0]

    expected = {
        ("0", "0"): "0", ("0", "+"): "+", ("0", "-"): "-", ("0", "1"): "1",
        ("+", "0"): "-", ("+", "+"): "0", ("+", "-"): "-", ("+", "1"): "-",
        ("-", "0"): "+", ("-", "+"): "+", ("-", "-"): "0", ("-", "1"): "+",
        ("1", "0"): "1", ("1", "+"): "+", ("1", "-"): "-", ("1", "1"): "0",
    }
    for p in V4.carrier:
        for q in V4.carrier:
            assert V4.dist(p, q) == expected[p, q] == oracle(p, q)


def test_table_primitives_reject_values_outside_the_carrier():
    calls = [
        lambda v: V4.leq("+", v),
        lambda v: V4.leq(v, "+"),
        lambda v: V4.oplus("+", v),
        lambda v: V4.oplus(v, "+"),
        V4.involute,
    ]
    for v in ("2", None, ["+"]):
        for call in calls:
            with pytest.raises(InputError, match="is not in the carrier"):
                call(v)
    # a pair outside the order is still answered, not rejected
    assert not V4.leq("1", "0")


def test_v4_accessibility():
    assert V4.inaccessible_values() == ("0",)
    assert V4.accessibility_value_witness("1") == "+"
    assert V4.accessibility_value_witness("+") == "-"


def test_table_monoid_rejects_bad_structure():
    with pytest.raises(InputError, match="no meet"):
        TableMonoid.make(
            ["a", "b"],
            [],
            {(x, y): "a" for x in "ab" for y in "ab"},
            {"a": "a", "b": "b"},
        )
    with pytest.raises(InputError, match="cycle"):
        TableMonoid.make(
            ["a", "b"],
            [("a", "b"), ("b", "a")],
            {(x, y): "a" for x in "ab" for y in "ab"},
            {"a": "a", "b": "b"},
        )
    # the first pair in carrier order that lies on a cycle is named, in order
    with pytest.raises(InputError, match="^order cycle through 'b' and 'c'$"):
        TableMonoid.make(
            ["a", "b", "c"],
            [("a", "b"), ("c", "b"), ("b", "c")],
            {(x, y): "a" for x in "abc" for y in "abc"},
            {x: x for x in "abc"},
        )
    # truncated addition with 1 (+) 1 flattened to 1 stays monotone and
    # commutative but loses associativity: (1+1)+2 = 3 while 1+(1+2) = 4
    chain = ["0", "1", "2", "3", "4"]
    plus = {
        (x, y): str(min(4, int(x) + int(y))) for x in chain for y in chain
    }
    plus["1", "1"] = "1"
    with pytest.raises(InputError, match="associative"):
        TableMonoid.make(
            chain,
            [(str(i), str(i + 1)) for i in range(4)],
            plus,
            {x: x for x in chain},
        )
    with pytest.raises(InputError, match="period two"):
        TableMonoid.make(
            ["0", "1"],
            [("0", "1")],
            {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
            {"0": "0", "1": "0"},
        )


def bound_list_scan(carrier, leq, lower: bool) -> dict:
    """Meets (``lower``) or joins of every pair by listing all common
    bounds and keeping the one above (below) every other: the oracle
    for the mask extremes of ``TableMonoid``, with its error texts."""
    out = {}
    for a in carrier:
        for b in carrier:
            if lower:
                bounds = [z for z in carrier if leq(z, a) and leq(z, b)]
                best = [z for z in bounds if all(leq(w, z) for w in bounds)]
            else:
                bounds = [z for z in carrier if leq(a, z) and leq(b, z)]
                best = [z for z in bounds if all(leq(z, w) for w in bounds)]
            if len(best) != 1:
                kind = "meet" if lower else "join"
                raise InputError(f"not a lattice: ({a!r}, {b!r}) has no {kind}")
            out[a, b] = best[0]
    return out


def assert_lattice_matches_the_scan(m: TableMonoid) -> None:
    meets = bound_list_scan(m.carrier, m.leq, lower=True)
    joins = bound_list_scan(m.carrier, m.leq, lower=False)
    for a in m.carrier:
        for b in m.carrier:
            assert m.meet(a, b) == meets[a, b], (a, b)
            assert m.join(a, b) == joins[a, b], (a, b)
    values = m.carrier
    assert m.zero == next(x for x in values if all(m.leq(x, y) for y in values))
    assert m.top == next(x for x in values if all(m.leq(y, x) for y in values))


def test_table_lattice_matches_the_bound_list_scan():
    rng = random.Random(61)
    monoids = [V4, m3_monoid()]
    for _ in range(16):
        els, lt = closure_system_lattice(rng, rng.choice((3, 4)), rng.randint(1, 6))
        rng.shuffle(els)  # the carrier order need not follow the order

        def leq(x, y, lt=lt):
            return x == y or (x, y) in lt

        joins = bound_list_scan(els, leq, lower=False)
        monoids.append(TableMonoid.make(els, lt, joins, {x: x for x in els}))
    assert max(len(m.carrier) for m in monoids) >= 8
    for m in monoids:
        assert_lattice_matches_the_scan(m)


def test_table_monoid_names_the_first_pair_without_a_meet_or_join():
    rng = random.Random(67)
    refused = 0
    for n in (3, 4, 5, 6) * 8:
        lt = random_strict_order(rng, n)
        els = [str(i) for i in range(n)]
        rng.shuffle(els)

        def leq(x, y, lt=lt):
            return x == y or (x, y) in lt

        try:
            bound_list_scan(els, leq, lower=True)
            joins = bound_list_scan(els, leq, lower=False)
        except InputError as exc:
            refused += 1
            constant = {(x, y): els[0] for x in els for y in els}
            with pytest.raises(InputError) as got:
                TableMonoid.make(els, lt, constant, {x: x for x in els})
            assert str(got.value) == str(exc)
        else:
            assert_lattice_matches_the_scan(
                TableMonoid.make(els, lt, joins, {x: x for x in els})
            )
    assert refused >= 10


def test_non_residuated_monoid_raises_only_where_no_least_solution():
    m3 = m3_monoid()
    assert m3.dist("a", "b") == "c"
    assert m3.dist("a", "a") == "0"
    assert m3.dist("0", "c") == "c"
    with pytest.raises(StructureError, match="not residuated"):
        m3.dist("1", "a")


def carrier_scan_distance(m: TableMonoid, p, q):
    """The least r with ``q <= p (+) r`` and ``p <= q (+) involute(r)``,
    searched over the carrier at every call; None when there is none."""
    sols = [
        r
        for r in m.carrier
        if m.leq(q, m.oplus(p, r)) and m.leq(p, m.oplus(q, m.involute(r)))
    ]
    least = [r for r in sols if all(m.leq(r, s) for s in sols)]
    return least[0] if least else None


def test_distance_table_matches_the_carrier_scan():
    unresolved = []
    for m in (V4, m3_monoid()):
        for p in m.carrier:
            for q in m.carrier:
                expected = carrier_scan_distance(m, p, q)
                if expected is None:
                    unresolved.append((p, q))
                    with pytest.raises(StructureError, match="not residuated"):
                        m.dist(p, q)
                else:
                    assert m.dist(p, q) == expected, (p, q)
        for v in ("2", None, ["+"]):
            for call in (lambda: m.dist(v, m.zero), lambda: m.dist(m.zero, v)):
                with pytest.raises(InputError, match="is not in the carrier"):
                    call()
    assert ("1", "a") in unresolved and len(unresolved) > 1


def test_word_monoid_carrier_is_closed():
    m = WordValueMonoid.from_values(
        {W.principal("+"), W.principal("-+")}, oplus_length_bound=2
    )
    carrier = set(m.carrier)
    assert W.ZERO in carrier and W.TOP in carrier
    for u in m.carrier:
        assert u.involute() in carrier
        for v in m.carrier:
            assert u.meet(v) in carrier
            assert u.join(v) in carrier
            w = u.concat(v)
            if w.max_generator_len() <= m.oplus_length_bound:
                assert w in carrier


def test_word_monoid_caps_carrier_growth():
    seeds = {W.principal(w) for w in W.words_up_to(4) if len(w) == 4}
    with pytest.raises(CapError, match="value carrier"):
        WordValueMonoid.from_values(seeds, carrier_cap=40)


def naive_carrier(seeds, bound: int) -> set:
    """Reference closure: add meets, joins, involutes and bounded
    products of all pairs until nothing changes; meets re-minimise the
    union of the two antichains."""
    closed = set(seeds) | {W.ZERO, W.TOP}
    while True:
        new = {u.involute() for u in closed}
        for u in closed:
            for v in closed:
                new.add(W.UpSet(W.minimal_words(u.generators + v.generators)))
                new.add(u.join(v))
                w = u.concat(v)
                if w.max_generator_len() <= bound:
                    new.add(w)
        if new <= closed:
            return closed
        closed |= new


def three_vertex_classes() -> list[tuple]:
    """One arc set for each isomorphism class of digraphs on 0, 1, 2."""
    vs = ("0", "1", "2")
    cells = [(a, b) for a in vs for b in vs if a != b]
    relabelings = [dict(zip(vs, p)) for p in permutations(vs)]
    classes = set()
    for bits in product((False, True), repeat=len(cells)):
        arcs = [c for c, keep in zip(cells, bits) if keep]
        classes.add(
            min(tuple(sorted((r[a], r[b]) for a, b in arcs)) for r in relabelings)
        )
    return sorted(classes)


@pytest.fixture(scope="module")
def small_zigzag_spaces() -> dict[str, VSpace]:
    """The spaces of the 3-vertex digraph classes whose carrier has at
    most 6 values (a cap of 6 refuses the others), and of the path +-."""
    spaces = {}
    for arcs in three_vertex_classes():
        key = ",".join(f"{a}>{b}" for a, b in arcs) or "none"
        try:
            graph = Digraph.make(["0", "1", "2"], arcs, True)
            spaces[key] = zigzag_space(graph, carrier_cap=6)
        except CapError:
            continue
    spaces["+-"] = zigzag_space(zigzag_from_word("+-").graph)
    return spaces


def carrier_order(values) -> list:
    return sorted(values, key=lambda u: [(len(g), g) for g in u.generators])


def test_word_carrier_matches_the_naive_fixpoint(small_zigzag_spaces):
    assert len(small_zigzag_spaces) == 12
    assert len(small_zigzag_spaces["+-"].monoid.carrier) == 89
    for key, space in small_zigzag_spaces.items():
        m = space.monoid
        expected = naive_carrier(set(space.dist.values()), m.oplus_length_bound)
        assert list(m.carrier) == carrier_order(expected), key


def test_word_carrier_of_seeded_seed_sets_matches_the_naive_fixpoint():
    # Any seed with a one-letter word and bound 2 gives the 89 values of
    # the path +-, checked above, so the products stay at length 1.
    rng = random.Random(53)
    short = W.words_up_to(2)
    for _ in range(16):
        seeds = {
            W.UpSet.from_words(rng.sample(short, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))
        }
        m = WordValueMonoid.from_values(seeds, 1)
        assert list(m.carrier) == carrier_order(naive_carrier(seeds, 1)), seeds


class _Closure:
    """Values closed under one commutative operation, grown in rounds.

    Semi-naive: each round adds the pending values as members, one by
    one, and combines each with the members before it, so every
    unordered pair is combined exactly once.  Results not seen yet are
    pending for the next round; they lie in the closure too, so they
    count towards the cap.
    """

    def __init__(self, op, cap: int):
        self.op = op
        self.cap = cap
        self.members: list[UpSet] = []
        self.known: set[UpSet] = set()
        self.pending: set[UpSet] = set()

    def push(self, values: Iterable[UpSet]) -> None:
        self.pending.update(v for v in values if v not in self.known)
        _check_carrier_size(len(self.known) + len(self.pending), self.cap)

    def step(self) -> list[UpSet]:
        """One round; returns the values it added as members."""
        frontier = sorted(self.pending, key=_upset_key)
        self.pending = set()
        self.known.update(frontier)
        for u in frontier:
            earlier = len(self.members)
            self.members.append(u)
            for v in islice(self.members, earlier):
                w = self.op(u, v)
                if w not in self.known and w not in self.pending:
                    self.pending.add(w)
                    _check_carrier_size(len(self.known) + len(self.pending), self.cap)
        return frontier


def upset_closure_carrier(seeds, bound: int, cap: int) -> tuple:
    """Reference carrier: a ``_Closure`` of ``UpSet.join`` over every
    pair of joins and one of ``UpSet.meet``, one round of each in turn,
    with the products and caps of ``from_values``."""
    seeds = set(seeds) | {W.ZERO, W.TOP}
    joins = _Closure(W.UpSet.join, cap)
    lattice = _Closure(W.UpSet.meet, cap)
    joins.push(seeds | {u.involute() for u in seeds})
    added = []
    while joins.pending or lattice.pending:
        lattice.push(joins.step())
        added += lattice.step()
        if joins.pending or lattice.pending:
            continue
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
        joins.push(products - lattice.known)
        added = []
    return tuple(sorted(lattice.members, key=_upset_key))


def carrier_or_refusal(build, *args):
    try:
        return build(*args)
    except CapError as exc:
        return ("CapError", str(exc))


def test_mask_meet_closure_matches_the_upset_closure(small_zigzag_spaces):
    cases = {
        key: (set(space.dist.values()), space.monoid.oplus_length_bound)
        for key, space in small_zigzag_spaces.items()
    }
    for arcs in three_vertex_classes():
        space = zigzag_space(Digraph.make(["0", "1", "2"], arcs, True))
        cases[f"3-vertex {arcs}"] = (
            set(space.dist.values()),
            space.monoid.oplus_length_bound,
        )
    rng = random.Random(59)
    pool = W.words_up_to(3)
    for k in range(14):
        seeds = {
            W.UpSet.from_words(rng.sample(pool, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        }
        cases[f"seeded {k}"] = (seeds, rng.randint(1, 3))
    sizes = set()
    for key, (seeds, bound) in cases.items():
        expected = carrier_or_refusal(upset_closure_carrier, seeds, bound, 200)

        def masked(cap):
            return WordValueMonoid.from_values(seeds, bound, cap).carrier

        assert carrier_or_refusal(masked, 200) == expected, key
        if expected[0] == "CapError":
            sizes.add("refused")
            continue
        sizes.add(len(expected))
        for cap in (len(expected) - 1, len(expected)):
            assert carrier_or_refusal(masked, cap) == carrier_or_refusal(
                upset_closure_carrier, seeds, bound, cap
            ), (key, cap)
        m = WordValueMonoid.from_values(seeds, bound)
        # the order read off the closure's masks is the order of leq
        assert m._up == WordValueMonoid(m.carrier, bound)._up, key
    assert {"refused", 89} <= sizes and len(sizes) > 8


def path_seeds(word: str) -> tuple[set, int]:
    """The distance values of the path graph of a word and the
    product-length bound that ``zigzag_space`` gives them."""
    dists = all_zigzag_distances(zigzag_from_word(word).graph)
    values = {d.value for d in dists.values()}
    return values, max(1, max(v.max_generator_len() for v in values))


def test_generator_join_closure_matches_the_upset_closure():
    cases = {word: path_seeds(word) for word in ("+-", "+-+", "+-+-")}
    for arcs in three_vertex_classes():
        space = zigzag_space(Digraph.make(["0", "1", "2"], arcs, True))
        cases[f"3-vertex {arcs}"] = (
            set(space.dist.values()),
            space.monoid.oplus_length_bound,
        )
    outcomes = {}
    for key, (seeds, bound) in cases.items():

        def closed(cap):
            return WordValueMonoid.from_values(seeds, bound, cap).carrier

        expected = carrier_or_refusal(upset_closure_carrier, seeds, bound, 512)
        assert carrier_or_refusal(closed, 512) == expected, key
        outcomes[key] = expected[0] if expected[0] == "CapError" else len(expected)
        if expected[0] == "CapError":
            continue
        for cap in (len(expected) - 1, len(expected)):
            assert carrier_or_refusal(closed, cap) == carrier_or_refusal(
                upset_closure_carrier, seeds, bound, cap
            ), (key, cap)
    assert outcomes["+-"] == 89
    assert outcomes["+-+"] == outcomes["+-+-"] == "CapError"


def test_generator_join_closure_makes_fewer_joins(monkeypatch):
    calls = []
    join = W.UpSet.join

    def counted(a, b):
        calls.append(None)
        return join(a, b)

    monkeypatch.setattr(W.UpSet, "join", counted)
    for word in ("+-", "+-+", "+-+-"):
        seeds, bound = path_seeds(word)
        calls.clear()
        carrier_or_refusal(upset_closure_carrier, seeds, bound, CARRIER_CAP)
        reference = len(calls)
        _closed_carrier.cache_clear()
        calls.clear()
        carrier_or_refusal(WordValueMonoid.from_values, seeds, bound)
        assert 0 < 2 * len(calls) <= reference, (word, len(calls), reference)


def test_carrier_memo_shares_one_carrier_per_generator_set():
    plus, minus = W.principal("+"), W.principal("-")
    both = W.UpSet.from_words(["+", "-"])
    m = WordValueMonoid.from_values([plus, both])
    # the default bound is resolved before the lookup
    assert WordValueMonoid.from_values([plus, both], 2) is m
    # order, duplicates, 0, top and involutes give the same generators
    for seeds in (
        [both, plus, both, plus],
        [minus, both, W.ZERO, W.TOP],
        {plus, minus, both},
    ):
        assert WordValueMonoid.from_values(seeds) is m, seeds
    assert WordValueMonoid.from_values([plus, both], 1) is not m
    assert _closed_carrier.cache_info().maxsize == 64


def test_carrier_refusal_is_kept_as_its_text(monkeypatch):
    # the 4-vertex path is refused after join rounds, not by meets alone
    seeds, bound = path_seeds("+-+")
    calls = []
    join = W.UpSet.join

    def counted(a, b):
        calls.append(None)
        return join(a, b)

    monkeypatch.setattr(W.UpSet, "join", counted)
    _closed_carrier.cache_clear()
    refusals = []
    for _ in range(2):
        calls.clear()
        with pytest.raises(CapError, match="value carrier exceeded 512") as refused:
            WordValueMonoid.from_values(seeds, bound)
        refusals.append((refused.value, len(calls)))
    (first, cold), (again, warm) = refusals
    assert str(again) == str(first) and again is not first
    assert cold > 0 and warm == 0


def test_carrier_memo_keys_on_the_cap():
    seeds = {W.principal("+")}
    refused = "value carrier exceeded 6 elements; raise the cap or trim the seed values"

    def size(cap):
        return len(WordValueMonoid.from_values(seeds, carrier_cap=cap).carrier)

    for caps in ((6, CARRIER_CAP), (CARRIER_CAP, 6)):
        _closed_carrier.cache_clear()
        outcomes = {cap: carrier_or_refusal(size, cap) for cap in caps}
        assert outcomes == {6: ("CapError", refused), CARRIER_CAP: 89}, caps


def test_memoised_carriers_equal_cold_closures():
    rng = random.Random(67)
    pool = W.words_up_to(3)
    cases = []
    for _ in range(30):
        seeds = [
            W.UpSet.from_words(rng.sample(pool, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        cases.append((seeds, rng.randint(1, 3), rng.choice((40, 200))))

    def closed(seeds, bound, cap):
        m = WordValueMonoid.from_values(seeds, bound, cap)
        return m.carrier, m._up

    # every case twice, the second time in reverse order with a repeat,
    # so most second calls are answered by the memo
    memoised = [
        (
            carrier_or_refusal(closed, seeds, bound, cap),
            carrier_or_refusal(closed, seeds[::-1] + seeds, bound, cap),
        )
        for seeds, bound, cap in cases
    ]
    kinds = set()
    for (seeds, bound, cap), (first, second) in zip(cases, memoised):
        _closed_carrier.cache_clear()
        cold = carrier_or_refusal(closed, seeds, bound, cap)
        assert first == second == cold, (seeds, bound, cap)
        kinds.add(cold[0] if cold[0] == "CapError" else "carrier")
    assert kinds == {"CapError", "carrier"}


def order_first_convexity_witness(space: VSpace):
    """Reference convexity scan, testing ``d(x,y) <= r (+) s*`` before
    the disjointness of the two balls."""
    m = space.monoid
    balls = {(x, r): space.ball(x, r) for x in space.elements for r in m.carrier}
    bounds = {(r, s): m.oplus(r, m.involute(s)) for r in m.carrier for s in m.carrier}
    for x in space.elements:
        for y in space.elements:
            for r in m.carrier:
                for s in m.carrier:
                    if m.leq(space.d(x, y), bounds[r, s]) and not (
                        balls[x, r] & balls[y, s]
                    ):
                        return ("convexity", x, y, m.name(r), m.name(s))
    return None


def test_hyperconvexity_matches_the_order_first_scan(small_zigzag_spaces):
    failing = set()
    for key, space in small_zigzag_spaces.items():
        ok, witness = space.is_hyperconvex()
        expected = order_first_convexity_witness(space)
        if expected is None:
            assert ok or witness[0] == "ball-family", key
        else:
            assert (ok, witness) == (False, expected), key
            failing.add(key)
    assert failing == {"0>1,0>2,1>0,2>1", "0>1,1>2,2>0"}


def chain_sum_monoid(top: int) -> TableMonoid:
    """The chain 0 < 1 < ... < top with addition cut off at top and the
    identity involution."""
    chain = [str(i) for i in range(top + 1)]
    return TableMonoid.make(
        chain,
        [(str(i), str(i + 1)) for i in range(top)],
        {(a, b): str(min(top, int(a) + int(b))) for a in chain for b in chain},
        {a: a for a in chain},
    )


def table_product_monoid(left: TableMonoid, right: TableMonoid) -> TableMonoid:
    """Coordinatewise order, ``oplus`` and involution on pairs a.b."""
    pairs = [(a, b) for a in left.carrier for b in right.carrier]
    carrier = [f"{a}.{b}" for a, b in pairs]
    return TableMonoid.make(
        carrier,
        [
            (f"{a}.{b}", f"{c}.{d}")
            for a, b in pairs
            for c, d in pairs
            if left.leq(a, c) and right.leq(b, d)
        ],
        {
            (f"{a}.{b}", f"{c}.{d}"): f"{left.oplus(a, c)}.{right.oplus(b, d)}"
            for a, b in pairs
            for c, d in pairs
        },
        {f"{a}.{b}": f"{left.involute(a)}.{right.involute(b)}" for a, b in pairs},
    )


def test_convexity_on_ball_classes_matches_the_ordered_scan(small_zigzag_spaces):
    # Seeded distance matrices that need not satisfy the axioms: the
    # class decision rests only on the monotonicity of oplus and of the
    # involution, so verdict and witness must equal the ordered scan of
    # every (r, s) on any matrix, with or without a violation.
    rng = random.Random(79)
    monoids = [
        V4,
        m3_monoid(),
        chain_sum_monoid(4),
        table_product_monoid(V4, chain_sum_monoid(2)),
    ]
    witnesses = set()
    for m in monoids:
        for _ in range(60):
            els = "abcd"[: rng.randint(2, 4)]
            zero = rng.random() < 0.5
            dist = {
                (x, y): m.zero if zero and x == y else rng.choice(m.carrier)
                for x in els
                for y in els
            }
            space = VSpace.make(els, m, dist)
            got = space.is_hyperconvex()
            assert got == set_hyperconvex(space), (m.carrier, dist)
            witnesses.add(got[1][0] if got[1] else None)
    plus_minus = small_zigzag_spaces["+-"].monoid
    for _ in range(6):
        dist = {(x, y): rng.choice(plus_minus.carrier) for x in "ab" for y in "ab"}
        space = VSpace.make("ab", plus_minus, dist)
        assert space.is_hyperconvex() == set_hyperconvex(space), dist
    assert {None, "convexity"} <= witnesses


def test_word_monoid_accessibility_is_exact():
    m = WordValueMonoid.from_values({W.principal("+")})
    assert m.is_accessible(W.principal("+"))
    assert m.accessibility_value_witness(W.principal("+")) == W.principal("-")
    assert not m.is_accessible(W.TOP)
    assert not m.is_accessible(W.ZERO)
    # inaccessible although every value r in the carrier except 0
    # satisfies the non-ordering half of the witness condition
    assert not m.is_accessible(W.UpSet.from_words(["+", "-"]))


def test_word_value_names_round_trip():
    m = WordValueMonoid.from_values({W.principal("+-")})
    for v in m.carrier:
        assert m.value(m.name(v)) == v
    assert parse_word_value('["+","-"]') == W.UpSet.from_words(["+", "-"])
    with pytest.raises(InputError, match="bad word value"):
        parse_word_value("not json")
    with pytest.raises(InputError, match="list of words"):
        parse_word_value('{"a": 1}')


# ------------------------------------------------------------ space building


def test_space_validation():
    with pytest.raises(InputError, match="at least one"):
        VSpace.make([], V4, {})
    with pytest.raises(InputError, match="duplicate"):
        VSpace.make(["x", "x"], V4, {("x", "x"): "0"})
    with pytest.raises(InputError, match="comma-free"):
        VSpace.make(["a,b"], V4, {("a,b", "a,b"): "0"})
    with pytest.raises(InputError, match="undefined"):
        VSpace.make(["x", "y"], V4, {("x", "x"): "0", ("y", "y"): "0"})
    with pytest.raises(InputError, match="outside the carrier"):
        VSpace.make(["x"], V4, {("x", "x"): "zero"})


def test_axioms_catch_frozen_violations():
    good = two_chain()
    assert good.check_axioms() == (True, None)

    bad_identity = VSpace.make(
        ["x", "y"],
        V4,
        {("x", "x"): "0", ("y", "y"): "0", ("x", "y"): "0", ("y", "x"): "0"},
    )
    ok, witness = bad_identity.check_axioms()
    assert not ok and witness[0] == "identity"

    bad_involution = VSpace.make(
        ["x", "y"],
        V4,
        {("x", "x"): "0", ("y", "y"): "0", ("x", "y"): "+", ("y", "x"): "+"},
    )
    ok, witness = bad_involution.check_axioms()
    assert not ok and witness[0] == "involution"

    # c sits strictly between a and b, so d(a, b) = 1 breaks the
    # triangle through c while every pair axiom still holds
    bad_triangle = VSpace.make(
        ["a", "b", "c"],
        V4,
        {
            ("a", "a"): "0", ("b", "b"): "0", ("c", "c"): "0",
            ("a", "c"): "+", ("c", "a"): "-",
            ("c", "b"): "+", ("b", "c"): "-",
            ("a", "b"): "1", ("b", "a"): "1",
        },
    )
    ok, witness = bad_triangle.check_axioms()
    assert not ok and witness == ("triangle", "a", "b", "c")


def test_every_strict_order_gives_a_valid_space():
    for lt in all_strict_orders(3):
        space = v4_space_from_order([str(i) for i in range(3)], lt)
        assert space.check_axioms() == (True, None)
    rng = random.Random(11)
    for _ in range(60):
        lt = random_strict_order(rng, 5)
        space = v4_space_from_order([str(i) for i in range(5)], lt)
        assert space.check_axioms() == (True, None)


def test_balls_diameter_radius_on_the_two_chain():
    s = two_chain()
    assert s.ball("0", "0") == frozenset({"0"})
    assert s.ball("0", "+") == frozenset({"0", "1"})
    assert s.ball("0", "-") == frozenset({"0"})
    assert s.ball("1", "-") == frozenset({"0", "1"})
    assert s.diameter() == "1"
    assert s.diameter(["0"]) == "0"
    assert s.radius(["0", "1"]) == "0"
    assert not s.is_equally_centered(["0", "1"])
    with pytest.raises(InputError, match="unknown"):
        s.diameter(["7"])


def test_radius_never_exceeds_diameter():
    rng = random.Random(23)
    for _ in range(40):
        lt = random_strict_order(rng, 4)
        s = v4_space_from_order([str(i) for i in range(4)], lt)
        pool = list(s.elements)
        subset = rng.sample(pool, rng.randint(1, len(pool)))
        assert V4.leq(s.radius(subset), s.diameter(subset))


def test_relational_view_of_the_two_chain():
    rs = two_chain().to_relsys()
    rel = {name: pairs for name, pairs in rs.relations}
    assert rel["0"] == frozenset({("0", "0"), ("1", "1")})
    assert rel["+"] == frozenset({("0", "0"), ("1", "1"), ("0", "1")})
    assert rel["-"] == frozenset({("0", "0"), ("1", "1"), ("1", "0")})
    assert rel["1"] == frozenset(
        {("0", "0"), ("1", "1"), ("0", "1"), ("1", "0")}
    )


def test_relational_view_agrees_on_derived_notions():
    rng = random.Random(5)
    for _ in range(25):
        lt = random_strict_order(rng, 4)
        s = v4_space_from_order([str(i) for i in range(4)], lt)
        rs = s.to_relsys()
        subset = frozenset(
            rng.sample(list(s.elements), rng.randint(1, len(s.elements)))
        )
        assert {V4.name(v) for v in [s.diameter(subset)]} == {
            min(
                (n for n, _ in rs.relations if n in rs.diameter_set(subset)),
                key=lambda n: V4.index(n),
            )
        }
        assert s.is_equally_centered(subset) == rs.is_equally_centered(subset)


def reflexive_three_vertex_digraphs() -> list[Digraph]:
    vs = ["a", "b", "c"]
    cells = [(x, y) for x in vs for y in vs if x != y]
    return [
        Digraph.make(vs, [c for c, b in zip(cells, bits) if b], add_loops=True)
        for bits in product((False, True), repeat=len(cells))
    ]


def carrier_relations(s: VSpace) -> dict[frozenset, list]:
    """Oracle: the pair set {(x, y) : d(x, y) <= v} of every carrier
    value v, read with the monoid's order, grouped by pair set."""
    m = s.monoid
    groups: dict[frozenset, list] = {}
    for v in m.carrier:
        pairs = frozenset(
            (x, y) for x in s.elements for y in s.elements if m.leq(s.d(x, y), v)
        )
        groups.setdefault(pairs, []).append(v)
    return groups


def test_relational_view_has_one_relation_per_distinct_pair_set():
    graphs = reflexive_three_vertex_digraphs()
    spaces = [zigzag_space(g) for g in graphs]
    for g, s in zip(graphs, spaces):
        assert distance_space(g).to_relsys() == s.to_relsys()
    spaces += [
        v4_space_from_order([str(i) for i in range(4)], lt)
        for lt in all_strict_orders(4)
    ]
    assert len(spaces) == 64 + 219
    for s in spaces:
        m = s.monoid
        rs = s.to_relsys()
        groups = carrier_relations(s)
        assert sorted(rs.relation_names) == list(rs.relation_names)
        assert {pairs for _, pairs in rs.relations} == set(groups)
        for name, pairs in rs.relations:
            (least,) = [
                v for v in groups[pairs] if all(m.leq(v, w) for w in groups[pairs])
            ]
            assert name == m.name(least)


def test_monotone_maps_are_exactly_the_nonexpansive_selfmaps():
    rng = random.Random(7)
    for _ in range(20):
        lt = random_strict_order(rng, 4)
        els = [str(i) for i in range(4)]
        s = v4_space_from_order(els, lt)
        monotone = {m.pairs for m in monotone_selfmaps(els, lt)}
        for values in product(els, repeat=4):
            f = dict(zip(els, values))
            vm = VMap.make(s, s, f)
            assert vm.is_nonexpansive() == (tuple(sorted(f.items())) in monotone)


# -------------------------------------------------------------- hyperconvex


def brute_force_hyperconvex(space: VSpace) -> bool:
    """Definitional scan: convexity, plus a common point for every
    pairwise-intersecting family of balls."""
    m = space.monoid
    balls = {
        (x, m.name(r)): space.ball(x, r)
        for x in space.elements
        for r in m.carrier
    }
    for x in space.elements:
        for y in space.elements:
            for r in m.carrier:
                for s in m.carrier:
                    if m.leq(space.d(x, y), m.oplus(r, m.involute(s))):
                        if not balls[x, m.name(r)] & balls[y, m.name(s)]:
                            return False
    keys = sorted(balls)
    for size in range(2, len(keys) + 1):
        from itertools import combinations

        for combo in combinations(keys, size):
            family = [balls[k] for k in combo]
            pairwise = all(
                a & b for i, a in enumerate(family) for b in family[i + 1 :]
            )
            if pairwise:
                common = set(space.elements)
                for b in family:
                    common &= b
                if not common:
                    return False
    return True


def test_hyperconvexity_frozen_examples():
    assert two_chain().is_hyperconvex() == (True, None)
    assert diamond_space().is_hyperconvex() == (True, None)
    ok, witness = fence_vee().is_hyperconvex()
    assert not ok and witness == ("convexity", "a", "b", "+", "+")


def test_hyperconvexity_matches_brute_force_scan():
    rng = random.Random(31)
    seen_true = seen_false = 0
    for _ in range(30):
        lt = random_strict_order(rng, 3)
        s = v4_space_from_order([str(i) for i in range(3)], lt)
        verdict = s.is_hyperconvex()[0]
        assert verdict == brute_force_hyperconvex(s)
        seen_true += verdict
        seen_false += not verdict
    assert seen_true and seen_false


def is_complete_lattice(elements, lt: frozenset) -> bool:
    leq = set(lt) | {(x, x) for x in elements}
    for a in elements:
        for b in elements:
            ub = [z for z in elements if (a, z) in leq and (b, z) in leq]
            lb = [z for z in elements if (z, a) in leq and (z, b) in leq]
            if len([u for u in ub if all((u, v) in leq for v in ub)]) != 1:
                return False
            if len([u for u in lb if all((v, u) in leq for v in lb)]) != 1:
                return False
    return bool(elements)


def test_order_space_hyperconvex_iff_complete_lattice():
    for lt in all_strict_orders(4):
        els = [str(i) for i in range(4)]
        s = v4_space_from_order(els, lt)
        assert s.is_hyperconvex()[0] == is_complete_lattice(els, lt)
    rng = random.Random(13)
    for _ in range(25):
        els, lt = closure_system_lattice(rng)
        s = v4_space_from_order(els, lt)
        assert s.is_hyperconvex() == (True, None)


def test_value_monoid_space_is_hyperconvex():
    s = monoid_space(V4)
    assert s.check_axioms() == (True, None)
    assert s.is_hyperconvex() == (True, None)


def test_retracts_preserve_hyperconvexity():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        els, lt = closure_system_lattice(rng, base_size=2, extra=2)
        s = v4_space_from_order(els, lt)
        for values in product(s.elements, repeat=len(s.elements)):
            f = dict(zip(s.elements, values))
            if any(f[f[x]] != f[x] for x in s.elements):
                continue
            vm = VMap.make(s, s, f)
            if not vm.is_nonexpansive():
                continue
            image = s.restrict(vm.image)
            assert image.is_hyperconvex()[0]
            checked += 1
    assert checked > 20


def test_products_preserve_hyperconvexity():
    two = two_chain()
    prod = product_space([two, two])
    assert prod.elements == ("0|0", "0|1", "1|0", "1|1")
    assert prod.d("0|1", "1|0") == "1"
    assert prod.d("0|0", "1|1") == "+"
    assert prod.is_hyperconvex() == (True, None)
    rng = random.Random(43)
    for _ in range(6):
        els1, lt1 = closure_system_lattice(rng, base_size=2, extra=1)
        els2, lt2 = closure_system_lattice(rng, base_size=2, extra=1)
        s1 = v4_space_from_order(els1, lt1)
        s2 = v4_space_from_order(els2, lt2)
        prod = product_space([s1, s2])
        assert prod.check_axioms() == (True, None)
        assert prod.is_hyperconvex()[0]
        for k, s in enumerate([s1, s2]):
            proj = VMap.make(
                prod, s, {e: e.split("|")[k] for e in prod.elements}
            )
            assert proj.is_nonexpansive()


def test_product_respects_the_size_cap():
    s = diamond_space()
    with pytest.raises(CapError, match="cap"):
        product_space([s, s, s, s, s], cap=256)


def test_product_requires_compatible_monoids():
    with pytest.raises(InputError, match="share a value monoid"):
        product_space([two_chain(), pm_word_space()])


# ------------------------------------------------- accessibility/boundedness


def test_bounded_frozen_examples():
    assert two_chain().is_bounded()
    assert fence_vee().is_bounded()  # every order space is: only 0 is inaccessible
    assert pm_word_space().is_bounded()
    top_space = word_space(
        ["x", "y"],
        {
            ("x", "x"): W.ZERO,
            ("y", "y"): W.ZERO,
            ("x", "y"): W.TOP,
            ("y", "x"): W.TOP,
        },
    )
    assert top_space.check_axioms() == (True, None)
    assert not top_space.is_bounded()


def test_equal_center_iff_inaccessible_diameter_on_hyperconvex_spaces():
    rng = random.Random(3)
    done = 0
    while done < 15:
        els, lt = closure_system_lattice(rng, base_size=2, extra=2)
        s = v4_space_from_order(els, lt)
        if len(s.elements) > 6:
            continue
        done += 1
        rs = s.to_relsys()
        for member in rs.ball_intersections():
            sub = member.support
            if not sub:
                continue
            assert s.is_equally_centered(sub) == (
                not V4.is_accessible(s.diameter(sub))
            )


def test_inaccessible_diameter_forces_equal_centers_without_hyperconvexity():
    # one direction of the previous test holds for every space
    rng = random.Random(29)
    for _ in range(25):
        lt = random_strict_order(rng, 4)
        s = v4_space_from_order([str(i) for i in range(4)], lt)
        rs = s.to_relsys()
        for member in rs.ball_intersections():
            sub = member.support
            if sub and not V4.is_accessible(s.diameter(sub)):
                assert s.is_equally_centered(sub)


def test_common_fixed_points_for_commuting_nonexpansive_maps():
    rng = random.Random(37)
    solved = 0
    for _ in range(30):
        els, lt = closure_system_lattice(rng, base_size=2, extra=2)
        s = v4_space_from_order(els, lt)
        if len(s.elements) > 6:
            continue
        assert s.is_bounded() and s.is_hyperconvex()[0]
        maps = [
            SelfMap(m.pairs)
            for m in monotone_selfmaps(s.elements, lt, limit=40)
        ]
        rng.shuffle(maps)
        for f in maps[:6]:
            for g in maps[:6]:
                fm, gm = SelfMap(f.pairs), SelfMap(g.pairs)
                if fm.compose(gm).pairs != gm.compose(fm).pairs:
                    continue
                common, cert = s.to_relsys().common_fixed_points([fm, gm])
                assert common and cert.ok
                solved += 1
    assert solved > 30


# -------------------------------------------------------- embedding and maps


def test_canonical_embedding_reproduces_distances():
    rng = random.Random(41)
    for _ in range(15):
        lt = random_strict_order(rng, 4)
        s = v4_space_from_order([str(i) for i in range(4)], lt)
        emb = canonical_embedding(s)
        assert emb.vmap.is_isometry()
        assert len(emb.coordinates) == len(s.elements)
    wemb = canonical_embedding(pm_word_space())
    assert wemb.vmap.is_isometry()


def test_vmap_validation():
    s = two_chain()
    with pytest.raises(InputError, match="exactly on the source"):
        VMap.make(s, s, {"0": "0"})
    with pytest.raises(InputError, match="leaves the target"):
        VMap.make(s, s, {"0": "0", "1": "z"})
    with pytest.raises(InputError, match="share a value monoid"):
        VMap.make(s, pm_word_space(), {"0": "x", "1": "y"})


def test_isometries_are_injective_and_nonexpansive():
    s = diamond_space()
    iso = VMap.make(s, s, {x: x for x in s.elements})
    assert iso.is_isometry() and iso.is_nonexpansive()
    collapse = VMap.make(s, s, {"0": "0", "a": "a", "b": "a", "1": "1"})
    assert not collapse.is_isometry()


# ---------------------------------------------------------------------- holes


def test_zero_radii_are_a_hole_exactly_when_two_points_exist():
    one = VSpace.make(["p"], V4, {("p", "p"): "0"})
    assert not one.is_hole(RadiusMap.make({"p": "0"}, one.elements))
    s = two_chain()
    assert s.is_hole(RadiusMap.make({"0": "0", "1": "0"}, s.elements))


def test_fence_has_a_hole_under_its_natural_radii():
    s = fence_vee()
    h = RadiusMap.make({"0": "1", "a": "+", "b": "+"}, s.elements)
    assert s.is_hole(h)
    assert not s.is_hole(RadiusMap.make({"0": "1", "a": "1", "b": "1"}, s.elements))


def test_hole_image_meets_preimage_radii_and_tops_off_range():
    s = two_chain()
    t = diamond_space()
    f = VMap.make(s, t, {"0": "0", "1": "a"})
    rm = RadiusMap.make({"0": "+", "1": "-"}, s.elements)
    img = hole_image(rm, f)
    assert img.as_dict == {"0": "+", "a": "-", "b": "1", "1": "1"}


def test_hole_image_matches_the_preimage_scan():
    # maps that are not injective, so a target point meets the radii
    # of several preimages
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(2, 4)
        els = [str(i) for i in range(n)]
        source = v4_space_from_order(els, random_strict_order(rng, n))
        target = diamond_space()
        f = VMap.make(source, target, {x: rng.choice(target.elements) for x in els})
        rm = RadiusMap.make({x: rng.choice(V4.carrier) for x in els}, els)
        expected = {
            y: V4.meet_all(rm(x) for x in source.elements if f(x) == y)
            for y in target.elements
        }
        assert hole_image(rm, f).as_dict == expected


def test_identity_and_isometric_inclusions_preserve_holes():
    s = two_chain()
    assert VMap.make(s, s, {x: x for x in s.elements}).is_hole_preserving()
    t = diamond_space()
    incl = VMap.make(s, t, {"0": "0", "1": "1"})
    assert incl.is_isometry()
    assert incl.is_hole_preserving()


def test_collapsing_maps_do_not_preserve_holes():
    s = two_chain()
    one = VSpace.make(["p"], V4, {("p", "p"): "0"})
    collapse = VMap.make(s, one, {"0": "p", "1": "p"})
    assert not collapse.is_hole_preserving()


def test_hole_preserving_iff_isometry_onto_one_local_retract():
    # over non-expansive maps, where hole preservation is defined
    rng = random.Random(19)
    agreements = {True: 0, False: 0}
    for _ in range(12):
        lt = random_strict_order(rng, 3)
        s = v4_space_from_order([str(i) for i in range(3)], lt)
        lt4 = random_strict_order(rng, 4)
        t = v4_space_from_order([str(i) for i in range(4)], lt4)
        for values in product(t.elements, repeat=len(s.elements)):
            vm = VMap.make(s, t, dict(zip(s.elements, values)))
            if not vm.is_nonexpansive():
                continue
            structural = (
                vm.is_isometry() and metric_one_local_retract(t, vm.image).ok
            )
            assert vm.is_hole_preserving() == structural
            agreements[structural] += 1
    assert agreements[True] and agreements[False]


def test_hole_preservation_requires_a_nonexpansive_map():
    chain = two_chain()
    antichain = v4_space_from_order(["0", "1"], frozenset())
    spread = VMap.make(chain, antichain, {"0": "0", "1": "1"})
    assert not spread.is_nonexpansive()
    with pytest.raises(HypothesisError, match="non-expansive"):
        spread.is_hole_preserving()


# ----------------------------------------- hole preservation and the radius


def enumerated_hole_preserving(vmap: VMap) -> bool:
    """Oracle: every radius map over the source carrier that is a source
    hole has a target hole as its image; |carrier|^|S| candidates."""
    els = vmap.source.elements
    for values in product(vmap.source.monoid.carrier, repeat=len(els)):
        radii = RadiusMap(tuple(zip(els, values)))
        if vmap.source.is_hole(radii) and not vmap.target.is_hole(
            hole_image(radii, vmap)
        ):
            return False
    return True


def hole_verdicts_match_the_enumeration(maps) -> dict[bool, int]:
    """Asserts that both tests agree on every map; counts the verdicts."""
    verdicts = {True: 0, False: 0}
    for vm in maps:
        got = vm.is_hole_preserving()
        assert got == enumerated_hole_preserving(vm), vm.pairs
        verdicts[got] += 1
    return verdicts


def nonexpansive_maps(rng: random.Random, pairs, per_pair: int) -> list[VMap]:
    """The non-expansive ones among ``per_pair`` random maps for each
    (source, target) pair."""
    maps = []
    for s, t in pairs:
        for _ in range(per_pair):
            f = {x: rng.choice(t.elements) for x in s.elements}
            vm = VMap.make(s, t, f)
            if vm.is_nonexpansive():
                maps.append(vm)
    return maps


def leaves_the_source_carrier(vm: VMap) -> bool:
    """Whether some distance d(f(x), t) is outside the source carrier."""
    m = vm.source.monoid
    return any(
        not m.contains(vm.target.d(y, t))
        for _, y in vm.pairs
        for t in vm.target.elements
    )


@pytest.fixture(scope="module")
def digraph_spaces() -> list[VSpace]:
    """The spaces of the 64 reflexive 3-vertex digraphs."""
    return [zigzag_space(g) for g in reflexive_three_vertex_digraphs()]


def test_hole_preservation_matches_the_enumeration_on_small_poset_selfmaps():
    maps = []
    for n in range(1, 4):
        els = [str(i) for i in range(n)]
        for lt in all_strict_orders(n):
            s = v4_space_from_order(els, lt)
            for values in product(els, repeat=n):
                vm = VMap.make(s, s, dict(zip(els, values)))
                if vm.is_nonexpansive():
                    maps.append(vm)
    assert len(maps) == 236
    verdicts = hole_verdicts_match_the_enumeration(maps)
    assert verdicts[True] and verdicts[False]


def test_hole_preservation_matches_the_enumeration_between_posets():
    rng = random.Random(29)
    pairs = []
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(2, 4)
        s = v4_space_from_order([str(i) for i in range(n)], random_strict_order(rng, n))
        t = v4_space_from_order([str(i) for i in range(k)], random_strict_order(rng, k))
        pairs.append((s, t))
    verdicts = hole_verdicts_match_the_enumeration(nonexpansive_maps(rng, pairs, 12))
    assert verdicts[True] and verdicts[False]


def test_hole_preservation_matches_the_enumeration_on_word_maps():
    # the reflexive 3-vertex digraph spaces whose carrier closes within 16 values
    spaces = []
    for g in reflexive_three_vertex_digraphs():
        try:
            spaces.append(zigzag_space(g, carrier_cap=16))
        except CapError:
            continue
    assert len(spaces) == 40
    rng = random.Random(31)
    self_maps = nonexpansive_maps(rng, [(s, s) for s in spaces], 12)
    verdicts = hole_verdicts_match_the_enumeration(self_maps)
    assert verdicts[True] and verdicts[False]
    pairs = [tuple(rng.sample(spaces, 2)) for _ in range(120)]
    cross_maps = nonexpansive_maps(rng, pairs, 6)
    # the raise of d(f(x), t) to the source carrier is exercised
    assert any(map(leaves_the_source_carrier, cross_maps))
    verdicts = hole_verdicts_match_the_enumeration(cross_maps)
    assert verdicts[True] and verdicts[False]


def test_hole_preservation_matches_the_enumeration_on_89_value_restrictions(
    digraph_spaces,
):
    rng = random.Random(37)
    spaces = [s for s in digraph_spaces if len(s.monoid.carrier) == 89]
    assert len(spaces) == 24
    maps = []
    for s in rng.sample(spaces, 3):
        for pair in ("ab", "ac", "bc"):
            r = s.restrict(pair)
            for values in product(s.elements, repeat=2):
                vm = VMap.make(r, s, dict(zip(r.elements, values)))
                if vm.is_nonexpansive():
                    maps.append(vm)
    verdicts = hole_verdicts_match_the_enumeration(maps)
    assert verdicts[True] and verdicts[False]


def test_hole_preservation_answers_on_the_eight_element_chain():
    # 4^8 = 65,536 radius maps: more than any enumeration should try
    els = [str(i) for i in range(8)]
    s = v4_space_from_order(els, frozenset((x, y) for x in els for y in els if x < y))

    def vmap(f) -> VMap:
        return VMap.make(s, s, {x: str(f(int(x))) for x in els})

    identity, clamp = vmap(lambda i: i), vmap(lambda i: min(i, 5))
    assert identity.is_hole_preserving()
    assert not clamp.is_hole_preserving()
    for vm in (identity, clamp, vmap(lambda i: min(i + 1, 7)), vmap(lambda i: 0)):
        structural = vm.is_isometry() and metric_one_local_retract(s, vm.image).ok
        assert vm.is_hole_preserving() == structural


def carrier_scan_radius(space: VSpace, subset):
    """Oracle: the meet of the carrier values v for which some point x of
    the subset covers it with B(x, v)."""
    a = frozenset(subset)
    m = space.monoid
    return m.meet_all(
        v for v in m.carrier if any(a <= space.ball(x, v) for x in a)
    )


def test_radius_matches_the_carrier_scan(digraph_spaces):
    rng = random.Random(41)
    spaces = list(digraph_spaces)
    for n in range(1, 6):
        els = [str(i) for i in range(n)]
        spaces += [
            v4_space_from_order(els, random_strict_order(rng, n)) for _ in range(12)
        ]
    checked = 0
    for s in spaces:
        for bits in product((False, True), repeat=len(s.elements)):
            subset = [x for x, keep in zip(s.elements, bits) if keep]
            assert s.radius(subset) == carrier_scan_radius(s, subset), subset
            checked += 1
    assert checked == 64 * 8 + 12 * (2 + 4 + 8 + 16 + 32)


def test_nonexpansive_selfmaps_are_the_endomorphisms_of_the_relational_view(
    digraph_spaces,
):
    rng = random.Random(43)
    spaces = list(digraph_spaces)
    for n in range(2, 6):
        els = [str(i) for i in range(n)]
        spaces += [
            v4_space_from_order(els, random_strict_order(rng, n)) for _ in range(15)
        ]
    verdicts = {True: 0, False: 0}
    for s in spaces:
        rs = s.to_relsys()
        for _ in range(30):
            f = {x: rng.choice(s.elements) for x in s.elements}
            got = VMap.make(s, s, f).is_nonexpansive()
            assert got == rs.is_endomorphism(SelfMap.make(f, s.elements)), f
            verdicts[got] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500


def test_metric_side_olr_agrees_with_relational_side():
    rng = random.Random(47)
    for _ in range(25):
        lt = random_strict_order(rng, 4)
        s = v4_space_from_order([str(i) for i in range(4)], lt)
        rs = s.to_relsys()
        subset = frozenset(
            rng.sample(list(s.elements), rng.randint(1, len(s.elements)))
        )
        mine = metric_one_local_retract(s, subset)
        theirs = rs.is_one_local_retract(subset)
        assert mine.ok == theirs.ok
        assert mine.table == theirs.table
        assert mine.violator == theirs.violator


# ------------------------------------------------- set-based oracles


def set_hyperconvex(space: VSpace):
    """The hyperconvexity scan on frozenset balls: disjointness first,
    then the family property over the maximal cliques of distinct balls."""
    m = space.monoid
    balls = {(x, r): space.ball(x, r) for x in space.elements for r in m.carrier}
    for x in space.elements:
        for y in space.elements:
            for r in m.carrier:
                for s in m.carrier:
                    if balls[x, r] & balls[y, s]:
                        continue
                    if m.leq(space.d(x, y), m.oplus(r, m.involute(s))):
                        return False, ("convexity", x, y, m.name(r), m.name(s))
    distinct = {}
    for x in space.elements:
        for r in m.carrier:
            distinct.setdefault(balls[x, r], (x, m.name(r)))
    nodes = sorted(distinct, key=lambda b: tuple(sorted(b)))
    neighbors = {
        i: {j for j, b in enumerate(nodes) if i != j and nodes[i] & b}
        for i in range(len(nodes))
    }
    for clique in _maximal_cliques(len(nodes), neighbors):
        if len(clique) >= 3 and not frozenset.intersection(*(nodes[i] for i in clique)):
            return False, ("ball-family", tuple(distinct[nodes[i]] for i in clique))
    return True, None


def set_is_hole(space: VSpace, radii: RadiusMap) -> bool:
    common = set(space.elements)
    for x in space.elements:
        common &= space.ball(x, radii(x))
        if not common:
            return True
    return False


def outcome(check, *args):
    """The result of a check, or the type and text of what it raised."""
    try:
        return check(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def test_four_value_hyperconvexity_and_holes_match_the_set_scans():
    rng = random.Random(71)
    for n in range(1, 5):
        els = "qpon"[:n]
        for lt in all_strict_orders(n):
            lt = frozenset((els[int(x)], els[int(y)]) for x, y in lt)
            space = v4_space_from_order(els, lt)
            assert space.is_hyperconvex() == set_hyperconvex(space)
            maps = list(product(V4.carrier + ("2",), repeat=n))
            for values in rng.sample(maps, min(len(maps), 12)):
                radii = RadiusMap(tuple(zip(space.elements, values)))
                assert outcome(space.is_hole, radii) == outcome(
                    set_is_hole, space, radii
                )


def test_word_hyperconvexity_and_holes_match_the_set_scans(small_zigzag_spaces):
    rng = random.Random(73)
    outside = W.principal("+-+-+-+")
    for key, space in small_zigzag_spaces.items():
        assert outside not in space.monoid.carrier
        assert space.is_hyperconvex() == set_hyperconvex(space), key
        values = list(space.monoid.carrier) + [outside]
        for _ in range(40):
            radii = RadiusMap(
                tuple((x, rng.choice(values)) for x in space.elements)
            )
            assert space.is_hole(radii) == set_is_hole(space, radii), key


def test_a_thin_word_carrier_is_refused_where_a_lattice_is_needed():
    """The carrier of ``thin_word_space`` holds the distance values, 0
    and top only; radii and hole preservation assume one closed under
    meet and join, so each refuses it, naming a pair.  The canonical
    embedding and the relational view read only the distances and
    still run: the view has one relation per join of distance values,
    named by it."""
    s = thin_word_space(zigzag_from_word("++-").graph)
    for run in (
        lambda: s.radius(s.elements),
        VMap.make(s, s, {x: x for x in s.elements}).is_hole_preserving,
    ):
        with pytest.raises(StructureError, match=r"\] and \[.*leaves the carrier"):
            run()
    assert "_escape" in vars(s.monoid)  # searched once, kept
    canonical_embedding(s)
    values = set(s.dist.values())
    joins = {
        W.join_all(c) for k in range(len(values) + 1) for c in combinations(values, k)
    }
    assert dict(s.to_relsys().relations) == {
        s.monoid.name(u): frozenset(p for p, d in s.dist.items() if d.leq(u))
        for u in joins
    }


def test_a_distance_carrier_closes_to_the_memoised_carrier():
    """``over`` holds the values with 0 and top, unclosed; ``closed``
    gives the carrier that ``from_values`` keeps for the same seeds,
    refuses over its cap, and keeps a closed carrier or a table
    monoid."""
    values, bound = path_seeds("+-")
    thin = WordValueMonoid.over(values, bound)
    assert set(thin.carrier) == values | {W.ZERO, W.TOP} and thin.masks is None
    graph = zigzag_from_word("+-").graph
    space = distance_space(graph)
    assert space.monoid == thin
    closed = space.closed()
    assert closed.monoid is WordValueMonoid.from_values(values, bound)
    assert closed.monoid is zigzag_space(graph).monoid
    assert closed.dist == space.dist and closed.closed() is closed
    with pytest.raises(CapError, match="exceeded 3 elements"):
        space.closed(3)
    order = v4_space_from_order(["a", "b"], frozenset({("a", "b")}))
    assert order.closed() is order
    assert WordValueMonoid.over(values).oplus_length_bound == 2 * bound == 4


def test_a_closed_carrier_given_directly_is_accepted():
    values, bound = path_seeds("+-")
    closed = WordValueMonoid.from_values(values, bound)
    direct = WordValueMonoid(closed.carrier, bound)
    graph = zigzag_from_word("+-").graph
    dist = {p: d.value for p, d in all_zigzag_distances(graph).items()}
    for m in (closed, direct):
        m.check_lattice()
        s = VSpace.make(graph.vertices, m, dist)
        assert s.radius(s.elements) == carrier_scan_radius(s, s.elements)
        assert len(s.to_relsys().relations) > 1
    assert direct.masks is None and direct._escape == ()
