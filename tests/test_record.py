"""Frozen value records.

The library's records are plain frozen classes made by
``relmetric._record.record``, not dataclasses, so that importing the
package stays cheap.  These tests pin the rules the records keep: the
hash of the field tuple (set orders, and with them certificate bytes,
depend on it), equality only within one class, no assignment, the
``repr`` text and the fields left out of all three.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import relmetric
from relmetric._record import record
from relmetric.poset import Gap, Poset
from relmetric.vmetric import WordValueMonoid
from relmetric.words import TOP, ZERO, UpSet


def test_importing_relmetric_loads_neither_dataclasses_nor_inspect():
    src = str(Path(relmetric.__file__).resolve().parents[1])
    code = "import sys, relmetric; print({'dataclasses', 'inspect'} & set(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "set()"


def test_records_hash_their_field_tuple_and_compare_within_their_class():
    gens = ("+-", "-+")
    u = UpSet(gens)
    gap = Gap(("a",), ("b",))
    poset = Poset(("a", "b"), frozenset({("a", "b")}))
    monoid = WordValueMonoid.from_values({UpSet(("+",))})
    assert hash(u) == hash((gens,))
    assert hash(gap) == hash((("a",), ("b",)))
    assert hash(poset) == hash((("a", "b"), frozenset({("a", "b")})))
    assert hash(monoid) == hash((monoid.carrier, monoid.oplus_length_bound))
    assert u == UpSet(gens) and u is not UpSet(gens)
    assert gap != Gap(("a",), ("c",))
    # the same field values in another class are not equal
    assert gap.__eq__(Poset(("a",), ("b",))) is NotImplemented
    assert Gap(("a",), ("b",)) != Poset(("a",), ("b",))
    assert u.__eq__(gens) is NotImplemented and u != gens
    # a set of records iterates as the set of their field tuples does
    values = [UpSet((w,)) for w in ("", "+", "-", "+-", "-+", "++", "--")]
    assert [v.generators for v in set(values)] == [
        t[0] for t in set((v.generators,) for v in values)
    ]


def test_records_are_frozen_and_keep_cached_properties():
    poset = Poset(("a", "b"), frozenset({("a", "b")}))
    for target, name in ((UpSet(("+",)), "generators"), (poset, "lt"), (poset, "x")):
        with pytest.raises(AttributeError):
            setattr(target, name, ())
        with pytest.raises(AttributeError):
            delattr(target, name)
    assert poset.leq("a", "b") and not poset.leq("b", "a")
    assert poset._up is poset._up and "_up" in vars(poset)


def test_records_repr_their_fields_by_qualname():
    assert repr(UpSet(("+-",))) == "UpSet(generators=('+-',))"
    assert repr(Gap(("a",), ())) == "Gap(lower=('a',), upper=())"
    assert repr(Poset(("a",), frozenset())) == (
        "Poset(elements=('a',), lt=frozenset())"
    )


def test_hidden_masks_stay_out_of_eq_hash_and_repr():
    closed = WordValueMonoid.from_values({UpSet(("+",))})
    direct = WordValueMonoid(closed.carrier, closed.oplus_length_bound)
    assert closed.masks is not None and direct.masks is None
    assert closed == direct and hash(closed) == hash(direct)
    assert repr(closed) == repr(direct)
    assert "masks" not in repr(closed)
    assert repr(WordValueMonoid((ZERO, TOP), 2)) == (
        "WordValueMonoid(carrier=(UpSet(generators=('',)), UpSet(generators=())),"
        " oplus_length_bound=2)"
    )


def test_record_fields_defaults_and_identity_equality():
    @record(eq=False)
    class Pair:
        left: int
        right: int = 0

        @cached_property
        def total(self) -> int:
            return self.left + self.right

    p = Pair(1)
    assert (p.left, p.right, p.total) == (1, 0, 1)
    assert Pair(1, right=2).total == 3
    assert p != Pair(1) and hash(p) == object.__hash__(p)
    assert repr(p).endswith(".<locals>.Pair(left=1, right=0)")
    with pytest.raises(TypeError):
        Pair()
