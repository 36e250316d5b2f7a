"""Frozen value records, in place of ``dataclass(frozen=True)``.

``@record`` or ``@record(eq=False, hidden=(...))`` on a class with
annotated fields, in order, a class attribute being a default, adds an
``__init__`` that stores the fields in the instance ``__dict__`` (so
``cached_property`` works) and a ``repr`` ``Qualname(field=value, ...)``.
Setting or deleting an attribute raises ``AttributeError``.  With
``eq=True``, ``==`` compares the tuples of the fields of two records of
one class (``NotImplemented`` for other classes), and the hash is that
tuple's, so sets of records keep their order; ``eq=False`` keeps both by
identity.  ``hidden`` fields stay out of ``==``, the hash and the repr.

Each command is a new process, mostly start-up.  With no bytecode cache,
on 2 vCPUs under Python 3.11, ``dataclasses`` imports ``inspect``, ``dis``,
``ast`` and ``tokenize`` in 11 ms and makes a frozen class in about 1 ms
(0.3 ms here); ``import relmetric.cli`` went from 104 to 79 ms.
"""


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot set or delete field {name!r} of a record")


def record(cls=None, /, *, eq=True, hidden=()):
    if cls is None:
        return lambda cls: record(cls, eq=eq, hidden=hidden)
    names = tuple(cls.__annotations__)
    space = {f"_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_{n}" if f"_{n}" in space else n for n in names)
    shown = [n for n in names if n not in hidden]
    mine, theirs = ("".join(f"{s}.{n}, " for n in shown) for s in ("self", "other"))
    text = ", ".join(f"{n}={{self.{n}!r}}" for n in shown)
    assign = "".join(f"\n    __attrs[{n!r}] = {n}" for n in names)
    exec(
        f"""def __init__(self, {params}):
    __attrs = self.__dict__{assign}
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({text})"
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))""",
        space,
    )
    for name in ("__init__", "__repr__") + (("__eq__", "__hash__") if eq else ()):
        space[name].__module__ = cls.__module__
        space[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, space[name])
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
