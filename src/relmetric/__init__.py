"""Ball geometry, fixed points and word-valued distances on finite
relational systems.

The package is organised in layers:

- :mod:`relmetric.words` — the algebra of final-segment word values
  (up-sets of the two-letter subword order) with concatenation,
  involution, lattice operations, residual distances and the cut
  criterion for the completion by cones.
- :mod:`relmetric.relsys` — finite relational systems, their balls,
  normal structure, one-local retracts and a certified common
  fixed-point solver.
- :mod:`relmetric.vmetric` — metric spaces over involutive value
  monoids: axioms, hyperconvexity, holes, canonical embeddings and
  the four-value monoid whose spaces are the partial orders.
- :mod:`relmetric.poset` — gaps, complete-lattice detection, the
  Tarski fixed-point solver and retracts of fence products.
- :mod:`relmetric.zigzag` — reflexive digraphs with word-valued
  zigzag distances, products of path graphs, isometric product
  embeddings and boundedness over cut values.
- :mod:`relmetric.cli` — the ``relmetric`` command: JSON inputs in,
  deterministic JSON certificates out, with an independent ``verify``
  subcommand.
"""

from . import cli, errors, poset, relsys, vmetric, words, zigzag
from .errors import (
    CapError,
    HypothesisError,
    InputError,
    InternalCheckError,
    RelmetricError,
    StructureError,
)
from .poset import Gap, Poset, find_gaps, make_fence, tarski_common_fixed_points
from .relsys import OLRResult, RelSys, SelfMap
from .vmetric import (
    RadiusMap,
    TableMonoid,
    VMap,
    VSpace,
    WordValueMonoid,
    canonical_embedding,
    v4_monoid,
    word_space,
)
from .words import TOP, ZERO, UpSet
from .zigzag import (
    Digraph,
    embed_into_zigzag_product,
    macneille_bounded,
    zigzag_fixed_point_demo,
    zigzag_space,
    zz_generators,
    zz_member,
)

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "Digraph",
    "Gap",
    "HypothesisError",
    "InputError",
    "InternalCheckError",
    "OLRResult",
    "Poset",
    "RadiusMap",
    "RelSys",
    "RelmetricError",
    "SelfMap",
    "StructureError",
    "TOP",
    "TableMonoid",
    "UpSet",
    "VMap",
    "VSpace",
    "WordValueMonoid",
    "ZERO",
    "canonical_embedding",
    "cli",
    "embed_into_zigzag_product",
    "errors",
    "find_gaps",
    "macneille_bounded",
    "make_fence",
    "poset",
    "relsys",
    "tarski_common_fixed_points",
    "v4_monoid",
    "vmetric",
    "word_space",
    "words",
    "zigzag",
    "zigzag_fixed_point_demo",
    "zigzag_space",
    "zz_generators",
    "zz_member",
]
