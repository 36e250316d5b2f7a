"""Command-line front end: load inputs, run analyses, emit certificates.

Input files are JSON documents recognized by their fields: a digraph
has "vertices" and "arcs"; a poset "elements" and "covers"; a
relational system "elements" and "relations"; a space "elements",
"monoid" and "dist" (distance keys "x,y"; a word value is a string
holding a JSON array of generator words, such as "[\"+-\"]"); a demo
"kind".  A fence-retract demo has "orientations", "sub", "retraction"
and "maps"; a zigzag demo has "graph", "maps" and, for the retract
route, "factor_words" and "retraction".  Each document is read by one
``_Inputs`` object, shared by the command and by ``verify``; a field of
the wrong shape is an input error that names its JSON path.

Certificates are JSON with sorted keys and no timestamps, so identical
invocations produce identical bytes.  The verify subcommand re-checks a
certificate against the input: witnesses are checked definitionally,
while a certificate without witnesses (check, and distance or embed on
a space or poset) is computed again by the command's own handler and
compared field by field, and a zigzag demo searches its distances
again.  Lists are compared in full: a digraph distance is recomputed
whole after its generators are checked, an embedding's distances are
searched again, the gaps and holes are compared with the command's
enumeration, and a direct-route demo's boundedness witnesses with the
cut values of the closed carrier.  The other fields are compared with
what the command emits: the verdict, a demo's route and product size,
the sorted fixed points and an embedding's coordinates.

Exit codes: 0 when a verdict was computed (negative verdicts
included), 2 for input errors, 3 for exceeded caps, 4 for violated
hypotheses, 1 for internal check failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from . import words
from .errors import (
    HypothesisError,
    InputError,
    InternalCheckError,
    RelmetricError,
)
from .poset import (
    GAP_CAP,
    Gap,
    Poset,
    _gap_radii,
    _gaps,
    _is_gap_mask,
    _least_subgap,
    _tarski,
    fence_product_retract_demo,
    find_gaps,
    make_fence,
    poset_product,
    poset_to_vspace,
    vspace_to_poset,
)
from .relsys import RelSys, SelfMap, retraction_violation
from .vmetric import (
    CARRIER_CAP,
    RadiusMap,
    TableMonoid,
    VSpace,
    WordValueMonoid,
    canonical_embedding,
    parse_word_value,
    v4_monoid,
)
from .zigzag import (
    FACTOR_CAP,
    SEARCH_NODE_CAP,
    Digraph,
    FactorMap,
    bounded_cuts,
    distance_space,
    embed_into_zigzag_product,
    embedding_violation,
    macneille_bounded,
    product_retract_violation,
    values_in_macneille,
    zigzag_fixed_point_demo,
    zz_generators,
    zz_member,
)

CHECK_PROPERTIES = (
    "axioms",
    "hyperconvex",
    "bounded",
    "macneille-bounded",
    "lattice",
    "normal",
    "macneille",
)


# ------------------------------------------------------------- loading


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key raises ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {key!r}")
    return obj


def _load_json(path: str) -> Any:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error in {path}: {exc.msg} (line {exc.lineno} "
            f"column {exc.colno})"
        ) from None
    # too deep, not UTF-8, a long int or a duplicate key
    except (RecursionError, ValueError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from None


def _sniff(doc: Any, path: str) -> str:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    for field, kind in (
        ("kind", "demo"),
        ("vertices", "digraph"),
        ("covers", "poset"),
        ("relations", "relsys"),
        ("dist", "vspace"),
    ):
        if field in doc:
            return kind
    raise InputError(
        f"{path}: unrecognized input; expected one of the fields "
        "'kind' (demo), 'vertices' (digraph), 'covers' (poset), "
        "'relations' (relational system), 'dist' (space)"
    )


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected a JSON object")
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a JSON array")
    return value


def _name(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a name (a string), got {value!r}")
    return value


def _names(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a list of names")
    for i, name in enumerate(value):
        if not isinstance(name, str):  # the path is formatted only on failure
            _name(name, f"{path}[{i}]")
    return value


def _pair(value: Any, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"{path}: expected a pair of names, got {value!r}")
    return tuple(_names(value, path))


def _pairs(value: Any, path: str) -> list[tuple]:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a list of pairs")
    return [_pair(pair, f"{path}[{i}]") for i, pair in enumerate(value)]


def _word(value: Any, path: str) -> str:
    if not isinstance(value, str) or value.strip(words.ALPHABET):
        raise InputError(f"{path}: expected a word over +/-, got {value!r}")
    return value


def _words(value: Any, path: str) -> list[str]:
    return [_word(w, f"{path}[{i}]") for i, w in enumerate(_list(value, path))]


def _flag(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{path}: expected true or false, got {value!r}")
    return value


def _table(value: Any, path: str, check=_name) -> dict:
    """A JSON object with each value passed through ``check``, which by
    default requires a name."""
    return {key: check(v, f"{path}.{key}") for key, v in _object(value, path).items()}


def _load_digraph(doc: dict, path: str = "") -> Digraph:
    return Digraph.make(
        _names(doc.get("vertices", []), f"{path}vertices"),
        _pairs(doc.get("arcs", []), f"{path}arcs"),
        _flag(doc.get("add_loops", False), f"{path}add_loops"),
    )


def _split_pair_key(key: str) -> tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2:
        raise InputError(f"bad distance key {key!r}: expected 'x,y'")
    return parts[0], parts[1]


def _pair_table(value: Any, path: str, check=_name) -> dict[tuple[str, str], Any]:
    """A ``_table`` keyed by "x,y"."""
    return {_split_pair_key(k): v for k, v in _table(value, path, check).items()}


def _word_value(value: Any, path: str) -> words.UpSet:
    if not isinstance(value, str):
        raise InputError(
            f"{path}: expected a string holding a JSON array of words, "
            f"got {value!r}"
        )
    return parse_word_value(value)


def _load_vspace(doc: dict, monoid_override: str | None) -> VSpace:
    monoid_spec = monoid_override if monoid_override is not None else doc.get("monoid")
    if monoid_spec is None:
        raise InputError("the space file needs a 'monoid' field")
    dist = doc.get("dist", {})
    if monoid_spec == "V4":
        monoid = v4_monoid()
        dist = _pair_table(dist, "dist")
    elif monoid_spec == "word-algebra":
        dist = _pair_table(dist, "dist", _word_value)
        bound = doc.get("oplus_length_bound")
        if bound is not None and (type(bound) is not int or bound < 0):
            raise InputError(
                "oplus_length_bound: expected a non-negative integer, "
                f"got {bound!r}"
            )
        monoid = WordValueMonoid.over(dist.values(), bound)
    elif isinstance(monoid_spec, dict):
        monoid = TableMonoid.make(
            _names(monoid_spec.get("carrier", []), "monoid.carrier"),
            _pairs(monoid_spec.get("leq", []), "monoid.leq"),
            _pair_table(monoid_spec.get("oplus", {}), "monoid.oplus"),
            _table(monoid_spec.get("involution", {}), "monoid.involution"),
        )
        dist = _pair_table(dist, "dist")
    else:
        raise InputError(
            f"unknown monoid {monoid_spec!r}: expected 'V4', 'word-algebra', or "
            "an inline table"
        )
    return VSpace.make(_names(doc.get("elements", []), "elements"), monoid, dist)


class _Inputs:
    """The input document of one invocation, read and sniffed once.

    Each view is built on first use and kept for the rest of the
    invocation, so a command and the verifier of its certificate read
    every field by the same rules.  ``args`` supplies ``--monoid``,
    ``--maxlen``, ``--cap`` and ``--maps``.
    """

    def __init__(self, path: str, args):
        self.path = path
        self.args = args
        self.doc = _load_json(path)
        self.kind = _sniff(self.doc, path)

    @cached_property
    def digraph(self) -> Digraph:
        return _load_digraph(self.doc)

    @cached_property
    def poset(self) -> Poset:
        if self.kind == "poset":
            return Poset.make(
                _names(self.doc.get("elements", []), "elements"),
                _pairs(self.doc.get("covers", []), "covers"),
            )
        if self.kind == "vspace":
            return vspace_to_poset(self.space)
        raise InputError("this command needs a poset (or a four-valued space)")

    @cached_property
    def space(self) -> VSpace:
        if self.kind == "vspace":
            return _load_vspace(self.doc, self.args.monoid)
        if self.kind == "poset":
            return poset_to_vspace(self.poset)
        if self.kind == "digraph":
            return distance_space(self.digraph, self.args.maxlen)
        raise InputError(
            "this input carries no distance; supply a space, poset, or digraph"
        )

    @cached_property
    def relsys(self) -> RelSys:
        if self.kind == "relsys":
            relations = _object(self.doc.get("relations", {}), "relations")
            return RelSys.make(
                _names(self.doc.get("elements", []), "elements"),
                {
                    name: _pairs(pairs, f"relations.{name}")
                    for name, pairs in relations.items()
                },
            )
        return self.space.to_relsys()

    @cached_property
    def maps(self) -> list[dict[str, str]]:
        """The self-maps of the map files named by ``--maps``."""
        return [_table(_load_json(p), p) for p in self.args.maps]

    @cached_property
    def demo(self) -> SimpleNamespace:
        """The checked fields of a demo: ``kind``, ``maps`` and
        ``retraction``, with ``orientations`` and ``sub`` for the
        fence-retract kind, ``graph`` and ``factor_words`` for the
        zigzag kind.  ``retraction`` is None only on the zigzag direct
        route."""
        doc = self.doc
        kind = doc.get("kind")
        if kind not in ("fence-retract", "zigzag"):
            raise InputError(
                f"unknown demo kind {kind!r}: expected 'fence-retract' or 'zigzag'"
            )
        maps = [
            _table(m, f"maps[{i}]")
            for i, m in enumerate(_list(doc.get("maps", []), "maps"))
        ]
        retraction = doc.get("retraction")
        if retraction is not None:
            retraction = _table(retraction, "retraction")
        if kind == "fence-retract":
            return SimpleNamespace(
                kind=kind,
                maps=maps,
                retraction=retraction or {},
                orientations=_words(doc.get("orientations", []), "orientations"),
                sub=_names(doc.get("sub", []), "sub"),
            )
        factor_words = doc.get("factor_words")
        return SimpleNamespace(
            kind=kind,
            maps=maps,
            retraction=retraction,
            graph=_load_digraph(_object(doc.get("graph"), "graph"), "graph."),
            factor_words=None
            if factor_words is None
            else _words(factor_words, "factor_words"),
        )


# --------------------------------------------------------- serialization


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, (tuple, list)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonify(x) for x in obj)
    if isinstance(obj, words.UpSet):
        return list(obj.generators)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def _serialize_value(monoid, v) -> Any:
    if isinstance(monoid, WordValueMonoid):
        return list(v.generators)
    return monoid.name(v)


def _base_payload(command: str, args, inputs: _Inputs) -> dict:
    return {
        "command": command,
        "input": inputs.path,
        "options": {
            "cap": args.cap,
            "maxlen": args.maxlen,
            "monoid": args.monoid,
            "seed": args.seed,
        },
    }


def _emit(payload: dict, args) -> None:
    # Each payload is a tree of fresh dicts and lists with no cycles, so
    # the encoder's circular-reference markers are pure overhead.
    text = json.dumps(payload, indent=2, sort_keys=True, check_circular=False) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- check


def _closed_space(inputs: _Inputs, args) -> VSpace:
    """For the checks that quantify over values: closed under ``--cap``."""
    return inputs.space.closed(CARRIER_CAP if args.cap is None else args.cap)


def _run_check(inputs: _Inputs, args):
    prop = args.property
    payload = _base_payload("check", args, inputs)
    payload["property"] = prop
    if prop == "axioms":
        ok, witness = inputs.space.check_axioms()
        payload["verdict"] = ok
        payload["witness"] = _jsonify(witness)
    elif prop == "hyperconvex":
        ok, witness = _closed_space(inputs, args).is_hyperconvex()
        payload["verdict"] = ok
        payload["witness"] = _jsonify(witness)
    elif prop == "bounded":
        space = _closed_space(inputs, args)
        payload["verdict"] = space.is_bounded()
        payload["diameter"] = _serialize_value(space.monoid, space.diameter())
    elif prop == "macneille-bounded":
        try:
            cert = macneille_bounded(_closed_space(inputs, args))
        except HypothesisError as exc:
            payload["verdict"] = False
            payload["reason"] = str(exc)
        else:
            payload["verdict"] = True
            payload["diameter"] = list(cert.diameter.generators)
            payload["witnesses"] = _jsonify(cert.witnesses)
    elif prop == "lattice":
        p = inputs.poset
        verdict = p.is_complete_lattice()
        payload["verdict"] = verdict
        # A finite non-lattice lacks a bottom, so (empty, all) is a gap,
        # or some pair lacks a join: the first gap has at most two lower
        # elements, and the enumeration meets it within 1 + n + n(n-1)/2
        # subsets.
        payload["witness"] = None if verdict else _gap_json(next(_gaps(p)))
    elif prop == "normal":
        ok, witness = inputs.relsys.has_normal_structure()
        payload["verdict"] = ok
        payload["witness"] = None if witness is None else sorted(witness)
    elif prop == "macneille":
        if inputs.kind != "digraph":
            raise InputError("the macneille check applies to digraphs")
        verdict = values_in_macneille(inputs.digraph, args.maxlen)
        payload["verdict"] = "unknown" if verdict is None else verdict
    else:
        raise InputError(
            f"unknown check property {prop!r}; choose from "
            + ", ".join(CHECK_PROPERTIES)
        )
    return payload, inputs.digraph if inputs.kind == "digraph" else None


# -------------------------------------------------------------- distance


def _run_distance(inputs: _Inputs, args):
    if args.src is None or args.dst is None:
        raise InputError("distance needs --from and --to")
    payload = _base_payload("distance", args, inputs)
    payload["from"] = args.src
    payload["to"] = args.dst
    payload["verdict"] = True
    if inputs.kind != "digraph":
        space = inputs.space
        payload["value"] = _serialize_value(
            space.monoid, space.d(args.src, args.dst)
        )
        return payload, None
    node_cap = args.cap if args.cap is not None else SEARCH_NODE_CAP
    d = zz_generators(inputs.digraph, args.src, args.dst, args.maxlen, node_cap)
    payload["generators"] = list(d.value.generators)
    payload["complete"] = d.complete
    return payload, inputs.digraph


# -------------------------------------------------------------- fixpoint


def _run_fixpoint(inputs: _Inputs, args):
    if not args.maps:
        raise InputError("fixpoint needs at least one --maps file")
    mappings = inputs.maps
    payload = _base_payload("fixpoint", args, inputs)
    payload["maps"] = list(args.maps)
    if inputs.kind == "poset":
        fixed, olr = _tarski(inputs.poset, mappings)
    else:
        system = inputs.relsys
        selfmaps = [SelfMap.make(m, system.elements) for m in mappings]
        fixed, olr = system.common_fixed_points(selfmaps)
    payload["fixed_points"] = sorted(fixed)
    payload["retract_table"] = olr.table_dict or {}
    payload["verdict"] = True
    return payload, None


# ----------------------------------------------------------------- embed


def _run_embed(inputs: _Inputs, args):
    payload = _base_payload("embed", args, inputs)
    payload["verdict"] = True
    if inputs.kind != "digraph":
        space = inputs.space
        canonical_embedding(space)  # raises if the profiles were not isometric
        payload["coordinates"] = {
            x: {
                z: _serialize_value(space.monoid, space.d(z, x))
                for z in space.elements
            }
            for x in space.elements
        }
        return payload, None
    g = inputs.digraph
    cap = args.cap if args.cap is not None else FACTOR_CAP
    embedding = embed_into_zigzag_product(g, args.maxlen, cap)
    payload["factors"] = [
        {
            "pair": list(f.pair),
            "word": f.word,
            "image": {v: j for v, j in f.image},
        }
        for f in embedding.factors
    ]
    payload["coordinates"] = {v: list(embedding.coordinates(v)) for v in g.vertices}
    payload["distances"] = {
        f"{x},{y}": list(value.generators)
        for (x, y), value in embedding.distances.items()
    }
    return payload, embedding


# ------------------------------------------------------------------ gaps


def _gap_json(gap: Gap) -> dict:
    return {"lower": list(gap.lower), "upper": list(gap.upper)}


def _gap_entries(p: Poset, args) -> list[dict]:
    """Each canonical gap of the poset with its least contained gap."""
    return [
        dict(_gap_json(gap), minimal=_gap_json(_least_subgap(p, gap)))
        for gap in find_gaps(p, GAP_CAP if args.cap is None else args.cap)
    ]


def _run_gaps(inputs: _Inputs, args):
    payload = _base_payload("gaps", args, inputs)
    payload["gaps"] = _gap_entries(inputs.poset, args)
    # a subset without a join gives a canonical gap, so no gap means
    # every subset has a join: a complete lattice
    payload["complete_lattice"] = not payload["gaps"]
    payload["verdict"] = True
    return payload, None


# ----------------------------------------------------------------- holes


def _hole_entries(p: Poset, args) -> list[dict]:
    """The radius map of each canonical gap, tested to be a hole of the
    poset's space."""
    space = poset_to_vspace(p)
    holes = []
    for gap in find_gaps(p, GAP_CAP if args.cap is None else args.cap):
        radii = _gap_radii(p, gap.lower, gap.upper)
        if not space._is_hole_at(radii.values()):
            raise InternalCheckError(f"the radius map of the gap {gap} is not a hole")
        holes.append({"gap": _gap_json(gap), "radii": radii})
    return holes


def _run_holes(inputs: _Inputs, args):
    payload = _base_payload("holes", args, inputs)
    payload["holes"] = _hole_entries(inputs.poset, args)
    payload["verdict"] = True
    return payload, None


# ------------------------------------------------------------------ demo


def _run_demo(inputs: _Inputs, args):
    demo = inputs.demo
    payload = _base_payload("demo", args, inputs)
    payload["kind"] = demo.kind
    payload["verdict"] = True
    if demo.kind == "fence-retract":
        fence = fence_product_retract_demo(
            demo.orientations, demo.sub, demo.retraction, demo.maps
        )
        payload["fixed_points"] = list(fence.fixed_points)
        payload["retract_table"] = fence.certificate.table_dict or {}
        payload["product_size"] = len(fence.product.elements)
        return payload, None
    zigzag = zigzag_fixed_point_demo(
        demo.graph,
        demo.maps,
        factor_words=demo.factor_words,
        retraction=demo.retraction,
        maxlen=args.maxlen,
    )
    payload["route"] = zigzag.route
    payload["fixed_points"] = list(zigzag.fixed_points)
    payload["retract_table"] = zigzag.certificate.table_dict or {}
    payload["bounded"] = (
        None
        if zigzag.bounded is None
        else {
            "diameter": list(zigzag.bounded.diameter.generators),
            "witnesses": _jsonify(zigzag.bounded.witnesses),
        }
    )
    return payload, demo.graph


# ---------------------------------------------------------------- verify


class _Mismatch(Exception):
    pass


def _expect(condition: bool, where: str) -> None:
    if not condition:
        raise _Mismatch(where)


def _expect_field(cert: dict, key: str, fresh: Any) -> None:
    """The certificate's field ``key`` is what the command gives, of the
    same JSON type (``1`` is not ``true``)."""
    got = _cert_field(cert, key)
    _expect(
        type(got) is type(fresh) and got == fresh,
        f"{key!r}: certificate has {got!r}, input gives {fresh!r}",
    )


def _cert_field(cert: dict, key: str, where: str = "", check=None) -> Any:
    """The field ``key`` of the certificate object at the JSON path
    ``where`` (the top level when empty), passed through ``check(value,
    path)`` when given, such as ``_object`` or ``_names``."""
    path = f"{where}.{key}" if where else key
    if key not in cert:
        raise InputError(f"certificate is missing the field {path!r}")
    return cert[key] if check is None else check(cert[key], path)


def _args_from_cert(cert: dict) -> argparse.Namespace:
    options = _object(cert.get("options") or {}, "options")
    for key in ("cap", "maxlen"):
        if options.get(key) is not None and type(options[key]) is not int:
            raise InputError(f"options.{key}: expected an integer or null")
    return argparse.Namespace(
        cap=options.get("cap"),
        maxlen=options.get("maxlen"),
        monoid=options.get("monoid"),
        seed=options.get("seed"),
        property=cert.get("property"),
        src=cert.get("from"),
        dst=cert.get("to"),
        maps=cert.get("maps"),
    )


def _recompute(cert: dict, inputs: _Inputs, args) -> None:
    """Compute a certificate without witnesses again with the command's
    own handler, and compare it with ``cert`` field by field."""
    fresh, _ = _HANDLERS[cert["command"]](inputs, args)
    for key in sorted(set(fresh) | set(cert)):
        if key in ("command", "input", "options"):
            continue
        if fresh.get(key) != cert.get(key):
            raise _Mismatch(
                f"{key!r}: certificate has {cert.get(key)!r}, input gives "
                f"{fresh.get(key)!r}"
            )


def _verify_generator_list(g: Digraph, x: str, y: str, gens: list) -> None:
    for w in gens:
        _expect(
            zz_member(g, x, y, w), f"generator {w!r} of d({x!r},{y!r}): not a member"
        )
        for i in range(len(w)):
            shorter = w[:i] + w[i + 1 :]
            _expect(
                not zz_member(g, x, y, shorter),
                f"generator {w!r} of d({x!r},{y!r}): deletion {shorter!r} "
                "is already a member",
            )
    for w in gens:
        for v in gens:
            _expect(
                w == v or not words.is_subword(w, v),
                f"generators of d({x!r},{y!r}) are not an antichain",
            )


def _verify_distance(cert: dict, inputs: _Inputs, args) -> None:
    """A digraph's generators are checked one by one, then every
    certificate is recomputed: a fresh search under the certificate's
    options must give the same list and the same completeness."""
    x = _cert_field(cert, "from", check=_name)
    y = _cert_field(cert, "to", check=_name)
    if inputs.kind == "digraph":
        gens = _cert_field(cert, "generators", check=_names)
        _verify_generator_list(inputs.digraph, x, y, gens)
    _recompute(cert, inputs, args)


def _verify_fixed_set(system: RelSys, mappings: list, cert: dict) -> None:
    """The maps are commuting endomorphisms, the certificate lists
    exactly their common fixed points, and its retract table is the
    one-local-retract table of that set."""
    fixed = _cert_field(cert, "fixed_points", check=_names)
    selfmaps = [SelfMap.make(m, system.elements) for m in mappings]
    try:
        expected, olr = system.fixed_set(selfmaps)
    except InputError as exc:
        raise _Mismatch(str(exc)) from None
    _expect(
        fixed == sorted(expected),
        f"fixed points: certificate has {fixed}, the maps fix {sorted(expected)}",
    )
    _expect(olr.ok, f"retract table: no valid anchor exists for {olr.violator!r}")
    table = _cert_field(cert, "retract_table", check=_object)
    fresh = olr.table_dict
    for x in sorted(set(table) | set(fresh)):
        _expect(
            table.get(x) == fresh.get(x),
            f"retract table: anchor for {x!r} should be {fresh.get(x)!r}, "
            f"certificate has {table.get(x)!r}",
        )


def _verify_fixpoint(cert: dict, inputs: _Inputs, args) -> None:
    _expect_field(cert, "verdict", True)
    _cert_field(cert, "maps", check=_names)
    mappings = inputs.maps
    _verify_fixed_set(inputs.relsys, mappings, cert)


def _verify_embed(cert: dict, inputs: _Inputs, args) -> None:
    if inputs.kind != "digraph":
        _recompute(cert, inputs, args)
        return
    _expect_field(cert, "verdict", True)
    g = inputs.digraph
    table = {}
    for key, gens in _cert_field(cert, "distances", check=_object).items():
        x, y = _split_pair_key(key)
        _verify_generator_list(g, x, y, _names(gens, f"distances.{key}"))
        fresh = zz_generators(g, x, y, args.maxlen)
        _expect(fresh.complete, f"distances.{key}: the search is not complete")
        _expect_list(gens, list(fresh.value.generators), f"distances.{key}")
        table[x, y] = words.UpSet.from_words(gens)
    factors = []
    for i, f in enumerate(_cert_field(cert, "factors", check=_list)):
        where = f"factors[{i}]"
        f = _object(f, where)
        pair = _cert_field(f, "pair", where, _pair)
        word = _cert_field(f, "word", where, _word)
        image = _cert_field(f, "image", where, _object)
        factors.append(FactorMap(pair, word, tuple(sorted(image.items()))))
    violation = embedding_violation(g.vertices, table, factors)
    _expect(violation is None, violation)
    coordinates = _cert_field(cert, "coordinates", check=_object)
    fresh = {v: [f.as_dict[v] for f in factors] for v in g.vertices}
    for v in sorted(set(coordinates) | set(fresh)):
        _expect(
            coordinates.get(v) == fresh.get(v),
            f"coordinates.{v}: certificate has {coordinates.get(v)!r}, the "
            f"factor images give {fresh.get(v)!r}",
        )


def _gap_parts(p: Poset, gap: dict, where: str) -> tuple[list, list, int, int]:
    """The lower and upper parts of a gap object of a certificate, as
    names and as masks over the poset."""
    lower = _cert_field(gap, "lower", where, _names)
    upper = _cert_field(gap, "upper", where, _names)
    return lower, upper, p._mask(lower), p._mask(upper)


def _expect_list(listed: list, fresh: list, where: str) -> None:
    """The listed entries are exactly the fresh ones, in order."""
    for i, (got, want) in enumerate(zip(listed, fresh)):
        _expect(
            got == want, f"{where}[{i}]: certificate has {got!r}, input gives {want!r}"
        )
    _expect(
        len(listed) == len(fresh),
        f"{where}: certificate lists {len(listed)} entries, input gives {len(fresh)}",
    )


def _verify_gaps(cert: dict, inputs: _Inputs, args) -> None:
    # here and in _verify_holes, the listed entries are compared with the
    # command's own enumeration, and checked one by one only to word a
    # mismatch; a message is formatted only when its check fails
    _expect_field(cert, "verdict", True)
    p = inputs.poset
    listed = _cert_field(cert, "gaps", check=_list)
    fresh = _gap_entries(p, args)
    if listed != fresh:
        _check_gap_entries(p, listed)
        _expect_list(listed, fresh, "gaps")
    _expect(
        _cert_field(cert, "complete_lattice") == (not fresh),
        f"complete_lattice: certificate has {cert.get('complete_lattice')!r}, "
        f"input gives {not fresh!r}",
    )


def _check_gap_entries(p: Poset, listed: list) -> None:
    """Each listed gap and its minimal pair are gaps, the pair inside it."""
    for i, entry in enumerate(listed):
        where = f"gaps[{i}]"
        lower, upper, a, b = _gap_parts(p, _object(entry, where), where)
        if not _is_gap_mask(p, a, b):
            raise _Mismatch(f"listed pair ({lower}, {upper}) is not a gap")
        minimal = _cert_field(entry, "minimal", where, _object)
        _, _, min_a, min_b = _gap_parts(p, minimal, f"{where}.minimal")
        if not _is_gap_mask(p, min_a, min_b):
            raise _Mismatch(f"listed minimal pair of ({lower}, {upper}) is not a gap")
        if min_a & ~a or min_b & ~b:
            raise _Mismatch(
                f"minimal pair of ({lower}, {upper}) is not contained in it"
            )


def _verify_holes(cert: dict, inputs: _Inputs, args) -> None:
    _expect_field(cert, "verdict", True)
    p = inputs.poset
    listed = _cert_field(cert, "holes", check=_list)
    fresh = _hole_entries(p, args)
    if listed != fresh:
        _check_hole_entries(p, listed)
        _expect_list(listed, fresh, "holes")


def _check_hole_entries(p: Poset, listed: list) -> None:
    """Each listed gap is a gap, and its radius map a hole and its map."""
    space = poset_to_vspace(p)
    for i, entry in enumerate(listed):
        where = f"holes[{i}]"
        entry = _object(entry, where)
        gap = _cert_field(entry, "gap", where, _object)
        lower, upper, a, b = _gap_parts(p, gap, f"{where}.gap")
        if not _is_gap_mask(p, a, b):
            raise _Mismatch(f"listed pair ({lower}, {upper}) is not a gap")
        radii = RadiusMap.make(
            _cert_field(entry, "radii", where, _object), space.elements
        )
        if not space.is_hole(radii):
            raise _Mismatch(f"the radius map for ({lower}, {upper}) is not a hole")
        fresh = _gap_radii(p, lower, upper)
        if radii.as_dict != fresh:
            raise _Mismatch(
                f"{where}.radii: certificate has {radii.as_dict}, the gap "
                f"({lower}, {upper}) gives {fresh}"
            )


def _verify_demo(cert: dict, inputs: _Inputs, args) -> None:
    kind = _cert_field(cert, "kind")
    demo = inputs.demo
    _expect(
        kind == demo.kind,
        f"kind: certificate has {kind!r}, input gives {demo.kind!r}",
    )
    _expect_field(cert, "verdict", True)
    if demo.kind == "fence-retract":
        product = poset_product([make_fence(o) for o in demo.orientations])
        violation = retraction_violation(
            product.elements, product.lt, demo.sub, demo.retraction
        )
        _expect(violation is None, violation)
        _expect_field(cert, "product_size", len(product.elements))
        system = poset_to_vspace(product.restrict(demo.sub)).to_relsys()
        _verify_fixed_set(system, demo.maps, cert)
        return
    g = demo.graph
    _expect_field(cert, "route", "direct" if demo.factor_words is None else "retract")
    if demo.factor_words is not None:
        violation = product_retract_violation(
            g, demo.factor_words, demo.retraction or {}
        )
        _expect(violation is None, violation)
    space = distance_space(g, args.maxlen)
    _verify_fixed_set(space.to_relsys(), demo.maps, cert)
    bounded = cert.get("bounded")
    _expect(
        (bounded is None) == (demo.factor_words is not None),
        "bounded: the direct route certifies boundedness, the retract route not",
    )
    if bounded is not None:
        bounded = _object(bounded, "bounded")
        listed = _cert_field(bounded, "diameter", "bounded", _names)
        diameter = words.UpSet.from_words(listed)
        fresh = space.diameter()
        _expect(
            diameter == fresh,
            f"diameter: certificate has {listed}, input "
            f"gives {list(fresh.generators)}",
        )
        witnessed = []
        pairs = _cert_field(bounded, "witnesses", "bounded", _pairs)
        for i, (name, witness) in enumerate(pairs):
            witness = _word(witness, f"bounded.witnesses[{i}][1]")
            value = parse_word_value(name)
            witnessed.append(space.monoid.name(value))
            _expect(
                not value.member(witness),
                f"bounded witness {witness!r} already lies in {name}",
            )
            _expect(
                value.member(witness + words.involute_word(witness)),
                f"bounded witness {witness!r} does not certify {name}",
            )
            _expect(
                value.leq(diameter),
                f"bounded value {name} is not below the diameter",
            )
        monoid = space.closed().monoid
        cuts = map(monoid.name, bounded_cuts(monoid, diameter))
        _expect_list(sorted(witnessed), sorted(cuts), "bounded witnesses")


_VERIFIERS = {
    "check": _recompute,
    "distance": _verify_distance,
    "fixpoint": _verify_fixpoint,
    "embed": _verify_embed,
    "gaps": _verify_gaps,
    "holes": _verify_holes,
    "demo": _verify_demo,
}


def _run_verify(args) -> dict:
    cert = _load_json(args.cert)
    if not isinstance(cert, dict):
        raise InputError(f"{args.cert}: expected a certificate object")
    command = _cert_field(cert, "command", check=_name)
    verifier = _VERIFIERS.get(command)
    if verifier is None:
        raise InputError(f"cannot verify certificates of command {command!r}")
    input_path = args.input if args.input else _cert_field(cert, "input", check=_name)
    if not input_path:
        raise InputError("no input path: pass --input or store it in the cert")
    cert_args = _args_from_cert(cert)
    inputs = _Inputs(input_path, cert_args)
    payload = {
        "command": "verify",
        "target": args.cert,
        "target_command": command,
        "input": input_path,
    }
    try:
        verifier(cert, inputs, cert_args)
    except _Mismatch as mismatch:
        payload["verdict"] = False
        payload["detail"] = f"mismatch at {mismatch}"
    else:
        payload["verdict"] = True
        payload["detail"] = None
    return payload


# ------------------------------------------------------------------ main


#: The commands other than verify.  Each returns the certificate and
#: the object whose ``to_dot`` draws it for ``--dot``, or None.
_HANDLERS = {
    "check": _run_check,
    "distance": _run_distance,
    "fixpoint": _run_fixpoint,
    "embed": _run_embed,
    "gaps": _run_gaps,
    "holes": _run_holes,
    "demo": _run_demo,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Parsing does not change the parser, and the one mutable default,
    the empty ``--maps`` list, is only read (``list(args.maps)``), so
    every ``main`` call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="relmetric",
        description="Analyses and certificates for monoid-valued metric "
        "spaces, posets, relational systems, and zigzag digraphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        "--graph",
        dest="input",
        help="path to the JSON input document",
    )
    common.add_argument(
        "--monoid",
        help="override the monoid id of a space file (V4 or word-algebra)",
    )
    common.add_argument(
        "--maxlen", type=int, help="word-length budget for zigzag distances"
    )
    common.add_argument(
        "--cap", type=int, help="override the command's primary size cap"
    )
    common.add_argument(
        "--seed",
        type=int,
        help="recorded in the certificate for seeded reproducibility",
    )
    common.add_argument("--out", help="write the certificate to this file")
    common.add_argument("--dot", help="write a DOT drawing to this file")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", parents=[common], help="check a property of the input"
    )
    check.add_argument("property", help=", ".join(CHECK_PROPERTIES))
    distance = sub.add_parser(
        "distance", parents=[common], help="distance between two points"
    )
    distance.add_argument("--from", dest="src", help="source point")
    distance.add_argument("--to", dest="dst", help="target point")
    fixpoint = sub.add_parser(
        "fixpoint", parents=[common], help="common fixed points of maps"
    )
    fixpoint.add_argument(
        "--maps", nargs="+", default=[], help="JSON self-map files"
    )
    sub.add_parser(
        "embed", parents=[common], help="isometric embedding certificate"
    )
    sub.add_parser("gaps", parents=[common], help="gaps of a poset")
    sub.add_parser(
        "holes", parents=[common], help="holes read off the gaps of a poset"
    )
    sub.add_parser(
        "demo", parents=[common], help="verified fixed-point demonstrations"
    )
    verify = sub.add_parser(
        "verify", parents=[common], help="re-check a certificate's witnesses"
    )
    verify.add_argument("--cert", required=True, help="certificate file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify" and not args.input:
        print("error: --input is required", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            payload, drawing = _run_verify(args), None
        else:
            inputs = _Inputs(args.input, args)
            payload, drawing = _HANDLERS[args.command](inputs, args)
        if args.dot:
            if drawing is None:
                raise InputError(
                    "--dot is not available for this command and input"
                )
            try:
                Path(args.dot).write_text(drawing.to_dot())
            except OSError as exc:
                raise InputError(f"cannot write {args.dot}: {exc}") from None
        _emit(payload, args)
    except RelmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
