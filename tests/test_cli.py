"""Command-line tests.

Every command is driven through ``main`` with files in a temp
directory; certificates are parsed back and, where a verifier exists,
round-tripped through ``verify``.  Frozen outputs (generator lists,
diameters, witnesses) were derived by hand on two- and three-point
instances small enough to enumerate.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest

import relmetric
from relmetric import cli, vmetric, zigzag
from relmetric.cli import main
from relmetric.errors import InternalCheckError
from relmetric.vmetric import VSpace
from test_poset import random_poset, set_find_gaps, set_sup, set_upper_bounds

VEE_GRAPH = {
    "vertices": ["0", "1", "2"],
    "arcs": [["0", "1"], ["2", "1"]],
    "add_loops": True,
}
CYCLE_GRAPH = {
    "vertices": ["a", "b", "c"],
    "arcs": [["a", "b"], ["b", "c"], ["c", "a"]],
    "add_loops": True,
}
CHAIN_POSET = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
VEE_POSET = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["c", "b"]]}
V4_SPACE = {
    "elements": ["x", "y"],
    "monoid": "V4",
    "dist": {"x,x": "0", "x,y": "+", "y,x": "-", "y,y": "0"},
}
# the two-point space over the inline two-value chain 0 <= 1
TABLE_SPACE = {
    "elements": ["x", "y"],
    "monoid": {
        "carrier": ["0", "1"],
        "leq": [["0", "1"]],
        "oplus": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},
        "involution": {"0": "0", "1": "1"},
    },
    "dist": {"x,x": "0", "x,y": "1", "y,x": "1", "y,y": "0"},
}
FENCE_VEE_DEMO = {
    "kind": "fence-retract",
    "orientations": ["+-", "+"],
    "sub": ["v0|v0", "v1|v0", "v2|v0"],
    "retraction": {f"v{i}|v{j}": f"v{i}|v0" for i in range(3) for j in range(2)},
    "maps": [{"v0|v0": "v0|v0", "v1|v0": "v1|v0", "v2|v0": "v1|v0"}],
}


def replaced(doc, path: tuple, value):
    """A copy of the JSON document with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to_file(tmp_path: Path, argv: list[str], name: str = "cert.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload, str(out)


def verify(tmp_path: Path, cert_path: str, **kwargs):
    out = tmp_path / "verify-out.json"
    argv = ["verify", "--cert", cert_path, "--out", str(out)]
    for key, value in kwargs.items():
        argv += [f"--{key}", value]
    code = main(argv)
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


# ----------------------------------------------------------------- check


def test_check_axioms_on_digraph(tmp_path, capsys):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    assert main(["check", "axioms", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is True
    assert payload["witness"] is None
    assert payload["command"] == "check"
    assert payload["options"] == {
        "cap": None,
        "maxlen": None,
        "monoid": None,
        "seed": None,
    }


def test_check_hyperconvex_on_digraph(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "hyperconvex", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is True


def test_check_macneille_bounded_negative_is_a_verdict(tmp_path):
    path = write(tmp_path, "g.json", CYCLE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "macneille-bounded", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is False
    assert "cut" in payload["reason"]


def test_check_macneille_bounded_positive_lists_witnesses(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "macneille-bounded", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["diameter"] == ["+-"]
    assert all(len(w) == 2 for w in payload["witnesses"])


def test_check_lattice_reports_a_gap_witness(tmp_path):
    path = write(tmp_path, "p.json", VEE_POSET)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "lattice", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is False
    assert payload["witness"] == {"lower": [], "upper": ["a", "b", "c"]}


def test_check_lattice_witness_is_the_first_oracle_gap(tmp_path):
    rng = random.Random(89)
    witnesses = 0
    for n in (3, 4, 5, 6):
        for _ in range(6):
            p = random_poset(rng, n)
            doc = {"elements": list(p.elements), "covers": sorted(p.lt)}
            path = write(tmp_path, "p.json", doc)
            code, payload, _ = run_to_file(tmp_path, ["check", "lattice", "--input", path])
            gap = next(iter(set_find_gaps(p)), None)
            first = None if gap is None else {"lower": list(gap.lower), "upper": list(gap.upper)}
            assert code == 0
            assert payload["witness"] == first
            witnesses += gap is not None
    assert witnesses >= 10


def first_oracle_gap(p) -> dict:
    """The first (A, upper bounds of A) with no join for A, in the gap
    enumeration order, by set scans."""
    for size in range(len(p.elements) + 1):
        for combo in combinations(p.elements, size):
            if set_sup(p, combo) is None:
                upper = set_upper_bounds(p, combo)
                return {"lower": list(combo), "upper": list(upper)}
    return None


def test_check_lattice_witness_on_larger_posets_ignores_the_cap(tmp_path):
    rng = random.Random(97)
    seen = set()
    for n in range(9, 15):
        for _ in range(3):
            p = random_poset(rng, n)
            gap = first_oracle_gap(p)
            if gap is None:
                continue
            seen.add(n)
            doc = {"elements": list(p.elements), "covers": sorted(p.lt)}
            path = write(tmp_path, "p.json", doc)
            for cap in ([], ["--cap", "3"]):
                argv = ["check", "lattice", "--input", path, *cap]
                code, payload, cert = run_to_file(tmp_path, argv)
                assert code == 0 and payload["verdict"] is False
                assert payload["witness"] == gap, (n, cap)
                vcode, vout = verify(tmp_path, cert)
                assert vcode == 0 and vout["verdict"] is True
    assert seen == set(range(9, 15))


def test_check_lattice_positive_on_chain(tmp_path):
    path = write(tmp_path, "p.json", CHAIN_POSET)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "lattice", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["witness"] is None


def test_check_normal_accepts_relsys_input(tmp_path):
    # The symmetric two-point system is equally centered on {x, y}, so
    # the honest verdict here is negative, with that very witness.
    doc = {
        "elements": ["x", "y"],
        "relations": {
            "E": [["x", "x"], ["y", "y"]],
            "far": [["x", "x"], ["y", "y"], ["x", "y"], ["y", "x"]],
        },
    }
    path = write(tmp_path, "r.json", doc)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "normal", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is False
    assert payload["witness"] == ["x", "y"]


def test_check_normal_on_digraph_space(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "normal", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is True


def test_check_macneille_on_digraph(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "macneille", "--input", path]
    )
    assert code == 0
    assert payload["verdict"] is True


def test_check_unknown_property_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    assert main(["check", "sparkles", "--input", path]) == 2
    assert "unknown check property" in capsys.readouterr().err


# ----------------------------------------------------------- input layer


def test_missing_input_flag(capsys):
    assert main(["check", "axioms"]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["check", "axioms", "--input", str(tmp_path / "no.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [,]}')
    assert main(["check", "axioms", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 200_000,  # nested past the recursion limit
        b"\xff\xfe" + "{}".encode("utf-16-le"),  # not UTF-8
        b'{"vertices": [' + b"9" * 5000 + b"]}",  # over the integer digit limit
    ],
    ids=["deep", "utf16", "long-int"],
)
@pytest.mark.parametrize("entry", ["input", "maps", "cert"])
def test_unparsable_file_is_input_error_naming_it(tmp_path, capsys, content, entry):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    graph = write(tmp_path, "g.json", VEE_GRAPH)
    argv = {
        "input": ["check", "axioms", "--input", str(bad)],
        "maps": ["fixpoint", "--input", graph, "--maps", str(bad)],
        "cert": ["verify", "--cert", str(bad)],
    }[entry]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["input", "maps", "cert"])
def test_duplicate_key_is_input_error_naming_file_and_key(tmp_path, capsys, entry):
    graph = write(tmp_path, "g.json", VEE_GRAPH)
    content = {
        "input": '{"vertices": ["0"], "vertices": ["1"], "arcs": []}',
        "maps": '{"0": "0", "1": "1", "2": "2", "1": "1"}',
        "cert": '{"command": "gaps", "input": "%s", "command": "gaps"}' % graph,
    }[entry]
    bad = tmp_path / "dup.json"
    bad.write_text(content)
    argv = {
        "input": ["check", "axioms", "--input", str(bad)],
        "maps": ["fixpoint", "--input", graph, "--maps", str(bad)],
        "cert": ["verify", "--cert", str(bad)],
    }[entry]
    assert main(argv) == 2
    err = capsys.readouterr().err
    key = {"input": "vertices", "maps": "1", "cert": "command"}[entry]
    assert str(bad) in err and f"duplicate key {key!r}" in err


def test_unrecognized_document_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"stuff": 1})
    assert main(["check", "axioms", "--input", path]) == 2
    assert "unrecognized input" in capsys.readouterr().err


def test_relsys_has_no_distance(tmp_path, capsys):
    doc = {"elements": ["x"], "relations": {"E": [["x", "x"]]}}
    path = write(tmp_path, "r.json", doc)
    assert main(["distance", "--input", path, "--from", "x", "--to", "x"]) == 2
    assert "no distance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, path",
    [
        (
            {"elements": ["a", "b"], "relations": {"r": [["a"], ["b", "b"]]}},
            "relations.r[0]",
        ),
        ({"elements": ["x", "y"], "monoid": "V4", "dist": [["x", "y"]]}, "dist"),
        ({"vertices": [["a"], "b"], "arcs": []}, "vertices[0]"),
        (
            {"elements": ["x"], "monoid": "word-algebra", "dist": {"x,x": [""]}},
            "dist.x,x",
        ),
        (replaced(V4_SPACE, ("dist", "x,x"), [1]), "dist.x,x"),
        (replaced(TABLE_SPACE, ("dist", "x,y"), [1]), "dist.x,y"),
        (
            replaced(TABLE_SPACE, ("monoid", "oplus", "0,0"), ["0"]),
            "monoid.oplus.0,0",
        ),
        (
            replaced(TABLE_SPACE, ("monoid", "involution", "1"), [1]),
            "monoid.involution.1",
        ),
    ],
    ids=[
        "one-element-pair",
        "dist-list",
        "list-vertex",
        "word-array",
        "v4-dist-list",
        "table-dist-list",
        "table-oplus-list",
        "table-involution-list",
    ],
)
def test_malformed_input_names_its_json_path(tmp_path, capsys, doc, path):
    file = write(tmp_path, "bad.json", doc)
    assert main(["check", "normal", "--input", file]) == 2
    assert f"error: {path}: expected" in capsys.readouterr().err


def _word_space(bound):
    return {
        "elements": ["x"],
        "monoid": "word-algebra",
        "dist": {"x,x": '[""]'},
        "oplus_length_bound": bound,
    }


def _retract_demo(factor_words):
    return {
        "kind": "zigzag",
        "graph": {"vertices": ["0", "1"], "arcs": [["0", "1"]], "add_loops": True},
        "factor_words": factor_words,
        "retraction": {"0": "0", "1": "1"},
        "maps": [{"0": "0", "1": "1"}],
    }


CHECK = ["check", "normal"]


@pytest.mark.parametrize(
    "argv, doc, path",
    [
        (CHECK, _word_space("x"), "oplus_length_bound"),
        (CHECK, _word_space([1]), "oplus_length_bound"),
        (CHECK, _word_space(True), "oplus_length_bound"),
        (CHECK, _word_space(1.5), "oplus_length_bound"),
        (CHECK, _word_space(-1), "oplus_length_bound"),
        (CHECK, dict(VEE_GRAPH, add_loops="yes"), "add_loops"),
        (["demo"], _retract_demo("+"), "factor_words"),
        (["demo"], _retract_demo(["+", 1]), "factor_words[1]"),
        (["verify"], _retract_demo("+"), "factor_words"),
        (["verify"], _retract_demo(["x"]), "factor_words[0]"),
    ]
    + [
        (argv, replaced(doc, (field,), value), path)
        for argv in (["demo"], ["verify"])
        for doc, field, value, path in (
            (FENCE_VEE_DEMO, "orientations", 5, "orientations"),
            (FENCE_VEE_DEMO, "orientations", [5], "orientations[0]"),
            (FENCE_VEE_DEMO, "sub", 5, "sub"),
            (_retract_demo(["+"]), "retraction", 5, "retraction"),
            (_retract_demo(["+"]), "maps", 5, "maps"),
            (_retract_demo(["+"]), "maps", [5], "maps[0]"),
        )
    ],
    ids=[
        "bound-string",
        "bound-list",
        "bound-bool",
        "bound-float",
        "bound-negative",
        "loops-string",
        "demo-words-string",
        "demo-word-int",
        "verify-words-string",
        "verify-word-letter",
    ]
    + [
        f"{command}-{name}"
        for command in ("demo", "verify")
        for name in ("orientations", "word", "sub", "retraction", "maps", "map")
    ],
)
def test_malformed_option_value_names_its_json_path(
    tmp_path, capsys, argv, doc, path
):
    if argv == ["verify"]:
        # certify the well-formed document, then verify against the bad one
        good = write(tmp_path, "in.json", _retract_demo(["+"]))
        code, _, cert = run_to_file(tmp_path, ["demo", "--input", good])
        assert code == 0
        argv = ["verify", "--cert", cert]
    else:
        argv = argv + ["--input", str(tmp_path / "in.json")]
    write(tmp_path, "in.json", doc)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {path}: expected" in capsys.readouterr().err


def test_monoid_flag_overrides_missing_field(tmp_path):
    doc = dict(V4_SPACE)
    del doc["monoid"]
    path = write(tmp_path, "s.json", doc)
    assert main(["check", "axioms", "--input", path]) == 2
    code, payload, _ = run_to_file(
        tmp_path, ["check", "axioms", "--input", path, "--monoid", "V4"]
    )
    assert code == 0 and payload["verdict"] is True


def test_inline_table_monoid(tmp_path):
    doc = dict(V4_SPACE)
    carrier = ["0", "+", "-", "1"]

    def vee(a, b):
        if a == b:
            return a
        if a == "0":
            return b
        if b == "0":
            return a
        return "1"

    doc["monoid"] = {
        "carrier": carrier,
        "leq": [["0", "+"], ["0", "-"], ["0", "1"], ["+", "1"], ["-", "1"]],
        "oplus": {f"{a},{b}": vee(a, b) for a in carrier for b in carrier},
        "involution": {"0": "0", "+": "-", "-": "+", "1": "1"},
    }
    path = write(tmp_path, "s.json", doc)
    code, payload, _ = run_to_file(tmp_path, ["check", "axioms", "--input", path])
    assert code == 0 and payload["verdict"] is True


FUZZ_VALUES = (5, "x", [1], {}, None, True)
# one valid document of each kind, and the command run on it
FUZZ_CASES = {
    "digraph-embed": (VEE_GRAPH, ["embed"]),
    "digraph-normal": (VEE_GRAPH, ["check", "normal"]),
    "poset": (CHAIN_POSET, ["holes"]),
    "v4-space": (V4_SPACE, ["distance", "--from", "x", "--to", "y"]),
    "word-space": (_word_space(1), ["check", "axioms"]),
    "table-space": (TABLE_SPACE, ["embed"]),
    "relsys": (
        {"elements": ["x", "y"], "relations": {"E": [["x", "x"], ["y", "y"]]}},
        ["check", "normal"],
    ),
    "fence-demo": (FENCE_VEE_DEMO, ["demo"]),
    "zigzag-demo": (_retract_demo(["+"]), ["demo"]),
    "maps": ({"0": "0", "1": "1", "2": "1"}, None),
}


def field_paths(doc, prefix=()):
    """The path of every field and nested value of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_mutated_documents_never_end_in_a_traceback(tmp_path, capsys, case):
    # Every field and nested value is replaced by each value of
    # FUZZ_VALUES in turn.  The command must run on the mutated document,
    # and verify must check the certificate of the valid document against
    # it, without an exception escaping main or exit 1 (internal error).
    doc, argv = FUZZ_CASES[case]
    document = write(tmp_path, "in.json", doc)
    if argv is None:  # the document is the map file of a fixpoint
        graph = write(tmp_path, "g.json", VEE_GRAPH)
        argv = ["fixpoint", "--input", graph, "--maps", document]
    else:
        argv = argv + ["--input", document]
    cert = str(tmp_path / "cert.json")
    assert main(argv + ["--out", cert]) == 0
    runs = (
        argv + ["--out", str(tmp_path / "out.json")],
        ["verify", "--cert", cert, "--out", str(tmp_path / "out.json")],
    )
    failures = []
    for path in field_paths(doc):
        for value in FUZZ_VALUES:
            write(tmp_path, "in.json", replaced(doc, path, value))
            for run in runs:
                try:
                    code = main(run)
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
                if code not in (0, 2, 3, 4):
                    failures.append((run[0], path, value, code))
    capsys.readouterr()
    assert failures == []


# -------------------------------------------------------------- distance


def test_distance_on_digraph(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, cert = run_to_file(
        tmp_path, ["distance", "--input", path, "--from", "0", "--to", "2"]
    )
    assert code == 0
    assert payload["generators"] == ["+-"]
    assert payload["complete"] is True
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_distance_accepts_graph_alias(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(
        tmp_path, ["distance", "--graph", path, "--from", "0", "--to", "1"]
    )
    assert code == 0
    assert payload["generators"] == ["+"]


def test_distance_on_space_and_poset(tmp_path):
    spath = write(tmp_path, "s.json", V4_SPACE)
    code, payload, cert = run_to_file(
        tmp_path, ["distance", "--input", spath, "--from", "x", "--to", "y"]
    )
    assert code == 0 and payload["value"] == "+"
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True
    ppath = write(tmp_path, "p.json", CHAIN_POSET)
    code, payload, _ = run_to_file(
        tmp_path,
        ["distance", "--input", ppath, "--from", "c", "--to", "a"],
        "p-cert.json",
    )
    assert code == 0 and payload["value"] == "-"


def test_distance_needs_both_endpoints(tmp_path, capsys):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    assert main(["distance", "--input", path, "--from", "0"]) == 2
    assert "--from and --to" in capsys.readouterr().err


def test_distance_unknown_vertex(tmp_path, capsys):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    assert main(["distance", "--input", path, "--from", "0", "--to", "zz"]) == 2
    assert "unknown vertex" in capsys.readouterr().err


def test_distance_maxlen_cap_exit(tmp_path, capsys):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code = main(
        ["check", "axioms", "--input", path, "--maxlen", "1"]
    )
    assert code == 3
    assert "raise maxlen" in capsys.readouterr().err


def test_distance_cert_tamper_detected(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, payload, cert = run_to_file(
        tmp_path, ["distance", "--input", path, "--from", "0", "--to", "2"]
    )
    payload["generators"] = ["+"]
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0
    assert vout["verdict"] is False
    assert "not a member" in vout["detail"]


def test_distance_cert_padded_generator_detected(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, payload, cert = run_to_file(
        tmp_path, ["distance", "--input", path, "--from", "0", "--to", "2"]
    )
    payload["generators"] = ["++-"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "already a member" in vout["detail"]


def test_distance_cert_missing_a_generator_detected(tmp_path):
    # 1 and 2 reach each other by one arc each way: d(1, 2) is ^{+, -}
    doc = {
        "vertices": ["0", "1", "2"],
        "arcs": [["1", "2"], ["2", "1"]],
        "add_loops": True,
    }
    path = write(tmp_path, "g.json", doc)
    _, payload, cert = run_to_file(
        tmp_path, ["distance", "--input", path, "--from", "1", "--to", "2"]
    )
    assert payload["generators"] == ["+", "-"] and payload["complete"] is True
    payload["generators"] = ["+"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert vout["detail"] == (
        "mismatch at 'generators': certificate has ['+'], input gives ['+', '-']"
    )
    # nor can the list claim to come from a truncated search
    payload["complete"] = False
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["detail"] == (
        "mismatch at 'complete': certificate has False, input gives True"
    )


def test_embed_cert_missing_a_generator_detected(tmp_path):
    doc = {
        "vertices": ["0", "1", "2", "3"],
        "arcs": [["0", "1"], ["2", "1"], ["3", "0"], ["3", "1"], ["3", "2"]],
        "add_loops": True,
    }
    path = write(tmp_path, "g.json", doc)
    _, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    assert payload["distances"]["0,2"] == ["+-", "-+"]
    payload["distances"]["0,2"] = ["+-"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert vout["detail"] == (
        "mismatch at distances.0,2: certificate lists 1 entries, input gives 2"
    )


# -------------------------------------------------------------- fixpoint


def test_fixpoint_on_digraph(tmp_path):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    mpath = write(tmp_path, "m.json", {"0": "0", "1": "1", "2": "1"})
    code, payload, cert = run_to_file(
        tmp_path, ["fixpoint", "--input", gpath, "--maps", mpath]
    )
    assert code == 0
    assert payload["fixed_points"] == ["0", "1"]
    assert sorted(payload["retract_table"]) == ["2"]
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_fixpoint_on_poset(tmp_path):
    ppath = write(tmp_path, "p.json", CHAIN_POSET)
    mpath = write(tmp_path, "m.json", {"a": "a", "b": "a", "c": "c"})
    code, payload, cert = run_to_file(
        tmp_path, ["fixpoint", "--input", ppath, "--maps", mpath]
    )
    assert code == 0
    assert payload["fixed_points"] == ["a", "c"]
    assert sorted(payload["retract_table"]) == ["b"]
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_fixpoint_noncommuting_maps(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    m1 = write(tmp_path, "m1.json", {"0": "0", "1": "0", "2": "0"})
    m2 = write(tmp_path, "m2.json", {"0": "2", "1": "2", "2": "2"})
    assert main(["fixpoint", "--input", gpath, "--maps", m1, m2]) == 2
    assert "commute" in capsys.readouterr().err


def test_fixpoint_needs_maps(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    assert main(["fixpoint", "--input", gpath]) == 2
    assert "--maps" in capsys.readouterr().err


def test_shared_parser_keeps_the_empty_maps_default(tmp_path, capsys):
    # The parser is built once per process: a call with --maps must not
    # leave its files behind for the next call without.
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    mpath = write(tmp_path, "m.json", {"0": "0", "1": "1", "2": "1"})
    code, _, _ = run_to_file(tmp_path, ["fixpoint", "--input", gpath, "--maps", mpath])
    assert code == 0
    capsys.readouterr()
    assert main(["fixpoint", "--input", gpath]) == 2
    assert "needs at least one --maps file" in capsys.readouterr().err


def test_fixpoint_cert_tamper_detected(tmp_path):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    mpath = write(tmp_path, "m.json", {"0": "0", "1": "1", "2": "1"})
    _, payload, cert = run_to_file(
        tmp_path, ["fixpoint", "--input", gpath, "--maps", mpath]
    )
    payload["fixed_points"] = ["0", "1", "2"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "fixed points" in vout["detail"]


@pytest.mark.parametrize(
    "edited, detail",
    [
        ({"0": "1", "1": "0", "2": "2"}, "map 1 is not an endomorphism"),
        ({"0": "2", "1": "2", "2": "2"}, "maps 0 and 1 do not commute"),
    ],
    ids=["not-an-endomorphism", "not-commuting"],
)
def test_verify_of_an_edited_map_file_is_a_false_verdict(tmp_path, edited, detail):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    constant = {"0": "0", "1": "0", "2": "0"}
    m1 = write(tmp_path, "m1.json", constant)
    m2 = write(tmp_path, "m2.json", constant)
    code, _, cert = run_to_file(
        tmp_path, ["fixpoint", "--input", gpath, "--maps", m1, m2]
    )
    assert code == 0
    write(tmp_path, "m2.json", edited)
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0
    assert vout["verdict"] is False
    assert vout["detail"] == f"mismatch at {detail}"


def grid_lattice(n: int) -> dict:
    """The product of two n-element chains, as a poset document."""
    els = [f"{i}_{j}" for i in range(n) for j in range(n)]
    covers = [[f"{i}_{j}", f"{i + 1}_{j}"] for i in range(n - 1) for j in range(n)]
    covers += [[f"{i}_{j}", f"{i}_{j + 1}"] for i in range(n) for j in range(n - 1)]
    return {"elements": els, "covers": covers}


def grid_shift(n: int) -> dict:
    """The order-preserving map (i, j) -> (min(i + 1, n - 1), j)."""
    return {f"{i}_{j}": f"{min(i + 1, n - 1)}_{j}" for i in range(n) for j in range(n)}


def test_normal_structure_and_fixpoint_on_the_4x4_grid(tmp_path):
    ppath = write(tmp_path, "p.json", grid_lattice(4))
    code, payload, cert = run_to_file(tmp_path, ["check", "normal", "--input", ppath])
    assert code == 0 and payload["verdict"] is True
    assert verify(tmp_path, cert)[1]["verdict"] is True
    mpath = write(tmp_path, "m.json", grid_shift(4))
    code, payload, cert = run_to_file(
        tmp_path, ["fixpoint", "--input", ppath, "--maps", mpath]
    )
    assert code == 0
    assert payload["fixed_points"] == [f"3_{j}" for j in range(4)]
    assert verify(tmp_path, cert)[1]["verdict"] is True


def test_fixpoint_on_the_10x10_grid_is_fast(tmp_path):
    ppath = write(tmp_path, "p.json", grid_lattice(10))
    mpath = write(tmp_path, "m.json", grid_shift(10))
    start = time.perf_counter()
    code, payload, _ = run_to_file(
        tmp_path, ["fixpoint", "--input", ppath, "--maps", mpath]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["fixed_points"] == [f"9_{j}" for j in range(10)]


def test_ball_intersection_bound_refuses_quickly(tmp_path, capsys):
    # R holds every pair except (i, i+1 mod 13); with its inverse, every
    # nonempty subset of the 13 elements is a ball intersection
    els = [f"{i:02d}" for i in range(13)]
    r = [
        [x, y]
        for i, x in enumerate(els)
        for j, y in enumerate(els)
        if j != (i + 1) % 13
    ]
    doc = {"elements": els, "relations": {"R": r, "S": [[y, x] for x, y in r]}}
    path = write(tmp_path, "r.json", doc)
    start = time.perf_counter()
    assert main(["check", "normal", "--input", path]) == 3
    assert time.perf_counter() - start < 2.0
    assert "more than 4096 ball intersections" in capsys.readouterr().err


def test_cap_does_not_bound_normal_structure_of_a_relsys(tmp_path):
    els = [f"e{i:02d}" for i in range(16)]
    le = [[x, y] for x in els for y in els if x <= y]
    doc = {"elements": els, "relations": {"le": le, "ge": [[y, x] for x, y in le]}}
    path = write(tmp_path, "r.json", doc)
    code, payload, _ = run_to_file(
        tmp_path, ["check", "normal", "--cap", "5", "--input", path]
    )
    assert code == 0 and payload["verdict"] is True


WORD_ALGEBRA_SPACE = {
    "elements": ["a", "b"],
    "monoid": "word-algebra",
    "dist": {"a,a": '[""]', "b,b": '[""]', "a,b": '["+"]', "b,a": '["-"]'},
}


def test_cap_bounds_the_carrier_of_a_word_algebra_space_file(tmp_path):
    """``--cap`` no longer bounds the carrier: the checks over all values
    close it under the fixed 512 values, so ``--cap 3``, and a
    certificate that records it, answer and verify."""
    path = write(tmp_path, "s.json", WORD_ALGEBRA_SPACE)
    argv = ["check", "hyperconvex", "--cap", "3", "--input", path]
    code, payload, _ = run_to_file(tmp_path, argv, "capped.json")
    assert code == 0 and payload["verdict"] is True
    argv = ["check", "hyperconvex", "--input", path]
    code, payload, cert = run_to_file(tmp_path, argv)
    assert code == 0 and payload["verdict"] is True
    code, report = verify(tmp_path, cert)
    assert code == 0 and report["verdict"] is True
    payload["options"]["cap"] = 3
    code, report = verify(tmp_path, write(tmp_path, "edited.json", payload))
    assert code == 0 and report["verdict"] is True


@pytest.mark.parametrize("prop", ["hyperconvex", "bounded", "macneille-bounded"])
def test_cap_leaves_the_carrier_of_the_checks_over_values(tmp_path, prop):
    path = write(tmp_path, "s.json", WORD_ALGEBRA_SPACE)
    argv = ["check", prop, "--input", path]
    code, payload, plain = run_to_file(tmp_path, argv, "plain.json")
    assert code == 0
    code, capped, cert = run_to_file(tmp_path, argv + ["--cap", "3"], "capped.json")
    assert code == 0 and capped["options"]["cap"] == 3
    text = Path(cert).read_text().replace('"cap": 3,', '"cap": null,')
    assert text == Path(plain).read_text()


@pytest.mark.parametrize("tamper", ["anchor", "drop"])
@pytest.mark.parametrize(
    "doc, mapping",
    [
        (VEE_GRAPH, {"0": "0", "1": "1", "2": "1"}),
        (CHAIN_POSET, {"a": "a", "b": "a", "c": "c"}),
        (FENCE_VEE_DEMO, None),
    ],
    ids=["digraph", "poset", "fence-retract"],
)
def test_retract_table_tamper_detected(tmp_path, doc, mapping, tamper):
    command = "demo" if mapping is None else "fixpoint"
    argv = [command, "--input", write(tmp_path, "in.json", doc)]
    if mapping is not None:
        argv += ["--maps", write(tmp_path, "m.json", mapping)]
    code, payload, cert = run_to_file(tmp_path, argv)
    assert code == 0
    table = payload["retract_table"]
    x = min(table)
    if tamper == "anchor":
        table[x] = next(a for a in payload["fixed_points"] if a != table[x])
    else:
        del table[x]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "retract table" in vout["detail"]


# ----------------------------------------------------------------- embed


def test_embed_digraph_and_verify(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    assert code == 0
    assert payload["verdict"] is True
    words_used = {f["word"] for f in payload["factors"]}
    assert words_used  # at least one path factor
    assert set(payload["coordinates"]) == {"0", "1", "2"}
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_embed_searches_each_distance_once(tmp_path, monkeypatch):
    searched = []

    def counted(search):
        def run(g, x, y, *args, **kwargs):
            searched.append((x, y))
            return search(g, x, y, *args, **kwargs)

        return run

    for module in (cli, zigzag):
        monkeypatch.setattr(module, "zz_generators", counted(module.zz_generators))
    path = write(tmp_path, "g.json", VEE_GRAPH)
    code, payload, _ = run_to_file(tmp_path, ["embed", "--input", path])
    assert code == 0
    pairs = [(x, y) for x in "012" for y in "012"]
    assert sorted(searched) == pairs
    assert sorted(payload["distances"]) == [f"{x},{y}" for x, y in pairs]


def test_embed_rejects_non_cut_distances(tmp_path, capsys):
    path = write(tmp_path, "g.json", CYCLE_GRAPH)
    assert main(["embed", "--input", path]) == 4
    assert "cut" in capsys.readouterr().err


def test_embed_vspace_profiles_and_verify(tmp_path):
    path = write(tmp_path, "s.json", V4_SPACE)
    code, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    assert code == 0
    assert payload["coordinates"]["y"]["x"] == "+"
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_embed_cert_image_tamper_detected(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    factor = next(f for f in payload["factors"] if f["word"])
    x, _y = factor["pair"]
    factor["image"][x] = len(factor["word"])  # break the start endpoint
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "endpoint" in vout["detail"] or "expansive" in vout["detail"]


REFLEXIVE_VEE = {
    "vertices": ["0", "1", "2"],
    "arcs": [["0", "0"], ["1", "1"], ["2", "2"], ["0", "1"], ["0", "2"]],
}


def test_embed_cert_missing_distance_detected(tmp_path):
    path = write(tmp_path, "g.json", REFLEXIVE_VEE)
    _, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    del payload["distances"]["0,2"]
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is False
    assert "d('0','2')" in vout["detail"]


def test_embed_cert_non_integer_position_detected(tmp_path):
    path = write(tmp_path, "g.json", REFLEXIVE_VEE)
    _, payload, cert = run_to_file(tmp_path, ["embed", "--input", path])
    factor = payload["factors"][0]
    factor["image"]["1"] = str(factor["image"]["1"])
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is False
    assert f"factor ({factor['pair'][0]!r},{factor['pair'][1]!r}" in vout["detail"]
    assert "not a path position" in vout["detail"]


def _distances_as_list(payload):
    payload["distances"] = list(payload["distances"].items())


def _factor_without_image(payload):
    del payload["factors"][0]["image"]


def _factors_as_string(payload):
    payload["factors"] = "factors"


def _gap_without_minimal(payload):
    del payload["gaps"][0]["minimal"]


def _hole_as_list(payload):
    payload["holes"][0] = list(payload["holes"][0].values())


def _endpoint_as_list(payload):
    payload["from"] = [payload["from"]]


def _input_as_list(payload):
    payload["input"] = [payload["input"]]


def _maxlen_as_string(payload):
    payload["options"]["maxlen"] = "4"


def _options_as_list(payload):
    payload["options"] = []


def _options_as_false(payload):
    payload["options"] = False


EMBED = ["embed"]
DISTANCE = ["distance", "--from", "0", "--to", "2"]


@pytest.mark.parametrize(
    "argv, doc, tamper, message",
    [
        (EMBED, REFLEXIVE_VEE, _distances_as_list, "distances: expected a JSON"),
        (EMBED, REFLEXIVE_VEE, _factor_without_image, "field 'factors[0].image'"),
        (EMBED, REFLEXIVE_VEE, _factors_as_string, "factors: expected a JSON array"),
        (["gaps"], VEE_POSET, _gap_without_minimal, "field 'gaps[0].minimal'"),
        (["holes"], VEE_POSET, _hole_as_list, "holes[0]: expected a JSON"),
        (DISTANCE, REFLEXIVE_VEE, _endpoint_as_list, "from: expected a name"),
        (DISTANCE, REFLEXIVE_VEE, _input_as_list, "input: expected a name"),
        (["check", "axioms"], REFLEXIVE_VEE, _maxlen_as_string, "options.maxlen:"),
        (["check", "axioms"], REFLEXIVE_VEE, _options_as_list, "options: expected"),
        (["check", "axioms"], REFLEXIVE_VEE, _options_as_false, "options: expected"),
    ],
    ids=[
        "distances-list",
        "factor-no-image",
        "factors-string",
        "gap-no-minimal",
        "hole-list",
        "endpoint-list",
        "input-list",
        "maxlen-string",
        "options-list",
        "options-false",
    ],
)
def test_malformed_certificate_names_its_json_path(
    tmp_path, capsys, argv, doc, tamper, message
):
    input_path = write(tmp_path, "in.json", doc)
    code, payload, cert = run_to_file(tmp_path, argv + ["--input", input_path])
    assert code == 0
    tamper(payload)
    Path(cert).write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--cert", cert]) == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------- gaps and holes


def test_gaps_and_verify(tmp_path):
    path = write(tmp_path, "p.json", VEE_POSET)
    code, payload, cert = run_to_file(tmp_path, ["gaps", "--input", path])
    assert code == 0
    assert payload["complete_lattice"] is False
    # The only supless subset is the empty one (no bottom element); its
    # canonical gap shrinks to the two incomparable minimal points.
    assert payload["gaps"] == [
        {
            "lower": [],
            "upper": ["a", "b", "c"],
            "minimal": {"lower": [], "upper": ["a", "c"]},
        }
    ]
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_gaps_on_complete_lattice_is_empty(tmp_path):
    path = write(tmp_path, "p.json", CHAIN_POSET)
    code, payload, _ = run_to_file(tmp_path, ["gaps", "--input", path])
    assert code == 0
    assert payload["gaps"] == []
    assert payload["complete_lattice"] is True


def test_gaps_cert_tamper_detected(tmp_path):
    path = write(tmp_path, "p.json", VEE_POSET)
    _, payload, cert = run_to_file(tmp_path, ["gaps", "--input", path])
    payload["gaps"][0]["lower"] = ["a"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "not a gap" in vout["detail"]


def test_holes_and_verify(tmp_path):
    path = write(tmp_path, "p.json", VEE_POSET)
    code, payload, cert = run_to_file(tmp_path, ["holes", "--input", path])
    assert code == 0
    assert len(payload["holes"]) == 1
    assert payload["holes"][0]["radii"] == {"a": "-", "b": "-", "c": "-"}
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_holes_cert_tamper_detected(tmp_path):
    path = write(tmp_path, "p.json", VEE_POSET)
    _, payload, cert = run_to_file(tmp_path, ["holes", "--input", path])
    # Top radii everywhere make every ball total, so the intersection
    # is no longer empty and the map stops being a hole.
    payload["holes"][0]["radii"] = {"a": "1", "b": "1", "c": "1"}
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "not a hole" in vout["detail"]


def test_holes_guard_reads_the_order_space(tmp_path, monkeypatch, capsys):
    # Put b into the radius-"-" balls around a and c: the balls of the
    # vee's one gap, ((), [a, b, c]), then all contain b.
    path = write(tmp_path, "p.json", VEE_POSET)
    order_space = cli.poset_to_vspace

    def patched(p):
        space = order_space(p)
        dist = {**space.dist, ("a", "b"): "-", ("c", "b"): "-"}
        return VSpace.make(space.elements, space.monoid, dist)

    monkeypatch.setattr(cli, "poset_to_vspace", patched)
    capsys.readouterr()
    assert main(["holes", "--input", path]) == InternalCheckError.exit_code == 1
    assert "is not a hole" in capsys.readouterr().err


def test_holes_cert_with_another_gaps_radii_is_rejected(tmp_path):
    # a, b below c and d: six gaps, each with its own hole
    doc = {
        "elements": ["a", "b", "c", "d"],
        "covers": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]],
    }
    path = write(tmp_path, "p.json", doc)
    _, payload, cert = run_to_file(tmp_path, ["holes", "--input", path])
    holes = payload["holes"]
    assert len(holes) == 6
    holes[0]["radii"], holes[1]["radii"] = holes[1]["radii"], holes[0]["radii"]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert vout["detail"].startswith("mismatch at holes[0].radii:")


FOUR_CROWN = {
    "elements": ["a", "b", "c", "d"],
    "covers": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]],
}


@pytest.mark.parametrize("command", ["gaps", "holes"])
def test_cut_gaps_and_holes_certs_are_rejected(tmp_path, command):
    path = write(tmp_path, "p.json", FOUR_CROWN)
    _, payload, cert = run_to_file(tmp_path, [command, "--input", path])
    assert len(payload[command]) == 6
    del payload[command][1:]
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert vout["detail"] == (
        f"mismatch at {command}: certificate lists 1 entries, input gives 6"
    )


def test_gaps_cert_with_a_larger_minimal_pair_is_rejected(tmp_path):
    path = write(tmp_path, "p.json", FOUR_CROWN)
    _, payload, cert = run_to_file(tmp_path, ["gaps", "--input", path])
    entry = payload["gaps"][0]
    assert entry["minimal"] != {"lower": entry["lower"], "upper": entry["upper"]}
    entry["minimal"] = {"lower": entry["lower"], "upper": entry["upper"]}
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert vout["detail"].startswith("mismatch at gaps[0]: certificate has")


# ------------------------------------------------------------------ demo


def test_demo_zigzag_direct_route(tmp_path):
    doc = {
        "kind": "zigzag",
        "graph": {
            "vertices": ["0", "1"],
            "arcs": [["0", "1"]],
            "add_loops": True,
        },
        "maps": [{"0": "0", "1": "1"}],
    }
    path = write(tmp_path, "d.json", doc)
    code, payload, cert = run_to_file(tmp_path, ["demo", "--input", path])
    assert code == 0
    assert payload["route"] == "direct"
    assert payload["fixed_points"] == ["0", "1"]
    assert payload["bounded"]["diameter"] == ["+-", "-+"]
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_demo_zigzag_retract_route(tmp_path):
    doc = {
        "kind": "zigzag",
        "graph": {
            "vertices": ["0|0", "1|0"],
            "arcs": [["0|0", "1|0"]],
            "add_loops": True,
        },
        "factor_words": ["+", "-"],
        "retraction": {
            "0|0": "0|0",
            "1|0": "1|0",
            "0|1": "0|0",
            "1|1": "1|0",
        },
        "maps": [{"0|0": "0|0", "1|0": "0|0"}],
    }
    path = write(tmp_path, "d.json", doc)
    code, payload, cert = run_to_file(tmp_path, ["demo", "--input", path])
    assert code == 0
    assert payload["route"] == "retract"
    assert payload["bounded"] is None
    assert payload["fixed_points"] == ["0|0"]
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_demo_fence_retract(tmp_path):
    doc = {
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
    }
    path = write(tmp_path, "d.json", doc)
    code, payload, cert = run_to_file(tmp_path, ["demo", "--input", path])
    assert code == 0
    assert payload["fixed_points"] == ["v0|v0", "v1|v0"]
    assert payload["product_size"] == 4
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True


def test_demo_fence_retract_without_normal_structure(tmp_path, capsys):
    # the slice v*|v0 of the product of the fences +-+ and + is the fence
    # +-+, whose order space has an equally-centered ball intersection
    sub = [f"v{i}|v0" for i in range(4)]
    doc = {
        "kind": "fence-retract",
        "orientations": ["+-+", "+"],
        "sub": sub,
        "retraction": {f"v{i}|v{j}": f"v{i}|v0" for i in range(4) for j in range(2)},
        "maps": [{s: s for s in sub}],
    }
    path = write(tmp_path, "d.json", doc)
    assert main(["demo", "--input", path]) == 4
    assert "equally centered" in capsys.readouterr().err


def test_verify_rechecks_the_retract_route(tmp_path):
    doc = {
        "kind": "zigzag",
        "graph": {
            "vertices": ["0|0", "1|0"],
            "arcs": [["0|0", "1|0"]],
            "add_loops": True,
        },
        "factor_words": ["+", "-"],
        "retraction": {"0|0": "0|0", "1|0": "1|0", "0|1": "0|0", "1|1": "1|0"},
        "maps": [{"0|0": "0|0", "1|0": "0|0"}],
    }
    path = write(tmp_path, "d.json", doc)
    code, _, cert = run_to_file(tmp_path, ["demo", "--input", path])
    assert code == 0
    doc["retraction"]["1|0"] = "0|0"
    write(tmp_path, "d.json", doc)
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "moves" in vout["detail"]


def test_demo_unknown_kind(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"kind": "confetti"})
    assert main(["demo", "--input", path]) == 2
    assert "unknown demo kind" in capsys.readouterr().err


def test_demo_cert_tamper_detected(tmp_path):
    doc = {
        "kind": "zigzag",
        "graph": {
            "vertices": ["0", "1"],
            "arcs": [["0", "1"]],
            "add_loops": True,
        },
        "maps": [{"0": "0", "1": "1"}],
    }
    path = write(tmp_path, "d.json", doc)
    _, payload, cert = run_to_file(tmp_path, ["demo", "--input", path])
    payload["bounded"]["witnesses"][0][1] = "+-"
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "witness" in vout["detail"]


def test_demo_cert_missing_a_witness_or_the_bound_is_rejected(tmp_path):
    doc = {
        "kind": "zigzag",
        "graph": {"vertices": ["0", "1"], "arcs": [["0", "1"]], "add_loops": True},
        "maps": [{"0": "0", "1": "1"}],
    }
    path = write(tmp_path, "d.json", doc)
    _, payload, cert = run_to_file(tmp_path, ["demo", "--input", path])
    assert payload["route"] == "direct"
    assert len(payload["bounded"]["witnesses"]) == 3
    for bounded in (
        dict(payload["bounded"], witnesses=payload["bounded"]["witnesses"][1:]),
        None,
    ):
        Path(cert).write_text(json.dumps(dict(payload, bounded=bounded)))
        _, vout = verify(tmp_path, cert)
        assert vout["verdict"] is False
        assert "bounded" in vout["detail"]


# ------------------------------------------------- the relational path


def graph_doc(g) -> dict:
    """A digraph document of a library ``Digraph``, loops included."""
    return {"vertices": list(g.vertices), "arcs": [list(a) for a in sorted(g.arcs)]}


def path_product(factor_words):
    return zigzag.digraph_product(
        [zigzag.zigzag_from_word(w).graph for w in factor_words]
    )


def run_and_verify(tmp_path, argv) -> dict:
    """Run a command, which must exit 0, and verify its certificate."""
    code, payload, cert = run_to_file(tmp_path, argv)
    assert code == 0, argv
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True, vout
    return payload


@pytest.mark.parametrize("command", ["axioms", "normal", "fixpoint", "demo"])
def test_relational_path_builds_no_carrier(tmp_path, monkeypatch, command):
    """The axioms and the relational view read the distances alone, so
    no value carrier is closed: the closure of the path +-+ exceeds
    the default cap."""

    def refuse(*args):
        raise AssertionError("a value carrier was closed")

    monkeypatch.setattr(vmetric, "_closed_carrier", refuse)
    g = zigzag.zigzag_from_word("+-+").graph
    constant = {v: "0" for v in g.vertices}
    path = write(tmp_path, "g.json", graph_doc(g))
    if command == "fixpoint":
        maps = write(tmp_path, "m.json", constant)
        argv = ["fixpoint", "--input", path, "--maps", maps]
    elif command == "demo":
        doc = {
            "kind": "zigzag",
            "graph": graph_doc(g),
            "factor_words": ["+-+"],
            "retraction": {v: v for v in g.vertices},
            "maps": [constant],
        }
        argv = ["demo", "--input", write(tmp_path, "d.json", doc)]
    else:
        argv = ["check", command, "--input", path]
    payload = run_and_verify(tmp_path, argv)
    assert payload["verdict"] is True
    if command in ("fixpoint", "demo"):
        assert payload["fixed_points"] == ["0"]


def test_relational_path_refuses_over_512_joins_of_distances(tmp_path, capsys):
    """Twelve incomparable distance values have more than 512 joins, one
    relation each.  The relational view refuses them at once, as the
    closed carrier that holds them would, whatever ``--cap`` says."""
    gens = iter(["".join(w) for w in product("+-", repeat=5)][::2])
    els = ["a", "b", "c", "d"]
    dist = {
        f"{x},{y}": '[""]' if x == y else json.dumps([next(gens)])
        for x in els
        for y in els
    }
    doc = {"elements": els, "monoid": "word-algebra", "dist": dist}
    path = write(tmp_path, "s.json", doc)
    for cap in ([], ["--cap", "5000"]):
        started = time.perf_counter()
        assert main(["check", "normal", "--input", path, *cap]) == 3
        assert time.perf_counter() - started < 1
        assert "the distances have over 512 joins" in capsys.readouterr().err


def test_relational_path_retract_demo_on_the_cube_of_paths(tmp_path):
    """The retract route on the 64-vertex product of three paths +-+,
    as its own retract, with the map that swaps the first two
    coordinates; its fixed points are the vertices a|a|c."""
    g = path_product(["+-+"] * 3)
    swap = {}
    for v in g.vertices:
        a, b, c = v.split("|")
        swap[v] = f"{b}|{a}|{c}"
    doc = {
        "kind": "zigzag",
        "graph": graph_doc(g),
        "factor_words": ["+-+"] * 3,
        "retraction": {v: v for v in g.vertices},
        "maps": [swap],
    }
    argv = ["demo", "--input", write(tmp_path, "d.json", doc)]
    payload = run_and_verify(tmp_path, argv)
    assert payload["route"] == "retract"
    assert payload["fixed_points"] == sorted(v for v in g.vertices if swap[v] == v)
    assert len(payload["fixed_points"]) == 16


def test_relational_path_demo_on_coordinate_slices(tmp_path, capsys):
    """Seeded coordinate-slice retracts of products of the paths +, +-
    and +-+ with at most 16 vertices: the vertices that agree with a
    fixed vertex off some free coordinates, retracted by overwriting
    the other coordinates.  The retract route certifies each, and a
    retraction with one value moved off the slice exits 2."""
    rng = random.Random(26)
    shapes = [
        ws
        for n in (2, 3)
        for ws in product(["+", "+-", "+-+"], repeat=n)
        if len(path_product(ws).vertices) <= 16
    ]
    for case in range(12):
        words = list(rng.choice(shapes))
        g = path_product(words)
        free = set(rng.sample(range(len(words)), rng.randint(1, len(words) - 1)))
        base = rng.choice(g.vertices).split("|")

        def onto(v):
            return "|".join(
                c if i in free else base[i] for i, c in enumerate(v.split("|"))
            )

        retraction = {v: onto(v) for v in g.vertices}
        sub = g.restrict(set(retraction.values()))
        target = rng.choice(sub.vertices)
        doc = {
            "kind": "zigzag",
            "graph": graph_doc(sub),
            "factor_words": words,
            "retraction": retraction,
            "maps": [{v: v for v in sub.vertices}, {v: target for v in sub.vertices}],
        }
        argv = ["demo", "--input", write(tmp_path, f"d{case}.json", doc)]
        payload = run_and_verify(tmp_path, argv)
        assert payload["fixed_points"] == [target], (words, free, base)
        outside = next(v for v in g.vertices if v not in sub._members)
        moved = dict(retraction, **{rng.choice(g.vertices): outside})
        write(tmp_path, f"d{case}.json", dict(doc, retraction=moved))
        assert main(argv) == 2
        assert "outside the retract" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_check_cert_roundtrip_and_tamper(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, payload, cert = run_to_file(
        tmp_path, ["check", "hyperconvex", "--input", path]
    )
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True
    payload["verdict"] = False
    Path(cert).write_text(json.dumps(payload))
    _, vout = verify(tmp_path, cert)
    assert vout["verdict"] is False
    assert "verdict" in vout["detail"]


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["check", "axioms"], "verdict", False),
        (["distance", "--from", "x", "--to", "y"], "value", "-"),
        (["embed"], "coordinates", {}),
    ],
    ids=["check", "distance", "embed"],
)
def test_recomputed_space_certificate_tamper_detected(tmp_path, argv, key, value):
    path = write(tmp_path, "s.json", V4_SPACE)
    _, payload, cert = run_to_file(tmp_path, argv + ["--input", path])
    payload[key] = value
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is False
    assert key in vout["detail"]


DIRECT_DEMO = {
    "kind": "zigzag",
    "graph": {"vertices": ["0", "1"], "arcs": [["0", "1"]], "add_loops": True},
    "maps": [{"0": "0", "1": "1"}],
}


def witness_cert(tmp_path, kind: str) -> tuple[dict, str]:
    """A verified certificate of a command that emits ``"verdict":
    true`` with its witnesses: fixpoint, embed, gaps, holes, or a demo
    by the direct, retract or fence route."""
    if kind == "fixpoint":
        maps = write(tmp_path, "m.json", {"0": "0", "1": "1", "2": "1"})
        argv = ["fixpoint", "--input", write(tmp_path, "g.json", VEE_GRAPH)]
        argv += ["--maps", maps]
    elif kind == "embed":
        argv = ["embed", "--input", write(tmp_path, "g.json", VEE_GRAPH)]
    elif kind in ("gaps", "holes"):
        argv = [kind, "--input", write(tmp_path, "p.json", VEE_POSET)]
    else:
        doc = {
            "direct": DIRECT_DEMO,
            "retract": _retract_demo(["+"]),
            "fence": FENCE_VEE_DEMO,
        }[kind]
        argv = ["demo", "--input", write(tmp_path, "d.json", doc)]
    code, payload, cert = run_to_file(tmp_path, argv)
    assert code == 0
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is True
    return payload, cert


def _every_coordinate_nine(payload):
    return {v: [9] * len(c) for v, c in payload["coordinates"].items()}


def _coordinates_as_booleans(payload):
    """Each coordinate 0 or 1 written as false or true."""
    return {
        v: [{0: False, 1: True}.get(j, j) for j in c]
        for v, c in payload["coordinates"].items()
    }


@pytest.mark.parametrize(
    "kind, key, value, detail",
    [
        *[
            (kind, "verdict", False, "'verdict': certificate has False")
            for kind in ("fixpoint", "embed", "gaps", "holes")
            + ("direct", "retract", "fence")
        ],
        ("fixpoint", "verdict", 1, "'verdict': certificate has 1"),
        ("embed", "coordinates", _every_coordinate_nine, "coordinates.0"),
        ("direct", "route", "retract", "'route': certificate has 'retract'"),
        ("retract", "route", "direct", "'route': certificate has 'direct'"),
        ("fence", "product_size", 99, "'product_size': certificate has 99"),
        ("fixpoint", "fixed_points", ["1", "0"], "fixed points"),
        ("direct", "fixed_points", ["1", "0"], "fixed points"),
        ("fence", "fixed_points", ["v1|v0", "v0|v0"], "fixed points"),
        ("gaps", "complete_lattice", 0, "complete_lattice: certificate has 0"),
        ("embed", "coordinates", _coordinates_as_booleans, "coordinates.0"),
    ],
)
def test_verify_reads_every_compared_field(tmp_path, kind, key, value, detail):
    payload, cert = witness_cert(tmp_path, kind)
    payload[key] = value(payload) if callable(value) else value
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is False
    assert detail in vout["detail"]


@pytest.mark.parametrize(
    "argv, doc, key, value",
    [
        (["check", "lattice"], VEE_POSET, "verdict", 0),
        (["check", "macneille"], VEE_GRAPH, "verdict", 1),
        (DISTANCE, VEE_GRAPH, "complete", 1),
    ],
    ids=["lattice-0", "macneille-1", "complete-1"],
)
def test_verify_reads_every_recomputed_field(tmp_path, argv, doc, key, value):
    """A recomputed field equals the fresh one as JSON: 0 is not false."""
    path = write(tmp_path, "in.json", doc)
    code, payload, cert = run_to_file(tmp_path, argv + ["--input", path])
    assert code == 0 and payload[key] == value and payload[key] is not value
    payload[key] = value
    Path(cert).write_text(json.dumps(payload))
    vcode, vout = verify(tmp_path, cert)
    assert vcode == 0 and vout["verdict"] is False
    assert f"{key!r}: certificate has {value}" in vout["detail"]


@pytest.mark.parametrize(
    "flag",
    [["--maxlen", "1"], ["--cap", "1"], ["--monoid", "V4"], ["--seed", "3"]],
    ids=["maxlen", "cap", "monoid", "seed"],
)
def test_verify_takes_only_the_flags_it_reads(tmp_path, capsys, flag):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, _, cert = run_to_file(tmp_path, DISTANCE + ["--input", path])
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--cert", cert] + flag)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_verify_reads_boundedness_witnesses_as_words(tmp_path, capsys):
    payload, cert = witness_cert(tmp_path, "direct")
    payload["bounded"]["witnesses"][0][1] = "-x"
    Path(cert).write_text(json.dumps(payload))
    assert verify(tmp_path, cert)[0] == 2
    assert "bounded.witnesses[0][1]: expected a word" in capsys.readouterr().err


def test_verify_input_override(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, _, cert = run_to_file(
        tmp_path, ["distance", "--input", path, "--from", "0", "--to", "2"]
    )
    other = write(tmp_path, "g2.json", CYCLE_GRAPH)
    vcode, vout = verify(tmp_path, cert, input=other)
    assert vcode == 2 or vout["verdict"] is False


def test_verify_missing_field(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", VEE_GRAPH)
    path = write(tmp_path, "c.json", {"command": "distance", "input": gpath})
    assert main(["verify", "--cert", path]) == 2
    assert "missing the field" in capsys.readouterr().err


def test_verify_unknown_command(tmp_path, capsys):
    path = write(tmp_path, "c.json", {"command": "dance", "input": "x"})
    assert main(["verify", "--cert", path]) == 2
    assert "cannot verify" in capsys.readouterr().err


# ----------------------------------------------------- output mechanics


def test_runs_are_byte_identical(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    argv = ["embed", "--input", path, "--seed", "7"]
    _, _, first = run_to_file(tmp_path, argv, "one.json")
    _, _, second = run_to_file(tmp_path, argv, "two.json")
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_seed_is_recorded(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    _, payload, _ = run_to_file(
        tmp_path, ["check", "axioms", "--input", path, "--seed", "11"]
    )
    assert payload["options"]["seed"] == 11


def test_dot_output_for_digraph(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    dot = tmp_path / "g.dot"
    code, _, _ = run_to_file(
        tmp_path, ["check", "axioms", "--input", path, "--dot", str(dot)]
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and '"0" -> "1"' in text


def test_dot_output_for_embedding(tmp_path):
    path = write(tmp_path, "g.json", VEE_GRAPH)
    dot = tmp_path / "e.dot"
    code, _, _ = run_to_file(
        tmp_path, ["embed", "--input", path, "--dot", str(dot)]
    )
    assert code == 0
    assert "label=" in dot.read_text()


def test_dot_unavailable_for_poset(tmp_path, capsys):
    path = write(tmp_path, "p.json", CHAIN_POSET)
    dot = tmp_path / "p.dot"
    assert main(["gaps", "--input", path, "--dot", str(dot)]) == 2
    assert "--dot is not available" in capsys.readouterr().err


def test_stdout_when_no_out_flag(tmp_path, capsys):
    path = write(tmp_path, "p.json", CHAIN_POSET)
    assert main(["gaps", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "gaps"


def test_python_dash_m_runs_the_command():
    src = str(Path(relmetric.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "relmetric", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "usage: relmetric" in done.stdout
