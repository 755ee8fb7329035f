"""The CLI's exit-code contract on mutated documents.

Every input gets exit 0, 1 or 2 and never a traceback (see `cosegal.cli`).
Each example takes a fixture document from scripts/make_fixtures.py, or a
`complex`, `map` or `morphism` document built from the two_constant
fixture, applies one to three seeded mutations and runs `validate`,
`cosegalify`, `pushout-k2` or `gamma` on it in process.  The mutations: a
value swapped for one of another JSON type, a deleted key or list entry, a
huge or negative integer, an "a/b" string, nesting deeper than the JSON
parser's recursion limit, and bytes that are not UTF-8.
"""

import contextlib
import copy
import importlib.util
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from cosegal.cli import main
from cosegal.documents import dump_document, load_document
from cosegal.premonoid import DiagramMorphism
from cosegal.two_constant import expand_to_premonoid

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (command line with {doc} and {ins} for the two files, fixture behind
# {doc}); the instruction fixture is behind {ins}
COMMANDS = [
    (["validate", "{doc}"], name)
    for name in (
        "complex", "constant_premonoid", "instruction", "map", "morphism", "point_diagram",
        "two_constant",
    )
] + [
    (["validate", "{doc}"], "premonoid_level4"),
    (["cosegalify", "{doc}", "--level", "3"], "two_constant"),
    (["cosegalify", "{doc}"], "premonoid_level4"),
    (["pushout-k2", "{doc}", "--instruction", "{ins}"], "two_constant"),
    (["pushout-k2", "{doc}", "--degree", "1"], "premonoid_level4"),
    (["gamma", "{doc}"], "point_diagram"),
]

# values another JSON type, huge or negative, or a fraction where an
# integer or a matrix belongs
REPLACEMENTS = [
    None, True, 0.5, "x", "a/b", "1/2", [], {}, [[1]], {"0": 1},
    -1, -(2**63), 2**63, 10**30, 0, 7,
]
DEEP = '"deep nesting"'
NOT_UTF8 = '"not utf-8"'


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    with contextlib.redirect_stdout(io.StringIO()):
        make_fixtures.main(root / "fixtures")
    docs = {p.stem: json.loads(p.read_text()) for p in (root / "fixtures").glob("*.json")}
    # the kinds no fixture file holds
    _, f = load_document(docs["two_constant"])
    identity = DiagramMorphism.identity(expand_to_premonoid(f, 2))
    for name, obj in (("complex", f.apex), ("map", f.h), ("morphism", identity)):
        docs[name] = json.loads(dump_document(obj, name))
    return root, docs


def _path(data, doc) -> tuple:
    """A path into the document, drawn by walking down from the root and
    stopping at each container with probability 1/4, so that top-level keys
    such as `kind` are drawn often."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


def _mutated(data, doc) -> bytes:
    """doc after one to three mutations, serialised as the file's bytes."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = _path(data, doc)
        how = data.draw(st.sampled_from(["replace", "delete", "deep", "bytes"]))
        value = {
            "replace": lambda: copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS))),
            "delete": lambda: None,
            "deep": lambda: json.loads(DEEP),
            "bytes": lambda: json.loads(NOT_UTF8),
        }[how]()
        if not path:
            doc = value
            continue
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if how == "delete":
            del parent[last]
        else:
            parent[last] = value
    depth = data.draw(st.sampled_from([50, 100_000]))
    text = json.dumps(doc).replace(DEEP, "[" * depth + "1" + "]" * depth)
    return text.encode().replace(NOT_UTF8.encode(), b'"\xff\xfe"')


@given(st.data())
@seed(22)
@settings(
    max_examples=400,
    deadline=5000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_mutated_documents_exit_0_1_or_2(fixtures, data):
    root, docs = fixtures
    argv, name = data.draw(st.sampled_from(COMMANDS))
    doc, ins = root / "doc.json", root / "ins.json"
    doc.write_bytes(_mutated(data, copy.deepcopy(docs[name])))
    if data.draw(st.booleans()):
        ins.write_bytes(_mutated(data, copy.deepcopy(docs["instruction"])))
    else:
        ins.write_text(json.dumps(docs["instruction"]))
    argv = [a.format(doc=doc, ins=ins) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
