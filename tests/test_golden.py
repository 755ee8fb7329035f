"""The README fixture commands print exactly the reports stored in
tests/golden, byte for byte, with the same exit codes.  The invalid
documents there break functoriality, laxity naturality and the other
premonoid axioms, so their reports pin the order and indices of every
offending square.  The documents the `--out` commands write are pinned the
same way.

The fixtures are not tracked: each run regenerates them with the seeded
scripts/make_fixtures.py in a scratch directory laid out like the repository,
so the reports name the same relative paths."""

import contextlib
import importlib.util
import io
import pathlib
import shutil

import pytest

from cosegal import documents
from cosegal.chain import ChainMap
from cosegal.cli import main
from cosegal.field_linalg import GF2
from cosegal.premonoid import LaxDiagram, all_surjections_upto
from cosegal.sampling import monoid_algebra

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

FIXTURES = [
    "constant_premonoid",
    "instruction",
    "point_diagram",
    "premonoid_level4",
    "two_constant",
]
INVALID = [
    "invalid_constant_premonoid",
    "invalid_laxity_premonoid",
    "invalid_na_diagram",
    "invalid_premonoid_level4",
]

CASES = (
    [(["validate", f"fixtures/{name}.json"], f"validate_{name}.txt", 0) for name in FIXTURES]
    + [(["validate", f"tests/golden/{name}.json"], f"validate_{name}.txt", 1) for name in INVALID]
    + [
        (["gamma", "fixtures/point_diagram.json", "--json"], "gamma_point_diagram.json", 0),
        (
            ["cosegalify", "fixtures/two_constant.json", "--level", "3", "--json"],
            "cosegalify_two_constant_level3.json",
            0,
        ),
        (
            ["cosegalify", "fixtures/premonoid_level4.json", "--json"],
            "cosegalify_premonoid_level4.json",
            0,
        ),
        (
            ["pushout-k2", "fixtures/two_constant.json",
             "--instruction", "fixtures/instruction.json", "--json"],
            "pushout_k2_two_constant.json",
            0,
        ),
        (["demo-charp", "--field", "2", "--json"], "demo_charp_field2.json", 0),
    ]
)

# (argv, stdout golden, document golden): each command also writes --out
OUT_CASES = [
    (["gamma", "fixtures/point_diagram.json", "--json"],
     "gamma_point_diagram.json", "out_gamma_point_diagram.json"),
    (["cosegalify", "fixtures/premonoid_level4.json", "--json"],
     "cosegalify_premonoid_level4.json", "out_cosegalify_premonoid_level4.json"),
    (["pushout-k2", "fixtures/two_constant.json",
      "--instruction", "fixtures/instruction.json", "--json"],
     "pushout_k2_two_constant.json", "out_pushout_k2_two_constant.json"),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    with contextlib.redirect_stdout(io.StringIO()):
        make_fixtures.main(root / "fixtures")
    (root / "tests" / "golden").mkdir(parents=True)
    for name in INVALID:
        shutil.copy(GOLDEN / f"{name}.json", root / "tests" / "golden")
    return root


@pytest.mark.parametrize("argv, golden, code", CASES, ids=[c[1] for c in CASES])
def test_fixture_report_is_byte_identical(argv, golden, code, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == code
    assert buf.getvalue().encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, report, document", OUT_CASES, ids=[c[2] for c in OUT_CASES])
def test_out_document_is_byte_identical(argv, report, document, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--out", document])
    assert rc == 0
    assert buf.getvalue().encode() == (GOLDEN / report).read_bytes()
    assert (workdir / document).read_bytes() == (GOLDEN / document).read_bytes()


@pytest.mark.parametrize(
    "kind, report",
    [
        ("premonoid", "INVALID lax.json\n  laxity-associativity at (1,1,1)\n"),
        ("na_diagram", "OK lax.json\n"),
    ],
)
def test_axiom_set_follows_the_kind_tag(kind, report, tmp_path, monkeypatch):
    # a commutative unital magma algebra that is not associative:
    # (x x) y = y y = x but x (x y) = x y = y
    m = monoid_algebra(GF2, [[0, 1, 2], [1, 2, 2], [2, 2, 1]])
    a = m.obj
    lax = LaxDiagram(
        3,
        {n: a for n in (1, 2, 3)},
        {v: ChainMap.identity(a) for v in all_surjections_upto(3)},
        {pq: m.mu for pq in ((1, 1), (1, 2), (2, 1))},
        m.e,
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lax.json").write_text(documents.dump_document(lax, kind))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["validate", "lax.json"])
    assert buf.getvalue() == report
    assert rc == (1 if kind == "premonoid" else 0)
