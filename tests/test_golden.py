"""The README fixture commands print exactly the reports stored in
tests/golden, byte for byte, with the same exit codes.  The invalid
documents there break functoriality, laxity naturality and the other
premonoid axioms, so their reports pin the order and indices of every
offending square.  The documents the `--out` commands write are pinned the
same way.  So are the Hom-space outputs of the chain layer (chain-map
bases, commuting squares, lifts, random chain maps and natural
transformations) on seeded inputs over F_2, F_3, F_5 and Q.

The fixtures are not tracked: each run regenerates them with the seeded
scripts/make_fixtures.py in a scratch directory laid out like the repository,
so the reports name the same relative paths."""

import contextlib
import importlib.util
import io
import json
import pathlib
import shutil
from random import Random

import pytest

from cosegal import cli, documents, premonoid, two_constant
from cosegal.chain import (
    ChainMap,
    _square_space_basis,
    chain_map_basis,
    generating_cofibrations,
    has_rlp,
    rlp_window,
    solve_lifting,
)
from cosegal.cli import main
from cosegal.field_linalg import GF2, GF3, GF5, QQ
from cosegal.premonoid import LaxDiagram, all_surjections_upto, validate_strict
from cosegal.sampling import (
    monoid_algebra,
    random_chain_map,
    random_complex,
    random_diagram_morphism,
    random_tower_diagram,
    random_trivial_fibration,
)

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
        (
            ["pushout-k2", "fixtures/premonoid_level4.json", "--degree", "1", "--json"],
            "pushout_k2_premonoid_level4_degree1.json",
            0,
        ),
        (["demo-charp", "--field", "2", "--json"], "demo_charp_field2.json", 0),
    ]
    # the exponent-3 and -4 symmetric powers, built from adjacent factor swaps
    + [
        (["demo-charp", "--field", field, "--exponent", exponent, "--json"],
         f"demo_charp_field{field}_exponent{exponent}.json", 0)
        for exponent in ("3", "4")
        for field in ("2", "3")
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
    (["pushout-k2", "fixtures/premonoid_level4.json", "--degree", "1", "--json"],
     "pushout_k2_premonoid_level4_degree1.json",
     "out_pushout_k2_premonoid_level4_degree1.json"),
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


@pytest.mark.parametrize("level", ["1", "0", "-3"])
def test_cosegalify_refuses_a_level_below_two(level, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    # an argument out of range is an input error, refused before loading
    rc = main(["cosegalify", "fixtures/two_constant.json", "--level", level])
    assert rc == 2
    assert capsys.readouterr().err == f"ERROR: --level must be at least 2, got {level}\n"


def test_cosegalify_refuses_a_non_associative_base(workdir, tmp_path, monkeypatch, capsys):
    doc = json.loads((workdir / "fixtures" / "two_constant.json").read_text())
    doc["base"]["mu"]["0"][0][3] ^= 1
    _, f = documents.load_document(doc)
    assert [v.axiom for v in validate_strict(f.base)] == ["associativity"]
    (tmp_path / "f.json").write_text(documents.canonical_dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["cosegalify", "f.json"]) == 1
    assert capsys.readouterr().err == "ERROR: invalid base monoid\n"


def _counted_calls(monkeypatch) -> dict:
    """Count the calls of `validate` and `expand_to_premonoid` under every
    name the commands reach them by."""
    calls = {"validate": 0, "expand_to_premonoid": 0}
    for module, name in (
        (premonoid, "validate"),
        (cli, "validate"),
        (two_constant, "expand_to_premonoid"),
        (cli, "expand_to_premonoid"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, out, expansions",
    [
        (["cosegalify", "fixtures/premonoid_level4.json", "--level", "4"], True, 2),
        (["cosegalify", "fixtures/two_constant.json", "--level", "3"], False, 0),
    ],
)
def test_cosegalify_expands_only_to_read_or_write(
    argv, out, expansions, workdir, tmp_path, monkeypatch
):
    # the answers come from the package: a premonoid input is expanded once
    # to be recognised and once more to write the --out document
    calls = _counted_calls(monkeypatch)
    monkeypatch.chdir(workdir)
    if out:
        argv = argv + ["--out", str(tmp_path / "s.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == {"validate": 0, "expand_to_premonoid": expansions}


@pytest.mark.parametrize(
    "argv, expansions",
    [
        (["pushout-k2", "fixtures/premonoid_level4.json", "--degree", "1"], 2),
        (["pushout-k2", "fixtures/premonoid_level4.json", "--degree", "1", "--level", "4"], 2),
        (["pushout-k2", "fixtures/two_constant.json",
          "--instruction", "fixtures/instruction.json"], 2),
    ],
)
@pytest.mark.parametrize("out", [True, False])
def test_pushout_k2_expands_each_premonoid_once(
    argv, expansions, out, workdir, tmp_path, monkeypatch
):
    # a premonoid input is expanded once, to be recognised, and the result
    # once, for --out at level 4 or more; upsilon cuts both down to --level.
    # A two_constant input is expanded only for upsilon, at --level.
    calls = _counted_calls(monkeypatch)
    monkeypatch.chdir(workdir)
    if out:
        argv = argv + ["--out", str(tmp_path / "e.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == {"validate": 0, "expand_to_premonoid": expansions}


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


# ---------------------------------------------------------------------------
# Hom-space outputs: run this module as a script to rewrite hom_spaces.json
# from the current code (only when those outputs are meant to change)
# ---------------------------------------------------------------------------

HOM_SPACES = GOLDEN / "hom_spaces.json"


def _chain_map_record(f):
    return {str(n): [[str(x) for x in row] for row in m.tolist()]
            for n, m in sorted(f.components.items())}


def _squares_record(alpha, g):
    out = []
    for top, bottom in _square_space_basis(alpha, g):
        lift = solve_lifting(alpha, g, top, bottom)
        out.append({
            "top": _chain_map_record(top),
            "bottom": _chain_map_record(bottom),
            "lift": None if lift is None else _chain_map_record(lift),
        })
    return out


def _hom_case(field, case):
    rng = Random(1000 * field.characteristic + case)
    if case % 2:
        g = random_trivial_fibration(rng, field, 0, 1, 2)
    else:
        x = random_complex(rng, field, 0, 2, 2)
        g = random_chain_map(rng, x, random_complex(rng, field, 0, 2, 2))
    x, y = g.source, g.target
    gens = generating_cofibrations(field, *rlp_window(g))
    u = random_complex(rng, field, 0, 1, 1)
    alpha = random_chain_map(rng, u, random_complex(rng, field, 0, 1, 2))
    return {
        "chain_map_basis": [_chain_map_record(b) for b in chain_map_basis(x, y)],
        "random_chain_map": _chain_map_record(random_chain_map(rng, x, y)),
        "has_rlp": [has_rlp(gen.inclusion, g) for gen in gens],
        "generator_squares": [_squares_record(gen.inclusion, g) for gen in gens],
        "random_squares": _squares_record(alpha, g),
    }


def _diagram_morphism_case(field, level, case):
    rng = Random(1000 * field.characteristic + 100 * level + case)
    f = random_tower_diagram(rng, field, level, 0, 1, 2)
    g = random_tower_diagram(rng, field, level, 0, 1, 3)
    eta = random_diagram_morphism(rng, f, g)
    return {str(n): _chain_map_record(c) for n, c in sorted(eta.components.items())}


def hom_spaces():
    return {
        str(field): {
            "maps": [_hom_case(field, case) for case in range(4)],
            "diagram_morphisms": [
                _diagram_morphism_case(field, level, case)
                for level in (2, 3)
                for case in range(4)
            ],
        }
        for field in (GF2, GF3, GF5, QQ)
    }


def test_hom_space_outputs_are_identical():
    assert hom_spaces() == json.loads(HOM_SPACES.read_text())


if __name__ == "__main__":
    HOM_SPACES.write_text(json.dumps(hom_spaces(), separators=(",", ":")) + "\n")
