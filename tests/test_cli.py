import contextlib
import io
import json
import random

import pytest

from cosegal import documents as docs
from cosegal.chain import ChainMap, single_complex
from cosegal.cli import main
from cosegal.field_linalg import GF2, QQ
from cosegal.premonoid import DiagramMorphism, from_strict
from cosegal.sampling import (
    monoid_algebra,
    random_strict_monoid,
    random_tower_diagram,
    random_two_constant,
    tower_diagram,
)
from cosegal.two_constant import expand_to_premonoid


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


@pytest.fixture
def two_constant_file(tmp_path):
    f = random_two_constant(random.Random(1), GF2, surjective_h=True)
    path = tmp_path / "f.json"
    path.write_text(docs.dump_document(f, "two_constant"))
    return path


def test_surjections_output():
    rc, out = run_cli(["surjections", "3", "2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[-1] == "count 6"
    rc, out = run_cli(["surjections", "3", "2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 6 and len(payload["surjections"]) == 6


def test_validate_ok_and_exit_codes(tmp_path, two_constant_file):
    rc, out = run_cli(["validate", str(two_constant_file)])
    assert rc == 0 and out.startswith("OK")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run_cli(["validate", str(bad)])
    assert rc == 2
    missing = tmp_path / "missing.json"
    rc, _ = run_cli(["validate", str(missing)])
    assert rc == 2


def test_validate_corrupted_laxity_exit1(tmp_path):
    f = random_two_constant(random.Random(2), GF2)
    g = expand_to_premonoid(f, 2)
    doc = docs.diagram_to_dict(g, "premonoid")
    key = sorted(doc["laxity"])[0]
    deg = sorted(doc["laxity"][key])[0]
    doc["laxity"][key][deg][0][0] = (doc["laxity"][key][deg][0][0] + 1) % 2
    path = tmp_path / "corrupt.json"
    path.write_text(docs.canonical_dumps(doc))
    rc, out = run_cli(["validate", str(path)])
    assert rc == 1
    assert "INVALID" in out and "laxity" in out


def test_validate_premonoid_axiom_violation_exit1(tmp_path):
    # stays a chain map (zero differentials) but breaks the weak unit square
    from cosegal.sampling import monoid_algebra

    m = monoid_algebra(GF2, [[0, 1], [1, 0]])
    f = from_strict(m, 2)
    doc = docs.diagram_to_dict(f, "premonoid")
    doc["unit"] = {"0": [[0], [0]]}
    path = tmp_path / "nounit.json"
    path.write_text(docs.canonical_dumps(doc))
    rc, out = run_cli(["validate", str(path)])
    assert rc == 1
    assert "diag-unitality" in out


@pytest.mark.parametrize(
    "payload, why",
    [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_unreadable_json_is_exit2_and_validate_goes_on(
    tmp_path, capsys, two_constant_file, payload, why
):
    # both used to escape _read_json: the UnicodeDecodeError as a ValueError
    # (exit 1, later paths never reported), the RecursionError as a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    assert main(["validate", str(bad), str(two_constant_file)]) == 2
    out = capsys.readouterr()
    first, second = out.out.splitlines()
    assert first.startswith(f"ERROR {bad}: cannot read {bad}: ") and why in first
    assert second == f"OK {two_constant_file}"
    assert main(["gamma", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: cannot read") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, why",
    [
        ({"alpha_degree": "x", "q": 5}, "alpha_degree must be an integer"),
        ({"alpha_degree": 1, "q": 5}, "q must be an object"),
        ({"alpha_degree": 1, "p": [[1]]}, "p must be an object"),
    ],
    ids=["degree", "q", "p"],
)
def test_validate_refuses_a_malformed_instruction(tmp_path, capsys, doc, why):
    # `validate` used to print OK for any instruction document, unread
    bad = tmp_path / "instruction.json"
    bad.write_text(json.dumps({"kind": "instruction", **doc}))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().out == f"ERROR {bad}: {why}\n"


def _identity_morphism(level: int) -> dict:
    m = random_strict_monoid(random.Random(7), GF2, allow_graded=False)
    morphism = DiagramMorphism.identity(from_strict(m, level))
    return json.loads(docs.dump_document(morphism, "morphism"))


def _point_diagram() -> dict:
    s0 = single_complex(GF2, 0, 1)
    return json.loads(docs.dump_document(tower_diagram([ChainMap.identity(s0)]), "diagram"))


@pytest.mark.parametrize("side", ["source", "target"])
def test_morphism_with_a_non_object_side_is_exit2(tmp_path, capsys, side):
    # diagram_from_dict used to call .get on the list: an AttributeError traceback
    doc = _identity_morphism(2)
    doc[side] = []
    bad = tmp_path / "morphism.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == f"ERROR {bad}: premonoid must be an object\n" and out.err == ""


def test_morphism_into_a_lower_level_is_exit2(tmp_path, capsys):
    # the level-3 component used to look up a target level that does not
    # exist: a KeyError traceback
    doc = _identity_morphism(3)
    doc["target"] = _identity_morphism(2)["target"]
    bad = tmp_path / "morphism.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == f"ERROR {bad}: component level 3 out of range\n" and out.err == ""


def test_pushout_k2_refuses_a_non_object_instruction(tmp_path, capsys, two_constant_file):
    # _raw_instruction used to call .get on the list: an AttributeError traceback
    ins = tmp_path / "instruction.json"
    ins.write_text("[]")
    assert main(["pushout-k2", str(two_constant_file), "--instruction", str(ins)]) == 2
    out = capsys.readouterr()
    assert out.err == "ERROR: instruction must be an object\n" and out.out == ""


def test_identity_keyed_structure_map_is_exit2(tmp_path, capsys):
    # F(id_2) = 0 makes no functor; the entry used to be dropped, and the
    # document validated OK
    doc = _point_diagram()
    doc["structure"]["0,1"] = {}
    bad = tmp_path / "identity.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out.startswith(f"ERROR {bad}: structure key ") and out.out.count("\n") == 1
    assert "is an identity" in out.out and out.err == ""


def test_cosegalify_command(tmp_path, two_constant_file):
    out_path = tmp_path / "s.json"
    rc, out = run_cli(
        ["cosegalify", str(two_constant_file), "--level", "3", "--json", "--out", str(out_path)]
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["is_cosegal"] and rep["is_k_injective"]
    assert rep["tau_level1_cofibration"] and rep["reflection_preserved"]
    kind, s = docs.load_document(json.loads(out_path.read_text()))
    assert kind == "two_constant"


def test_cosegalify_accepts_level4_premonoid_document(tmp_path):
    f = random_two_constant(random.Random(3), GF2)
    g = expand_to_premonoid(f, 4)
    path = tmp_path / "g.json"
    path.write_text(docs.dump_document(g, "premonoid"))
    rc, out = run_cli(["cosegalify", str(path), "--level", "4", "--json"])
    assert rc == 0
    assert json.loads(out)["is_cosegal"]


def test_cosegalify_rejects_low_level_premonoid_document(tmp_path):
    f = random_two_constant(random.Random(4), GF2)
    g = expand_to_premonoid(f, 2)
    path = tmp_path / "g2.json"
    path.write_text(docs.dump_document(g, "premonoid"))
    rc, _ = run_cli(["cosegalify", str(path)])
    assert rc == 1


def test_pushout_k2_command(tmp_path, two_constant_file):
    out_path = tmp_path / "e.json"
    rc, out = run_cli(
        [
            "pushout-k2",
            str(two_constant_file),
            "--degree",
            "1",
            "--seed",
            "7",
            "--json",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["upsilon_validates"] and rep["reflection_preserved"]
    assert rep["upsilon_upper_identity"] and rep["leg_cofibration"]
    # feed the emitted instruction-free result back through validate
    rc, out = run_cli(["validate", str(out_path)])
    assert rc == 0


def test_pushout_k2_takes_the_zero_cycle_after_k2_tries_misses(tmp_path):
    # over Q the 40 random cycles of this package all miss the boundary;
    # random_k2_instruction used to raise RuntimeError through cli.main
    f = random_two_constant(random.Random(0), QQ, surjective_h=True)
    path = tmp_path / "q.json"
    path.write_text(docs.dump_document(f, "two_constant"))
    rc, out = run_cli(["pushout-k2", str(path), "--degree", "1", "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["alpha_degree"] == 1
    assert rep["upsilon_validates"] and rep["reflection_preserved"]
    assert rep["upsilon_upper_identity"] and rep["leg_cofibration"]


@pytest.mark.parametrize("window", [("5", "1"), ("2", "1")])
def test_pushout_k2_refuses_an_empty_window(capsys, two_constant_file, window):
    # LO > HI used to die with an IndexError (5 1) or sample degree LO from
    # an empty window (2 1); a window that is not sampled is not read
    rc = main(["pushout-k2", str(two_constant_file), "--window", *window])
    assert rc == 2
    lo, hi = window
    err = capsys.readouterr().err
    assert err == f"ERROR: --window {lo} {hi} is empty: LO must be at most HI\n"
    assert main(["pushout-k2", str(two_constant_file), "--window", *window, "--degree", "1"]) == 0


def test_pushout_k2_with_instruction_file(tmp_path, two_constant_file):
    from cosegal.sampling import random_k2_instruction

    kind, f = docs.load_document(json.loads(two_constant_file.read_text()))
    ins = random_k2_instruction(random.Random(9), f, 0)
    ins_path = tmp_path / "ins.json"
    ins_path.write_text(docs.dump_document(ins, "instruction"))
    rc, out = run_cli(
        ["pushout-k2", str(two_constant_file), "--instruction", str(ins_path), "--json"]
    )
    assert rc == 0


def test_gamma_command(tmp_path):
    d = random_tower_diagram(random.Random(5), GF2, 2, 0, 1, 1)
    path = tmp_path / "d.json"
    path.write_text(docs.dump_document(d, "diagram"))
    out_path = tmp_path / "g.json"
    rc, out = run_cli(["gamma", str(path), "--json", "--out", str(out_path)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["level1_unchanged"] and rep["unit_natural"]
    kind, g = docs.load_document(json.loads(out_path.read_text()))
    assert kind == "na_diagram"
    rc, _ = run_cli(["validate", str(out_path)])
    assert rc == 0


def test_gamma_s0_fixture_reports_dimension_three(tmp_path):
    from cosegal.chain import single_complex
    from cosegal.sampling import tower_diagram

    s0 = single_complex(GF2, 0, 1)
    d = tower_diagram([ChainMap.identity(s0)])
    path = tmp_path / "s0.json"
    path.write_text(docs.dump_document(d, "diagram"))
    rc, out = run_cli(["gamma", str(path), "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["dims"]["2"] == {"0": 3}


def test_premonoid_documents_round_trip_through_commands(tmp_path):
    f = random_two_constant(random.Random(7), GF2, surjective_h=True)
    src = tmp_path / "pm4.json"
    src.write_text(docs.dump_document(expand_to_premonoid(f, 4), "premonoid"))
    out1 = tmp_path / "out1.json"
    rc, _ = run_cli(["cosegalify", str(src), "--level", "4", "--json", "--out", str(out1)])
    assert rc == 0
    kind, _ = docs.load_document(json.loads(out1.read_text()))
    assert kind == "premonoid"
    out2 = tmp_path / "out2.json"
    rc, _ = run_cli(
        ["pushout-k2", str(out1), "--degree", "1", "--seed", "2", "--json", "--out", str(out2)]
    )
    assert rc == 0
    kind, _ = docs.load_document(json.loads(out2.read_text()))
    assert kind == "premonoid"
    rc, _ = run_cli(["validate", str(out2)])
    assert rc == 0


def test_gamma_report_includes_latching_adjacency(tmp_path):
    d = random_tower_diagram(random.Random(8), GF2, 2, 0, 0, 1)
    path = tmp_path / "d.json"
    path.write_text(docs.dump_document(d, "diagram"))
    rc, out = run_cli(["gamma", str(path), "--json"])
    assert rc == 0
    rep = json.loads(out)
    shape2 = rep["latching_shapes"]["2"]
    assert len(shape2["objects"]) == 3
    assert shape2["arrows"] == []
    assert ["plus", 1, [0, 0]] in shape2["objects"]


def test_demo_charp_command():
    rc, out = run_cli(["demo-charp", "--field", "2", "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["acyclic"] is False and rep["homology"] == {"2": 1}
    rc, out = run_cli(["demo-charp", "--field", "0", "--json"])
    assert json.loads(out)["acyclic"] is True
    rc, out = run_cli(["demo-charp", "--field", "3"])
    assert rc == 0 and "acyclic: True" in out


def test_reports_byte_reproducible(tmp_path, two_constant_file):
    args = ["cosegalify", str(two_constant_file), "--level", "2", "--json"]
    rc1, out1 = run_cli(args)
    rc2, out2 = run_cli(args)
    assert (rc1, out1) == (rc2, out2)
    args = ["pushout-k2", str(two_constant_file), "--degree", "1", "--seed", "3", "--json"]
    rc1, out1 = run_cli(args)
    rc2, out2 = run_cli(args)
    assert (rc1, out1) == (rc2, out2)
    rc1, out1 = run_cli(["demo-charp", "--field", "5", "--json"])
    rc2, out2 = run_cli(["demo-charp", "--field", "5", "--json"])
    assert out1 == out2


def test_max_dim_cap_env(tmp_path, monkeypatch, two_constant_file):
    monkeypatch.setenv("COSEGAL_MAX_DIM", "1")
    rc, _ = run_cli(["validate", str(two_constant_file)])
    assert rc == 2
    monkeypatch.delenv("COSEGAL_MAX_DIM")


def _complex_doc(field: int) -> dict:
    return {"kind": "complex", "field": field, "window": [0, 0], "dims": {"0": 1}, "diff": {}}


def test_validate_rejects_huge_prime_with_exit2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_complex_doc(2305843009213693951)))
    rc = main(["validate", str(path)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out.startswith(f"ERROR {path}") and "below 2^31" in out.out
    assert "Traceback" not in out.err
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(_complex_doc(2**31 - 1)))
    assert main(["validate", str(ok)]) == 0


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "1.5"])
def test_bad_max_dim_env_is_exit2(monkeypatch, capsys, two_constant_file, raw):
    monkeypatch.setenv("COSEGAL_MAX_DIM", raw)
    rc = main(["validate", str(two_constant_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "COSEGAL_MAX_DIM must be a positive integer" in err


def test_invariant_error_is_exit1(monkeypatch, capsys, two_constant_file):
    from cosegal import cli
    from cosegal.field_linalg import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("lifting characterisation out of sync")

    monkeypatch.setattr(cli, "is_k_injective", broken)
    rc = main(["cosegalify", str(two_constant_file), "--level", "3"])
    assert rc == 1
    assert "ERROR: lifting characterisation out of sync" in capsys.readouterr().err


_OPTIMIZED_CHECKS = r"""
import sys

from cosegal import chain
from cosegal.chain import ChainMap, GeneratingCofibration, induced_matrix, solve_lifting
from cosegal.field_linalg import GF2, GF3, InvariantError, Matrix

print("optimize", sys.flags.optimize)


def expect(exc, fn):
    try:
        fn()
    except exc as e:
        print("raised", type(e).__name__)
    else:
        raise SystemExit(f"no {exc.__name__}")


a2, a3, b2 = Matrix.identity(GF2, 2), Matrix.identity(GF2, 3), Matrix.identity(GF3, 2)
expect(ValueError, lambda: a2 + a3)
expect(ValueError, lambda: a2 - b2)
expect(ValueError, lambda: a2 @ b2)
expect(ValueError, lambda: a2.kron(b2))
through = Matrix.from_rows(GF2, [[1, 0]])
expect(ValueError, lambda: induced_matrix(through, Matrix.from_rows(GF2, [[0, 1]])))

gen = GeneratingCofibration(1, GF2)
disc, alpha = gen.disc, gen.inclusion
expect(ValueError, lambda: ChainMap.identity(disc) + alpha)
one = Matrix.identity(GF2, 1)
expect(ValueError, lambda: chain.ChainComplex(GF2, {0: 1, 1: 1, 2: 1}, {1: one, 2: one}))
point = chain.single_complex(GF2, 0, 1)
glued = chain.colimit([point, point], [(0, 1, ChainMap.identity(point))])
expect(ValueError, lambda: glued.induce([ChainMap.identity(point), ChainMap.zero(point, point)]))
g = ChainMap.zero(disc, chain.zero_complex(GF2))
bottom = ChainMap.zero(disc, g.target)
# _lifts solves through the shared solve-from-rows helper: have it answer zero
chain._solve_rows = lambda field, n, rhs_cols, rows: Matrix.zeros(field, n, rhs_cols)
expect(InvariantError, lambda: solve_lifting(alpha, g, alpha, bottom))
"""


def test_load_bearing_checks_survive_python_O(tmp_path):
    import os
    import subprocess
    import sys

    import cosegal

    src = os.path.dirname(os.path.dirname(cosegal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1:] == ["raised ValueError"] * 8 + ["raised InvariantError"]
    # the CLI under -O: a rejected prime is exit 2, without a traceback
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(_complex_doc(4294967291)))
    cli = subprocess.run(
        [sys.executable, "-O", "-m", "cosegal.cli", "validate", str(doc)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert cli.returncode == 2
    assert "Traceback" not in cli.stderr and cli.stdout.startswith("ERROR")


@pytest.mark.parametrize("level", ["1", "0"])
def test_pushout_k2_level_below_two_is_exit2(level, capsys, two_constant_file):
    # used to exit 1 from the level-1 upsilon morphism, after the pushout
    rc = main(["pushout-k2", str(two_constant_file), "--degree", "1", "--level", level])
    assert rc == 2
    assert capsys.readouterr().err == f"ERROR: --level must be at least 2, got {level}\n"


@pytest.mark.parametrize("exponent", ["0", "-1", "5"])
def test_demo_charp_exponent_out_of_range_is_exit2(exponent, capsys):
    # used to exit 1 from sym_power's ValueError
    with pytest.raises(SystemExit) as exc:
        main(["demo-charp", "--exponent", exponent])
    assert exc.value.code == 2
    assert "--exponent" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["4", "4294967291", "abc"])
def test_demo_charp_bad_field_is_exit2(field, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo-charp", "--field", field])
    assert exc.value.code == 2
    assert "--field" in capsys.readouterr().err


def test_surjections_source_cap_is_exit2(capsys):
    from cosegal.cli import MAX_SURJECTION_SOURCE

    rc = main(["surjections", str(MAX_SURJECTION_SOURCE), "2"])
    out = capsys.readouterr()
    assert rc == 0 and out.out.splitlines()[-1] == f"count {2 ** MAX_SURJECTION_SOURCE - 2}"
    rc = main(["surjections", str(MAX_SURJECTION_SOURCE + 1), "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"ERROR: surjections: M is at most {MAX_SURJECTION_SOURCE}, got 8\n"


def test_document_level_cap_is_exit2(tmp_path, capsys):
    from cosegal.chain import single_complex
    from cosegal.sampling import tower_diagram

    # level 5 is accepted and validated
    s0 = single_complex(GF2, 0, 1)
    deep = tmp_path / "deep.json"
    deep.write_text(docs.dump_document(tower_diagram([ChainMap.identity(s0)] * 4), "diagram"))
    assert main(["validate", str(deep)]) == 0
    assert capsys.readouterr().out == f"OK {deep}\n"
    # a level far beyond the cap is refused before anything is enumerated
    doc = json.loads(deep.read_text())
    for level in (docs.MAX_LEVEL + 1, 10**9):
        doc["level"] = level
        huge = tmp_path / f"level{level}.json"
        huge.write_text(json.dumps(doc))
        assert main(["validate", str(huge)]) == 2
        out = capsys.readouterr()
        assert out.out == f"ERROR {huge}: level must be at most {docs.MAX_LEVEL}, got {level}\n"
        assert out.err == ""


@pytest.mark.parametrize("command", ["cosegalify", "pushout-k2"])
def test_level_flag_cap_is_exit2(command, capsys, two_constant_file):
    rc = main([command, str(two_constant_file), "--level", str(docs.MAX_LEVEL + 1)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"ERROR: --level must be at most {docs.MAX_LEVEL}, got {docs.MAX_LEVEL + 1}\n"


def test_gamma_level_cap_is_exit2(tmp_path):
    import os
    import subprocess
    import sys

    import cosegal
    from cosegal.chain import single_complex
    from cosegal.cli import MAX_GAMMA_LEVEL
    from cosegal.sampling import tower_diagram

    # a level-5 point diagram is a valid document, but its latching shape
    # alone takes minutes: gamma refuses it before validating or building
    s0 = single_complex(GF2, 0, 1)
    level = MAX_GAMMA_LEVEL + 1
    doc = tmp_path / "points.json"
    doc.write_text(
        docs.dump_document(tower_diagram([ChainMap.identity(s0)] * (level - 1)), "diagram")
    )
    src = os.path.dirname(os.path.dirname(cosegal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "cosegal.cli", "gamma", str(doc)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert run.returncode == 2
    assert run.stderr == f"ERROR: gamma: level is at most {MAX_GAMMA_LEVEL}, got {level}\n"
    assert run.stdout == ""


def _run_limited(args, timeout, cap=1536 << 20):
    """The CLI in a subprocess under an address-space limit, 1.5 GB by default."""
    import os
    import resource
    import subprocess
    import sys

    import cosegal

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(cosegal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "cosegal.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=limit,
    )


@pytest.mark.parametrize("command", ["validate", "cosegalify", "pushout-k2"])
def test_a_distant_degree_is_walked_only_where_stored(command, tmp_path):
    # one apex dimension at degree 10^8: the chain-map check, homology and
    # the tensor product visit the stored degrees, not the window between
    doc = json.loads(docs.dump_document(random_two_constant(random.Random(1), GF2), "two_constant"))
    doc["apex"]["dims"]["100000000"] = 1
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    run = _run_limited([command, str(path)], timeout=20)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    if command == "validate":
        assert run.stdout == f"OK {path}\n"
    else:
        assert "  100000000: 1\n" in run.stdout


def test_a_huge_surjection_key_is_refused_before_building_its_target(tmp_path):
    # "0,10^11" names a map 2 ->> 10^11 + 1, which cannot be onto; the check
    # used to build range(10^11 + 1) first and die with a MemoryError traceback
    doc = _point_diagram()
    doc["structure"]["0,100000000000"] = {}
    path = tmp_path / "huge_key.json"
    path.write_text(json.dumps(doc))
    run = _run_limited(["validate", str(path)], timeout=20)
    assert run.returncode == 2, run.stderr
    assert run.stdout.startswith(f"ERROR {path}: bad key '0,100000000000' in structure")
    assert run.stderr == ""


def test_pushout_k2_draws_from_a_huge_window_without_building_it(two_constant_file):
    run = _run_limited(
        ["pushout-k2", str(two_constant_file), "--window", "0", "100000000"], timeout=20
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout.startswith("alpha_degree: ")


def test_validate_answers_the_group_algebra_of_z24_under_one_gib(tmp_path):
    # the constant level-3 premonoid of F_2[Z/24]: each pair product is
    # 576-dimensional and each triple product 13,824-dimensional, so a dense
    # associator component alone takes 1.42 GiB; validate reads the laxity
    # maps block by block and builds neither
    m = monoid_algebra(GF2, [[(i + j) % 24 for j in range(24)] for i in range(24)])
    path = tmp_path / "z24.json"
    path.write_text(docs.dump_document(from_strict(m, 3), "premonoid"))
    run = _run_limited(["validate", str(path)], timeout=60, cap=1 << 30)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == f"OK {path}\n"
