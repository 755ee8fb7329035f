import json
import random
from fractions import Fraction

import pytest

from cosegal import documents as docs
from cosegal.chain import ChainMap
from cosegal.cli import main
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Field, Matrix
from cosegal.free_gamma import gamma_na
from cosegal.premonoid import DiagramMorphism, from_strict
from cosegal.sampling import (
    random_chain_map,
    random_complex,
    random_k2_instruction,
    random_strict_monoid,
    random_tower_diagram,
    random_two_constant,
)
from cosegal.two_constant import expand_to_premonoid
from oracles import oracle_matrix_from_rows, oracle_matrix_rows


def canonical_roundtrip(obj, kind):
    text = docs.dump_document(obj, kind)
    payload = json.loads(text)
    kind2, obj2 = docs.load_document(payload)
    assert kind2 == kind
    assert docs.dump_document(obj2, kind) == text
    return obj2


def test_complex_roundtrip():
    rng = random.Random(1)
    for field in (GF2, GF3, QQ):
        c = random_complex(rng, field, -1, 2, 3)
        c2 = canonical_roundtrip(c, "complex")
        assert c2 == c


def test_rational_entries_roundtrip():
    c = random_complex(random.Random(2), QQ, 0, 1, 2)
    m = random_chain_map(random.Random(3), c, c)
    m2 = canonical_roundtrip(m, "map")
    assert m2 == m


def test_map_roundtrip():
    rng = random.Random(4)
    a = random_complex(rng, GF3, 0, 2, 2)
    b = random_complex(rng, GF3, 0, 2, 2)
    f = random_chain_map(rng, a, b)
    assert canonical_roundtrip(f, "map") == f


def test_diagram_and_na_diagram_roundtrip():
    rng = random.Random(5)
    f = random_tower_diagram(rng, GF2, 2, 0, 1, 2)
    f2 = canonical_roundtrip(f, "diagram")
    assert f2.structure == f.structure
    g, _ = gamma_na(f)
    g2 = canonical_roundtrip(g, "na_diagram")
    assert g2.laxity == g.laxity


def test_premonoid_roundtrip():
    rng = random.Random(6)
    m = random_strict_monoid(rng, GF2, allow_graded=False)
    f = from_strict(m, 3)
    f2 = canonical_roundtrip(f, "premonoid")
    assert f2.objects == f.objects
    assert f2.laxity == f.laxity
    assert f2.unit == f.unit


def test_morphism_roundtrip():
    rng = random.Random(7)
    m = random_strict_monoid(rng, GF3, allow_graded=False)
    f = from_strict(m, 2)
    s = DiagramMorphism.identity(f)
    s2 = canonical_roundtrip(s, "morphism")
    assert s2.components == s.components


def test_two_constant_and_instruction_roundtrip():
    rng = random.Random(8)
    f = random_two_constant(rng, GF2, surjective_h=True)
    f2 = canonical_roundtrip(f, "two_constant")
    assert f2.h == f.h and f2.base == f.base
    ins = random_k2_instruction(rng, f, 1)
    text = docs.dump_document(ins, "instruction")
    payload = json.loads(text)
    ins2 = docs.instruction_from_dict(payload, f)
    assert ins2.q == ins.q and ins2.p == ins.p
    assert docs.dump_document(ins2, "instruction") == text


def test_bad_schema_is_document_error():
    with pytest.raises(docs.DocumentError):
        docs.load_document({"kind": "widget"})
    with pytest.raises(docs.DocumentError):
        docs.complex_from_dict({"field": "two", "dims": {}})
    with pytest.raises(docs.DocumentError):
        docs.complex_from_dict({"field": 2, "dims": {"0": -1}})
    with pytest.raises(docs.DocumentError):
        docs.complex_from_dict({"field": 2, "dims": {"0": 1}, "diff": {"0": [[1, 2]]}})


def test_broken_math_is_validation_failure():
    # d.d != 0
    with pytest.raises(docs.ValidationFailure):
        docs.complex_from_dict(
            {
                "field": 2,
                "dims": {"0": 1, "1": 1, "2": 1},
                "diff": {"1": [[1]], "2": [[1]]},
            }
        )
    # valid complexes, non-chain component
    payload = {
        "kind": "map",
        "source": {"field": 2, "dims": {"0": 1, "1": 1}, "diff": {"1": [[1]]}},
        "target": {"field": 2, "dims": {"0": 1}, "diff": {}},
        "components": {"0": [[1]]},
    }
    with pytest.raises(docs.ValidationFailure):
        docs.load_document(payload)


@pytest.mark.parametrize(
    "field, entry",
    [(3, "1/2"), (2, "1"), (5, "3"), (0, "1/0"), (0, "-2/0"), (3, "1/0"),
     (0, "1/"), (0, " 1/2"), (0, "+1/2"), (0, "1_0/3"), (0, "1/-2"), (0, "\u0663/4")],
)
def test_bad_string_entry_is_exit2_with_one_line(field, entry, tmp_path, capsys):
    # over F_p entries are JSON integers ("1/2" used to load as 0 over F_3);
    # over Q a zero denominator is refused, not a ZeroDivisionError, and so
    # is every string outside the writer's grammar -?[0-9]+(/[0-9]+)? ("1/"
    # loaded as 1, "+1/2" as 1/2, "1_0/3" as 10/3, "1/-2" as -1/2 and the
    # Arabic-Indic "\u0663/4" as 3/4)
    payload = {"kind": "complex", "field": field, "dims": {"0": 1, "1": 1},
               "diff": {"1": [[entry]]}}
    with pytest.raises(docs.DocumentError, match="bad matrix entry"):
        docs.load_document(payload)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == f"ERROR {path}: bad matrix entry {entry!r}\n"
    assert out.err == ""


def test_rational_strings_in_the_grammar_load():
    got = docs._matrix_from_rows(QQ, [["5", "2/4", "-3/4", "-0"]], 1, 4)
    assert got == Matrix.from_rows(QQ, [[5, Fraction(1, 2), Fraction(-3, 4), 0]])


def _document_entry(rng, field):
    """A matrix entry a document may hold: a JSON integer of any size, and
    over Q also an "a/b" string, in lowest terms or not."""
    x = rng.choice([0, 1, -1, rng.randrange(-10**6, 10**6), 2**70, -2**70])
    if field.is_rational and rng.random() < 0.5:
        den = rng.choice([1, 2, 6, 2**70])
        return str(x) if den == 1 and rng.random() < 0.5 else f"{x}/{den}"
    return x


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1, 0])
def test_matrix_codec_matches_the_per_entry_oracle(p):
    # the stored-form writer and reader against the per-entry codec they
    # replaced: the same rows written, the same Matrix read, and for a bad
    # entry the same message, naming the first one in row-major order
    field, rng = Field(p), random.Random(2600 + p)
    bad = [True, False, None, 1.0, [1], {}] + (["1"] if p else [])
    for _ in range(60):
        nrows, ncols = rng.randrange(5), rng.randrange(5)
        rows = [[_document_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
        got = docs._matrix_from_rows(field, rows, nrows, ncols)
        assert got == oracle_matrix_from_rows(field, rows, ncols)
        written = docs._matrix_to_rows(got)
        assert docs.canonical_dumps(written) == docs.canonical_dumps(oracle_matrix_rows(got))
        assert docs._matrix_from_rows(field, written, nrows, ncols) == got
        if nrows * ncols:
            cells = rng.sample(range(nrows * ncols), min(2, nrows * ncols))
            for cell in cells:
                rows[cell // ncols][cell % ncols] = rng.choice(bad)
            with pytest.raises(docs.DocumentError) as want:
                oracle_matrix_from_rows(field, rows, ncols)
            with pytest.raises(docs.DocumentError, match="bad matrix entry") as exc:
                docs._matrix_from_rows(field, rows, nrows, ncols)
            assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("kind", [{"a": 1}, ["premonoid"], 7, None, "tensor"])
@pytest.mark.parametrize("command", ["validate", "gamma", "cosegalify", "pushout-k2"])
def test_non_string_kind_is_exit2_with_one_line(command, kind, tmp_path, capsys):
    # a JSON object or list as kind used to escape as an unhashable-key
    # TypeError traceback; an unknown string gets the same line
    payload = {"kind": kind, "field": 2}
    with pytest.raises(docs.DocumentError, match="unknown document kind"):
        docs.load_document(payload)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    lines = (out.out + out.err).splitlines()
    assert len(lines) == 1 and f"unknown document kind {kind!r}" in lines[0]


@pytest.mark.parametrize("payload", [[], "complex", 3])
def test_load_document_refuses_a_non_object(payload):
    with pytest.raises(docs.DocumentError) as err:
        docs.load_document(payload)
    assert str(err.value) == "document must be a JSON object"


def _key_probes():
    """(document, message): keys outside the writer's grammar -?[0-9]+, which
    `int` read (" 1" as 1, "1_0" as 10, Arabic-Indic digits), and pairs of
    keys that parse alike, of which the later silently replaced the earlier
    (the first two loaded with d_1 = 0 and d_1 = 1 and validated OK)."""
    cx = {"kind": "complex", "field": 2, "window": [0, 1], "dims": {"0": 1, "1": 1}}
    probes = [
        ({**cx, "diff": {"1": [[1]], "01": [[0]]}}, "duplicate key '01' in diff"),
        ({**cx, "diff": {"01": [[0]], "1": [[1]]}}, "duplicate key '1' in diff"),
        ({**cx, "dims": {"0": 1, "1": 1, " 1": 2}}, "bad key ' 1' in dims"),
        ({**cx, "dims": {"0": 1, "1_0": 1, "\u0661": 3}}, "bad key '1_0' in dims"),
        ({**cx, "dims": {"0": 1, "+1": 1}}, "bad key '+1' in dims"),
        ({**cx, "dims": {"0": 1, "-0": 1}}, "duplicate key '-0' in dims"),
    ]
    g = expand_to_premonoid(random_two_constant(random.Random(29), GF2), 2)
    for section, key, alias, message in [
        ("structure", "0,0", "0,00", "duplicate key '0,00' in structure"),
        ("structure", "0,0", "0, 0", "bad key '0, 0' in structure"),
        ("laxity", "1,1", "1,01", "duplicate key '1,01' in laxity"),
        ("laxity", "1,1", "1,+1", "bad key '1,+1' in laxity"),
        ("objects", "2", "02", "duplicate key '02' in objects"),
    ]:
        doc = docs.diagram_to_dict(g, "premonoid")
        doc[section][alias] = doc[section][key]
        probes.append((doc, message))
    doc = docs.diagram_to_dict(g, "premonoid")
    doc["structure"]["0,0"]["-00"] = doc["structure"]["0,0"]["0"]
    probes.append((doc, "duplicate key '-00' in components at ('structure', '0,0')"))
    return probes


@pytest.mark.parametrize("payload, message", _key_probes())
def test_keys_outside_the_grammar_or_repeated_are_exit2_with_one_line(
    payload, message, tmp_path, capsys
):
    with pytest.raises(docs.DocumentError) as err:
        docs.load_document(payload)
    assert str(err.value).startswith(message)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out.startswith(f"ERROR {path}: {message}") and out.out.count("\n") == 1
    assert out.err == ""


def test_a_repeated_json_key_is_exit2_with_one_line(tmp_path, capsys):
    # json.load keeps the last of two equal keys: this loaded with d_1 = 0
    # and validated OK; a Python dict cannot hold it, so it is file text
    path = tmp_path / "repeated.json"
    path.write_text('{"kind":"complex","field":2,"window":[0,1],"dims":{"0":1,"1":1},'
                    '"diff":{"1":[[1]],"1":[[0]]}}')
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == f"ERROR {path}: malformed JSON in {path}: repeated key '1'\n"
    assert out.err == ""


def test_an_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # int's 4,300-digit limit raised a plain ValueError out of json.load: one
    # "ERROR:" line without the path, exit 1, and the next path never read
    big, good = tmp_path / "big.json", tmp_path / "two_constant.json"
    big.write_text('{"kind":"complex","field":1' + "0" * 4999 + ',"window":[0,0],"dims":{}}')
    good.write_text(docs.dump_document(random_two_constant(random.Random(30), GF2), "two_constant"))
    assert main(["validate", str(big), str(good)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1] == f"OK {good}"
    assert out[0].startswith(f"ERROR {big}: malformed JSON in {big}: Exceeds the limit")


def test_max_dim_cap():
    with pytest.raises(docs.DocumentError):
        docs.complex_from_dict({"field": 2, "dims": {"0": 10}}, max_dim=4)


def test_corrupted_laxity_names_the_square():
    # depending on the differentials, the corruption is caught either at load
    # time (chain-map failure naming the laxity key) or by the axiom pass
    rng = random.Random(9)
    f = random_two_constant(rng, GF2)
    g = expand_to_premonoid(f, 2)
    doc = docs.diagram_to_dict(g, "premonoid")
    key = sorted(doc["laxity"])[0]
    deg = sorted(doc["laxity"][key])[0]
    doc["laxity"][key][deg][0][0] = (doc["laxity"][key][deg][0][0] + 1) % 2
    try:
        loaded = docs.diagram_from_dict(doc, kind="premonoid")
    except docs.ValidationFailure as exc:
        assert any("laxity" in str(v.where) for v in exc.violations)
    else:
        from cosegal.premonoid import validate

        report = validate(loaded)
        assert report
        for v in report:
            assert "1" in "".join(str(w) for w in v.where) or v.axiom == "diag-unitality"


def test_canonical_serialization_is_stable():
    rng = random.Random(10)
    c = random_complex(rng, GF5, -1, 2, 3)
    t1 = docs.dump_document(c, "complex")
    t2 = docs.dump_document(c, "complex")
    assert t1 == t2
    assert t1.endswith("\n")
    # key order does not depend on construction order
    payload = json.loads(t1)
    shuffled = json.loads(json.dumps(payload))
    _, c2 = docs.load_document(shuffled)
    assert docs.dump_document(c2, "complex") == t1
