"""Complexes, chain maps and cocones are checked once, where they enter.

`ChainMap(...)` checks d.f = f.d and `ChainComplex(...)` checks d.d = 0; the
operations that build maps and complexes out of maps and complexes
(composites, sums, tensor maps, colimit legs, induced maps, Hom-space
solutions; tensors, cones, cylinders, colimit objects) build theirs with the
unchecked `chain._trusted_map` and `chain._trusted_complex`.
`Colimit.induce` checks that its cocone descends; the callers whose cocones
descend by construction read the map off with the unchecked
`chain._read_off`.  Matrices reduced by construction (identities, zeros,
F_p slices and products, tensor blocks written in place) are taken over by
the unchecked `field_linalg._trusted_matrix`.  These tests swap the checked
versions back in: the answers must not move, and a closed operation that
breaks its invariant must then fail.  Counters show that only documents and sampling still run
the chain-map and d.d checks, and that no descent check runs on the
command-line paths."""

import contextlib
import io
import json
import sys
from random import Random

import pytest

from cosegal import chain, documents, field_linalg, free_gamma, two_constant
from cosegal.chain import (
    ChainComplex,
    ChainMap,
    Colimit,
    cylinder_factorization,
    generating_cofibrations,
    has_rlp,
    rlp_window,
    single_complex,
    tensor,
    tensor_map,
)
from cosegal.cli import main
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Matrix
from cosegal.free_gamma import gamma_na, universal_extension
from cosegal.sampling import (
    random_chain_map,
    random_complex,
    random_tower_diagram,
    random_trivial_fibration,
)

import test_chain
from test_golden import CASES, GOLDEN, HOM_SPACES, OUT_CASES, hom_spaces, workdir  # noqa: F401


def _check_everything(monkeypatch):
    """Every closed operation builds its chain maps and complexes with the
    checked constructors, and every map out of a colimit is induced."""
    monkeypatch.setattr(chain, "_trusted_map", ChainMap)
    monkeypatch.setattr(chain, "_trusted_complex", ChainComplex)
    for module in (free_gamma, two_constant):
        monkeypatch.setattr(module, "_read_off", Colimit.induce)


def _check_matrices(monkeypatch):
    """Every binding of `field_linalg._trusted_matrix` is the checked
    `Matrix(...)`, which reduces and normalises its entries again."""
    trusted = field_linalg._trusted_matrix
    for name, module in list(sys.modules.items()):
        if name.startswith("cosegal") and getattr(module, "_trusted_matrix", None) is trusted:
            monkeypatch.setattr(module, "_trusted_matrix", Matrix)


@pytest.fixture
def checked(monkeypatch):
    _check_everything(monkeypatch)


@pytest.fixture
def checked_matrices(monkeypatch):
    _check_matrices(monkeypatch)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


def _golden_reports_match(workdir, tmp_path, monkeypatch):
    monkeypatch.chdir(workdir)
    for argv, golden, code in CASES:
        assert _cli(argv) == (code, (GOLDEN / golden).read_bytes()), argv
    for argv, report, document in OUT_CASES:
        out = tmp_path / document
        assert _cli(argv + ["--out", str(out)]) == (0, (GOLDEN / report).read_bytes()), argv
        assert out.read_bytes() == (GOLDEN / document).read_bytes()


def test_golden_reports_are_the_same_with_every_map_checked(
    workdir, tmp_path, monkeypatch, checked
):
    _golden_reports_match(workdir, tmp_path, monkeypatch)


def test_golden_reports_are_the_same_with_every_matrix_checked(
    workdir, tmp_path, monkeypatch, checked_matrices
):
    _golden_reports_match(workdir, tmp_path, monkeypatch)


def test_hom_spaces_are_the_same_with_every_map_checked(checked):
    assert hom_spaces() == json.loads(HOM_SPACES.read_text())


def test_hom_spaces_are_the_same_with_every_matrix_checked(checked_matrices):
    assert hom_spaces() == json.loads(HOM_SPACES.read_text())


@pytest.mark.parametrize(
    "test",
    [
        test_chain.test_braiding_chain_map_involution_hexagon,
        test_chain.test_kunneth_random_pairs,
        test_chain.test_direct_sum_structure,
        test_chain.test_pushout_universal_map,
    ],
    ids=lambda t: t.__name__,
)
def test_chain_layer_properties_hold_with_every_map_checked(test, checked):
    test()


def _free_record(field, seed):
    f = random_tower_diagram(Random(seed), field, 3, 0, 1, 2)
    g, eta = gamma_na(f)
    ext = universal_extension(f, g, eta)
    return documents.dump_document(g, "na_diagram"), eta.components, ext.components


def _lifting_record(field, seed):
    rng = Random(seed)
    if seed % 2:
        g = random_trivial_fibration(rng, field, 0, 2, 2)
    else:
        x, y = random_complex(rng, field, 0, 2, 2), random_complex(rng, field, 0, 2, 2)
        g = random_chain_map(rng, x, y)
    gens = generating_cofibrations(field, *rlp_window(g))
    return [has_rlp(gen.inclusion, g) for gen in gens], cylinder_factorization(g)


RECORDS = pytest.mark.parametrize(
    "record, field",
    [(_free_record, GF2), (_free_record, GF3), (_free_record, QQ),
     (_lifting_record, QQ), (_lifting_record, GF5)],
    ids=["free-F_2", "free-F_3", "free-Q", "lifting-Q", "lifting-F_5"],
)


@RECORDS
def test_constructions_are_the_same_with_every_map_checked(record, field, monkeypatch):
    seeds = range(3)
    trusted = [record(field, seed) for seed in seeds]
    _check_everything(monkeypatch)
    assert [record(field, seed) for seed in seeds] == trusted


@RECORDS
def test_constructions_are_the_same_with_every_matrix_checked(record, field, monkeypatch):
    seeds = range(3)
    trusted = [record(field, seed) for seed in seeds]
    _check_matrices(monkeypatch)
    assert [record(field, seed) for seed in seeds] == trusted


_WRITTEN = chain._written


def _flip_next_written(monkeypatch):
    """chain._written, with entry (0, 0) of its next result raised by one."""
    calls = []

    def flipped(*args):
        m = _WRITTEN(*args)
        if calls:
            return m
        calls.append(1)
        num = m.num.copy()
        num[0, 0] += m.den
        return Matrix(m.field, num, m.den)

    monkeypatch.setattr(chain, "_written", flipped)


def test_a_broken_closed_operation_fails_only_when_checked(monkeypatch):
    # the disc's identity (x) the point: flipping the degree-0 component to zero
    # leaves the degree-1 identity, which no longer commutes with d
    disc = chain.GeneratingCofibration(1, GF2).disc
    point = single_complex(GF2, 0, 1)
    f, g = ChainMap.identity(disc), ChainMap.identity(point)
    built = tensor(disc, point)  # the operands' tensor is shared, so not rebuilt below
    _flip_next_written(monkeypatch)
    assert tensor_map(f, g) != ChainMap.identity(built)
    _flip_next_written(monkeypatch)
    monkeypatch.setattr(chain, "_trusted_map", ChainMap)
    with pytest.raises(ValueError, match="not a chain map at degree 1"):
        tensor_map(f, g)


def test_a_broken_complex_construction_fails_only_when_checked(monkeypatch):
    # entry (0, 0) of d_1 of disc (x) disc is its 1 (x) d_1 block, from (0, 1)
    # to (0, 0); zeroing it leaves d_1 = [0 1] against d_2 = [1 1]^T, so d.d != 0
    def broken():
        disc = chain.GeneratingCofibration(1, GF2).disc  # a fresh operand, not shared
        return tensor(disc, disc)

    _flip_next_written(monkeypatch)
    c = broken()
    assert not (c.d(1) @ c.d(2)).is_zero()
    _flip_next_written(monkeypatch)
    monkeypatch.setattr(chain, "_trusted_complex", ChainComplex)
    with pytest.raises(ValueError, match=r"d\.d != 0 at degree 2"):
        broken()


def _commands(workdir, tmp_path):
    """The chain the cosegalify benchmark job runs on the level-4 fixture,
    then `gamma` on the point diagram."""
    doc = str(workdir / "fixtures" / "premonoid_level4.json")
    s, e = str(tmp_path / "s.json"), str(tmp_path / "e.json")
    for argv in (
        ["validate", doc],
        ["cosegalify", doc, "--level", "4", "--out", s],
        ["validate", s],
        ["pushout-k2", s, "--degree", "1", "--out", e],
        ["validate", e],
        ["gamma", str(workdir / "fixtures" / "point_diagram.json")],
    ):
        assert _cli(argv)[0] == 0, argv


def test_only_documents_and_sampling_check_chain_maps(workdir, tmp_path, monkeypatch):
    # the chain the cosegalify benchmark job runs, on the level-4 fixture
    init, callers = ChainMap.__init__, {}

    def counted(self, *args, **kwargs):
        caller = sys._getframe(1).f_globals["__name__"]
        callers[caller] = callers.get(caller, 0) + 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainMap, "__init__", counted)
    _commands(workdir, tmp_path)
    assert set(callers) == {"cosegal.documents", "cosegal.sampling"}


def test_only_entering_complexes_form_d_d_and_no_cocone_is_checked(
    workdir, tmp_path, monkeypatch
):
    # a d.d product is formed in ChainComplex.__post_init__, called by the
    # generated __init__, called by the builder; a descent product in induce
    matmul, checks, builders = Matrix.__matmul__, ChainComplex.__post_init__.__code__, {}
    descents = []

    def counted(self, other):
        frame = sys._getframe(1)
        if frame.f_code is checks:
            caller = frame.f_back.f_back.f_globals["__name__"]
            builders[caller] = builders.get(caller, 0) + 1
        elif frame.f_code is Colimit.induce.__code__:
            descents.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    _commands(workdir, tmp_path)
    assert builders and set(builders) <= {"cosegal.documents", "cosegal.sampling"}
    assert not descents
    # the counters see both kinds of product where they are formed
    d1, d2 = Matrix.from_rows(GF2, [[1, 1]]), Matrix.from_rows(GF2, [[1], [1]])
    ChainComplex(GF2, {0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    point = single_complex(GF2, 0, 1)
    chain.colimit([point], []).induce([ChainMap.identity(point)])
    assert builders[__name__] == 1 and descents == [1]
