"""Chain maps are checked once, where they enter.

`ChainMap(...)` checks d.f = f.d; the operations that build chain maps out
of chain maps (composites, sums, tensor maps, colimit legs, induced maps,
Hom-space solutions) build theirs with the unchecked `chain._trusted_map`.
These tests swap the checked constructor back in for it: the answers must
not move, and a closed operation that breaks the condition must then fail.
A counter shows that only documents and sampling still run the check."""

import contextlib
import io
import json
import sys
from random import Random

import pytest

from cosegal import chain, documents
from cosegal.chain import (
    ChainMap,
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


@pytest.fixture
def checked(monkeypatch):
    """Every closed operation builds its chain map with the checked constructor."""
    monkeypatch.setattr(chain, "_trusted_map", ChainMap)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


def test_golden_reports_are_the_same_with_every_map_checked(
    workdir, tmp_path, monkeypatch, checked
):
    monkeypatch.chdir(workdir)
    for argv, golden, code in CASES:
        assert _cli(argv) == (code, (GOLDEN / golden).read_bytes()), argv
    for argv, report, document in OUT_CASES:
        out = tmp_path / document
        assert _cli(argv + ["--out", str(out)]) == (0, (GOLDEN / report).read_bytes()), argv
        assert out.read_bytes() == (GOLDEN / document).read_bytes()


def test_hom_spaces_are_the_same_with_every_map_checked(checked):
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


@pytest.mark.parametrize(
    "record, field",
    [(_free_record, GF2), (_free_record, GF3), (_free_record, QQ),
     (_lifting_record, QQ), (_lifting_record, GF5)],
    ids=["free-F_2", "free-F_3", "free-Q", "lifting-Q", "lifting-F_5"],
)
def test_constructions_are_the_same_with_every_map_checked(record, field, monkeypatch):
    seeds = range(3)
    trusted = [record(field, seed) for seed in seeds]
    monkeypatch.setattr(chain, "_trusted_map", ChainMap)
    assert [record(field, seed) for seed in seeds] == trusted


_KRON = Matrix.kron


def _flip_next_kron(monkeypatch):
    """Matrix.kron, with entry (0, 0) of its next result raised by one."""
    calls = []

    def flipped(self, other):
        m = _KRON(self, other)
        if calls:
            return m
        calls.append(1)
        num = m.num.copy()
        num[0, 0] += m.den
        return Matrix(m.field, num, m.den)

    monkeypatch.setattr(Matrix, "kron", flipped)


def test_a_broken_closed_operation_fails_only_when_checked(monkeypatch):
    # the disc's identity (x) the point: flipping the degree-0 block to zero
    # leaves the degree-1 identity, which no longer commutes with d
    disc = chain.GeneratingCofibration(1, GF2).disc
    point = single_complex(GF2, 0, 1)
    f, g = ChainMap.identity(disc), ChainMap.identity(point)
    built = tensor(disc, point)  # the operands' tensor is shared, so not rebuilt below
    _flip_next_kron(monkeypatch)
    assert tensor_map(f, g) != ChainMap.identity(built)
    _flip_next_kron(monkeypatch)
    monkeypatch.setattr(chain, "_trusted_map", ChainMap)
    with pytest.raises(ValueError, match="not a chain map at degree 1"):
        tensor_map(f, g)


def test_only_documents_and_sampling_check_chain_maps(workdir, tmp_path, monkeypatch):
    # the chain the cosegalify benchmark job runs, on the level-4 fixture
    init, callers = ChainMap.__init__, {}

    def counted(self, *args, **kwargs):
        caller = sys._getframe(1).f_globals["__name__"]
        callers[caller] = callers.get(caller, 0) + 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainMap, "__init__", counted)
    doc = str(workdir / "fixtures" / "premonoid_level4.json")
    s, e = str(tmp_path / "s.json"), str(tmp_path / "e.json")
    for argv in (
        ["validate", doc],
        ["cosegalify", doc, "--level", "4", "--out", s],
        ["validate", s],
        ["pushout-k2", s, "--degree", "1", "--out", e],
        ["validate", e],
    ):
        assert _cli(argv)[0] == 0, argv
    assert set(callers) == {"cosegal.documents", "cosegal.sampling"}
