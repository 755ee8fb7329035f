import random

import pytest

from cosegal.chain import (
    ChainMap,
    homology_dims,
    is_fibration,
    is_quasi_iso,
    single_complex,
)
from cosegal.charp_lab import demo_char_p, disc, sym_power
from cosegal.field_linalg import GF2, GF3, QQ, Field
from cosegal.premonoid import is_easy_weq
from cosegal.sampling import acyclic_monoid, random_complex
from cosegal.two_constant import (
    TwoConstantPremonoid,
    cosegalify_two_constant,
    expand_to_premonoid,
    upsilon_morphism,
)

from oracles import oracle_sym_power_dims

# frozen from the independent oracle (see test_matches_oracle, which
# recomputes them from scratch on every run)
DISC1_SQUARED = {
    0: ({0: 1, 1: 1}, {}),          # Q: acyclic
    2: ({0: 1, 1: 1, 2: 1}, {2: 1}),  # F_2: the square of the top class survives
    3: ({0: 1, 1: 1}, {}),          # F_3: acyclic again
    5: ({0: 1, 1: 1}, {}),
}


def complex_to_oracle_form(c):
    return {
        n: (c.dim(n), c.d(n).tolist() if c.dim(n) and c.dim(n - 1) else None)
        for n in c.dims
    }


@pytest.mark.parametrize("p", sorted(DISC1_SQUARED), ids=str)
def test_matches_oracle(p):
    d1 = disc(Field(p), 1)
    dims, hom = oracle_sym_power_dims(complex_to_oracle_form(d1), 2, p)
    assert (dims, hom) == DISC1_SQUARED[p]
    sp = sym_power(d1, 2)
    assert sp.result.dims == dims
    assert homology_dims(sp.result) == hom


def test_demo_char_p_reports():
    assert demo_char_p(0)["acyclic"] is True
    rep2 = demo_char_p(2)
    assert rep2["acyclic"] is False
    assert rep2["homology"] == {"2": 1}
    assert demo_char_p(3, exponent=2)["acyclic"] is True


def test_exponent_one_is_identity():
    c = single_complex(GF2, 0, 2)
    sp = sym_power(c, 1)
    assert sp.result == c
    assert sp.projection == ChainMap.identity(c)


def test_sphere_squares():
    for field in (GF2, QQ):
        sp = sym_power(single_complex(field, 0, 1), 2)
        assert sp.result.dims == {0: 1}
    assert sym_power(single_complex(GF2, 1, 1), 2).result.dims == {2: 1}
    assert sym_power(single_complex(QQ, 1, 1), 2).result.dims.get(2, 0) == 0


def test_projection_surjective_chain_map():
    for field in (GF2, GF3, QQ):
        for n in (2, 3):
            sp = sym_power(disc(field, 1), n)
            assert is_fibration(sp.projection)


def test_oracle_agreement_exponent3():
    for p in (0, 2, 3):
        d1 = disc(Field(p), 1)
        dims, hom = oracle_sym_power_dims(complex_to_oracle_form(d1), 3, p)
        sp = sym_power(d1, 3)
        assert sp.result.dims == dims
        assert homology_dims(sp.result) == hom


@pytest.mark.parametrize("p", [0, 2, 3], ids=str)
@pytest.mark.parametrize("exponent", [3, 4])
def test_oracle_agreement_random_complexes(p, exponent):
    # complexes with several degrees, so the left nesting of the tensor
    # power differs from the right nesting; sizes keep the oracle small
    rng = random.Random(100 * exponent + p)
    cap = {3: 4, 4: 3}[exponent] - (p == 0)
    hi = 2 if exponent == 3 else 1
    complexes = []
    while len(complexes) < 6:
        c = random_complex(rng, Field(p), 0, hi, 2)
        if 2 <= c.total_dim() <= cap:
            complexes.append(c)
    assert any(c.diff for c in complexes)
    for c in complexes:
        dims, hom = oracle_sym_power_dims(complex_to_oracle_form(c), exponent, p)
        sp = sym_power(c, exponent)
        assert sp.result.dims == dims, c
        assert homology_dims(sp.result) == hom, c
        assert is_fibration(sp.projection)


def test_demo_charp_exponent_four():
    for p in (0, 2, 3):
        rep = demo_char_p(p, exponent=4)
        d1 = disc(Field(p), 1)
        dims, hom = oracle_sym_power_dims(complex_to_oracle_form(d1), 4, p)
        assert rep["power_dims"] == {str(k): v for k, v in sorted(dims.items())}
        assert rep["homology"] == {str(k): v for k, v in sorted(hom.items())}


def test_rational_discs_stay_acyclic():
    for d in (0, 1, 2):
        for n in (2, 3):
            assert not homology_dims(sym_power(disc(QQ, d), n).result)


def test_higher_field_report_generated():
    rep = demo_char_p(5, exponent=2)
    assert rep["field"] == "F_5"
    assert "acyclic" in rep


def test_cosegal_replacement_keeps_entry_homology():
    # the motivating contrast: over F_2 the strict symmetric square of the
    # acyclic disc has homology, while the co-Segal replacement of the
    # corresponding 2-constant premonoid keeps the level-1 entry acyclic
    assert homology_dims(sym_power(disc(GF2, 1), 2).result) != {}
    m = acyclic_monoid(GF2)
    f = TwoConstantPremonoid(m, disc(GF2, 1), ChainMap.identity(m.obj), m.e)
    s, i = cosegalify_two_constant(f)
    tau = upsilon_morphism(f, s, i, 3)
    assert homology_dims(s.apex) == {}
    assert is_quasi_iso(tau.component(1))
    assert is_easy_weq(tau)
    from cosegal.premonoid import is_cosegal

    assert is_cosegal(expand_to_premonoid(s, 3))
