"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures.  Tolerances are exact equality throughout; the two
timed criteria assert their stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import io
import json
import random
import time

from cosegal import documents as docs
from cosegal.chain import (
    ChainMap,
    cylinder_factorization,
    generating_cofibrations,
    has_rlp,
    homology_dims,
    is_cofibration,
    is_fibration,
    is_quasi_iso,
    is_trivial_fibration,
    rlp_window,
    single_complex,
    tensor,
)
from cosegal.charp_lab import disc, sym_power
from cosegal.cli import main as cli_main
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Matrix
from cosegal.free_gamma import gamma_na, universal_extension
from cosegal.premonoid import (
    from_strict,
    is_cosegal,
    is_easy_weq,
    to_strict,
    validate,
    validate_morphism,
)
from cosegal.sampling import (
    monoid_algebra,
    random_chain_map,
    random_commutative_table,
    random_complex,
    random_k2_instruction,
    random_strict_monoid,
    random_tower_diagram,
    random_trivial_fibration,
    random_two_constant,
    tower_diagram,
)
from cosegal.two_constant import (
    cosegalify_two_constant,
    expand_to_premonoid,
    fundamental_factorization,
    is_k_injective,
    push_instruction_forward,
    pushout_k2,
    reflect,
    upsilon_morphism,
    wide_pushout_two_constant,
)

from oracles import colimit_dim, oracle_sym_power_dims, pushout_universal

FIELDS = (GF2, GF3, GF5, QQ)


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_kunneth():
    """dim H_k(C (x) D) equals the convolution of homology dimensions on 50
    random pairs per field, exactly, in under 5 seconds."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    pairs = 0
    for field in FIELDS:
        for _ in range(50):
            c = random_complex(rng, field, -1, 2, 3)
            d = random_complex(rng, field, -1, 2, 3)
            hc, hd = homology_dims(c), homology_dims(d)
            ht = homology_dims(tensor(c, d))
            degrees = set(ht) | {i + j for i in hc for j in hd}
            for k in degrees:
                expected = sum(hc.get(i, 0) * hd.get(k - i, 0) for i in hc)
                assert ht.get(k, 0) == expected
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    report(1, f"Kunneth exact on {pairs} pairs across 4 fields in {elapsed:.2f}s")


def test_criterion_02_trivial_fibration_iff_rlp():
    """is_trivial_fibration agrees with exhaustive lifting against every
    sphere-disc generator in the inflated window on 100 maps over F_2 (the
    lifting check runs on a basis of the space of commuting squares, which
    is exhaustive over a field), in under 30 seconds."""
    t0 = time.monotonic()
    rng = random.Random(77)
    tf_count = 0
    for k in range(100):
        if k % 3 == 0:
            g = random_trivial_fibration(rng, GF2, -1, 1, 2)
        else:
            x = random_complex(rng, GF2, -1, 2, 3)
            y = random_complex(rng, GF2, -1, 2, 3)
            g = random_chain_map(rng, x, y)
        direct = is_trivial_fibration(g)
        lo, hi = rlp_window(g)
        via_rlp = all(
            has_rlp(gen.inclusion, g) for gen in generating_cofibrations(GF2, lo, hi)
        )
        assert direct == via_rlp
        tf_count += direct
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    report(
        2,
        f"predicate and lifting agree on 100 maps ({tf_count} trivial "
        f"fibrations among them) in {elapsed:.2f}s",
    )


def test_criterion_03_cylinder_factorization():
    """On 50 random maps per field: p.i = f, i degreewise injective, p
    degreewise surjective and a quasi-isomorphism, exactly."""
    rng = random.Random(31)
    count = 0
    for field in FIELDS:
        for _ in range(50):
            a = random_complex(rng, field, -1, 1, 2)
            b = random_complex(rng, field, -1, 1, 2)
            f = random_chain_map(rng, a, b)
            i, p = cylinder_factorization(f)
            assert p @ i == f
            assert is_cofibration(i)
            assert is_fibration(p)
            assert is_quasi_iso(p)
            count += 1
    report(3, f"cylinder factorization exact on {count} maps across 4 fields")


def test_criterion_04_free_construction():
    """The free construction keeps level 1 verbatim; the one-point fixture
    yields dimension 3 at level 2 against the independent comma-category
    colimit oracle; the triangle identity holds on 20 random diagrams."""
    # the fixture: both levels the one-point complex, identity structure map
    s0 = single_complex(GF2, 0, 1)
    fixture = tower_diagram([ChainMap.identity(s0)])
    g, eta = gamma_na(fixture)
    assert g.objects[1] == s0
    assert g.objects[2].dims == {0: 3}
    assert validate(g) == []
    # independent oracle: 2 pair nodes + 1 single-level node + 1 classical
    # node + the level-2 value, glued along the classical node's two arrows
    node_dims = [1, 1, 1, 1, 1]
    arrows = [(3, 4, [[1]]), (3, 1, [[1]])]
    assert colimit_dim(node_dims, arrows, 2) == 3

    rng = random.Random(404)
    checked = 0
    for trial in range(20):
        field = GF2 if trial % 2 == 0 else GF3
        level = 2 if trial % 3 == 0 else 3
        f = random_tower_diagram(rng, field, level, 0, 1, 2)
        gg, eta2 = gamma_na(f)
        assert gg.objects[1] == f.objects[1]
        assert eta2.components[1] == ChainMap.identity(f.objects[1])
        ext = universal_extension(f, gg, eta2)
        for n in range(1, level + 1):
            assert ext.components[n] == ChainMap.identity(gg.objects[n])
        checked += 1
    report(
        4,
        f"level-1 verbatim, fixture dimension 3 matches the oracle, triangle "
        f"identity on {checked} random diagrams at levels <= 3",
    )


def test_criterion_05_level2_attachments():
    """30 random level-2 attachments over F_2: the result validates, the
    upper components of the canonical morphism are identities, the
    reflection is preserved verbatim, and the universal map out of the
    pushout exists and is unique on generators for sampled cocones."""
    rng = random.Random(66)
    for k in range(30):
        f = random_two_constant(rng, GF2, surjective_h=True)
        ins = random_k2_instruction(rng, f, rng.choice([0, 1, 2]))
        e, eps, i_v = pushout_k2(f, ins)
        expanded = expand_to_premonoid(e, 2)
        assert validate(expanded) == []
        ups = upsilon_morphism(f, e, eps, 2)
        assert validate_morphism(ups) == []
        assert ups.component(2) == ChainMap.identity(f.base.obj)
        assert reflect(e) == reflect(f)
        # universal maps for three cocones: identity, reflection, iterated
        assert pushout_universal(eps, i_v, eps, i_v) == ChainMap.identity(e.apex)
        assert pushout_universal(eps, i_v, f.h, ins.p) == e.h
        ins2 = push_instruction_forward(ins, eps)
        e2, eps2, i_v2 = pushout_k2(e, ins2)
        zeta = pushout_universal(eps, i_v, eps2 @ eps, i_v2)
        assert zeta @ eps == eps2 @ eps and zeta @ i_v == i_v2
        # uniqueness on generators: the two legs span every degree
        for deg in e.apex.dims:
            stacked = Matrix.hstack(GF2, [eps.component(deg), i_v.component(deg)])
            assert stacked.rank() == e.apex.dim(deg)
    report(5, "30 attachments: validation, upper identities, reflection, "
              "universal maps with uniqueness on generators")


def test_criterion_06_wide_pushout_route_independence():
    """Wide pushouts of up to 3 instructions agree with iterated pushouts up
    to a constructed comparison that is full-rank in every degree."""
    rng = random.Random(99)
    from cosegal.chain import induced_matrix

    for count in (1, 2, 3):
        f = random_two_constant(rng, GF2, surjective_h=True)
        instructions = [
            random_k2_instruction(rng, f, rng.choice([0, 1])) for _ in range(count)
        ]
        e_wide, src_leg, legs = wide_pushout_two_constant(f, instructions)
        # iterated route, tracking each disc leg
        cur, carry = f, ChainMap.identity(f.apex)
        disc_legs = []
        for ins in instructions:
            ins_f = push_instruction_forward(ins, carry)
            cur, leg, iv = pushout_k2(cur, ins_f)
            disc_legs = [leg @ dl for dl in disc_legs]
            disc_legs.append(iv)
            carry = leg @ carry
        assert {n: e_wide.apex.dim(n) for n in e_wide.apex.dims} == {
            n: cur.apex.dim(n) for n in cur.apex.dims
        }
        assert homology_dims(e_wide.apex) == homology_dims(cur.apex)
        # comparison by the universal property of the wide pushout
        piece_maps = []
        for k, ins in enumerate(instructions):
            piece, eps_k, iv_k = pushout_k2(f, ins)
            piece_maps.append(pushout_universal(eps_k, iv_k, carry, disc_legs[k]))
        comps = {}
        for deg in e_wide.apex.dims:
            through = Matrix.hstack(
                GF2, [src_leg.component(deg)] + [l.component(deg) for l in legs]
            )
            cocone = Matrix.hstack(
                GF2,
                [carry.component(deg)] + [pm.component(deg) for pm in piece_maps],
            )
            comps[deg] = induced_matrix(through, cocone)
        comparison = ChainMap(e_wide.apex, cur.apex, comps)
        for deg in set(e_wide.apex.dims) | set(cur.apex.dims):
            m = comparison.component(deg)
            assert m.rows == m.cols == m.rank()
    report(6, "wide pushout equals iterated pushouts through a full-rank "
              "comparison for 1, 2 and 3 instructions")


def test_criterion_07_replacement():
    """The cylinder replacement always satisfies the diagram condition and
    injectivity against the localizing family at every level up to 4, with
    the reflection preserved identically and a cofibration at level 1."""
    rng = random.Random(55)
    cases = 0
    for trial in range(4):
        base = monoid_algebra(GF2, random_commutative_table(rng, rng.randrange(1, 3)))
        f = random_two_constant(rng, GF2, surjective_h=trial % 2 == 0, base=base)
        for level in (2, 3, 4):
            s, i = cosegalify_two_constant(f)
            tau = upsilon_morphism(f, s, i, level)
            assert is_cosegal(expand_to_premonoid(s, level))
            assert is_k_injective(s, level)
            assert reflect(s) == reflect(f)
            assert is_cofibration(tau.component(1))
            cases += 1
    report(7, f"replacement co-Segal + injective at levels 2..4 on {cases} runs, "
              "reflection preserved, level-1 leg a cofibration")


def test_criterion_08_strict_constant_and_easy_predicates():
    """Constant premonoids round-trip identically on 20 random strict
    monoids; the first factor of every fundamental factorization is an easy
    weak equivalence."""
    rng = random.Random(808)
    for k in range(20):
        field = (GF2, GF3, QQ)[k % 3]
        m = random_strict_monoid(rng, field, allow_graded=field is not QQ)
        f = from_strict(m, 2)
        assert validate(f) == []
        assert to_strict(f) == m
    count = 0
    for _ in range(10):
        f = random_two_constant(rng, GF2)
        rho, eps = fundamental_factorization(f, 2)
        assert is_easy_weq(rho)
        assert eps.component(1) == f.h
        count += 1
    report(8, f"20 round trips identical; rho an easy weak equivalence in "
              f"{count} fundamental factorizations")


def test_criterion_09_characteristic_p():
    """The symmetric square of the acyclic disc is acyclic over Q and has
    nonzero homology over F_2; both values recomputed by the brute-force
    oracle before being compared, in under a second."""
    t0 = time.monotonic()
    oracle_form = {1: (1, [[1]]), 0: (1, None)}
    dims_q, hom_q = oracle_sym_power_dims(oracle_form, 2, 0)
    dims_2, hom_2 = oracle_sym_power_dims(oracle_form, 2, 2)
    assert hom_q == {}
    assert hom_2 and sum(hom_2.values()) > 0
    sp_q = sym_power(disc(QQ, 1), 2)
    sp_2 = sym_power(disc(GF2, 1), 2)
    assert sp_q.result.dims == dims_q and homology_dims(sp_q.result) == hom_q
    assert sp_2.result.dims == dims_2 and homology_dims(sp_2.result) == hom_2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    report(9, f"oracle-pinned homology: Q acyclic, F_2 total homology "
              f"{sum(hom_2.values())} in {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical reports and artifacts given
    the same inputs and seed."""
    rng = random.Random(1001)
    f = random_two_constant(rng, GF2, surjective_h=True)
    fpath = tmp_path / "f.json"
    fpath.write_text(docs.dump_document(f, "two_constant"))
    d = random_tower_diagram(rng, GF2, 2, 0, 1, 1)
    dpath = tmp_path / "d.json"
    dpath.write_text(docs.dump_document(d, "diagram"))

    def run(args, artifact=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(args)
        art = artifact.read_text() if artifact else ""
        return rc, buf.getvalue(), art

    commands = [
        (["validate", str(fpath)], None),
        (["surjections", "4", "2", "--json"], None),
        (["demo-charp", "--field", "2", "--json"], None),
        (["cosegalify", str(fpath), "--level", "2", "--json", "--out", str(tmp_path / "s.json")], tmp_path / "s.json"),
        (["pushout-k2", str(fpath), "--degree", "1", "--seed", "5", "--json", "--out", str(tmp_path / "e.json")], tmp_path / "e.json"),
        (["gamma", str(dpath), "--json", "--out", str(tmp_path / "g.json")], tmp_path / "g.json"),
    ]
    for args, artifact in commands:
        first = run(args, artifact)
        second = run(args, artifact)
        assert first == second, f"non-deterministic output for {args}"
        assert first[0] == 0
    report(10, f"{len(commands)} commands byte-identical across repeated runs")
