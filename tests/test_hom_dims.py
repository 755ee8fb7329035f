"""Hom-space dimensions against brute-force counts over F_2.

On tiny complexes every degreewise map is enumerated and tested with the
plain-list code of tests/oracles.py: the chain maps X -> Y, the commuting
squares over a sphere-disc inclusion, and the lifts of each square.  A
subspace of size N over F_2 has dimension log2 N, so each library basis must
have exactly that many elements, and they must be linearly independent."""

import random
from itertools import product

from cosegal.chain import (
    _square_space_basis,
    chain_map_basis,
    generating_cofibrations,
    has_rlp,
    rlp_window,
    solve_lifting,
)
from cosegal.field_linalg import GF2
from cosegal.sampling import random_chain_map, random_complex, random_trivial_fibration

from oracles import _dense_product, gauss_rank, oracle_chain_map_defects


def plain(m):
    return [[int(x) for x in row] for row in m.tolist()]


def plain_complex(c):
    return dict(c.dims), {n: plain(m) for n, m in c.diff.items()}


def plain_map(f):
    return {n: plain(m) for n, m in f.components.items()}


def degreewise_maps(src_dims, tgt_dims):
    """Every degreewise F_2-linear map, as degree -> list of rows."""
    shapes = [(n, tgt_dims[n], src_dims[n]) for n in sorted(src_dims) if n in tgt_dims]
    for bits in product((0, 1), repeat=sum(r * c for _, r, c in shapes)):
        comps, i = {}, 0
        for n, r, c in shapes:
            comps[n] = [list(bits[i + a * c : i + (a + 1) * c]) for a in range(r)]
            i += r * c
        yield comps


def is_chain_map(src, tgt, comps):
    return oracle_chain_map_defects(*src, *tgt, comps, 2) == []


def dense(f, dims_a, dims_b):
    """A plain map A -> B on every degree of A or B, absent blocks as zeros."""
    return {
        n: f.get(n) or [[0] * dims_a.get(n, 0) for _ in range(dims_b.get(n, 0))]
        for n in set(dims_a) | set(dims_b)
    }


def composite(outer, inner, dims_a, dims_b, dims_c):
    """outer . inner for plain maps A -> B -> C, on every degree of A or C."""
    return {
        n: _dense_product(outer.get(n), inner.get(n), dims_c.get(n, 0), dims_b.get(n, 0),
                          dims_a.get(n, 0), 2)
        for n in set(dims_a) | set(dims_c)
    }


def coordinates(f):
    """The entries of a library chain map, every degree of its ends, in order."""
    blocks = dense(plain_map(f), f.source.dims, f.target.dims)
    return [x for n in sorted(blocks) for row in blocks[n] for x in row]


def independent(vectors):
    return gauss_rank(vectors, 2) == len(vectors)


def tiny_maps():
    rng = random.Random(41)
    for case in range(8):
        if case % 2:
            yield random_trivial_fibration(rng, GF2, 0, 0, 1)
        else:
            x = random_complex(rng, GF2, 0, 1, 2)
            yield random_chain_map(rng, x, random_complex(rng, GF2, 0, 1, 2))


def test_chain_map_basis_dimension_is_the_brute_force_count():
    for g in tiny_maps():
        for x, y in ((g.source, g.target), (g.target, g.source)):
            basis = chain_map_basis(x, y)
            px, py = plain_complex(x), plain_complex(y)
            count = sum(
                is_chain_map(px, py, comps) for comps in degreewise_maps(x.dims, y.dims)
            )
            assert 2 ** len(basis) == count
            assert independent([coordinates(b) for b in basis])


def test_square_and_lift_counts_over_sphere_disc_inclusions():
    seen_liftable = seen_unliftable = 0
    for g in tiny_maps():
        x, y = g.source, g.target
        px, py, pg = plain_complex(x), plain_complex(y), plain_map(g)
        for gen in generating_cofibrations(GF2, *rlp_window(g)):
            alpha, u, v = gen.inclusion, gen.sphere, gen.disc
            pu, pv, pa = plain_complex(u), plain_complex(v), plain_map(alpha)
            tops = [t for t in degreewise_maps(u.dims, x.dims) if is_chain_map(pu, px, t)]
            bottoms = [b for b in degreewise_maps(v.dims, y.dims) if is_chain_map(pv, py, b)]
            ks = [k for k in degreewise_maps(v.dims, x.dims) if is_chain_map(pv, px, k)]
            squares = [
                (t, b)
                for t in tops
                for b in bottoms
                if composite(pg, t, u.dims, x.dims, y.dims)
                == composite(b, pa, u.dims, v.dims, y.dims)
            ]
            basis = _square_space_basis(alpha, g)
            assert 2 ** len(basis) == len(squares)
            assert independent([coordinates(t) + coordinates(b) for t, b in basis])
            liftable = True
            for top, bottom in basis:
                top_d = dense(plain_map(top), u.dims, x.dims)
                bottom_d = dense(plain_map(bottom), v.dims, y.dims)
                lifts = [
                    k
                    for k in ks
                    if composite(k, pa, u.dims, v.dims, x.dims) == top_d
                    and composite(pg, k, v.dims, x.dims, y.dims) == bottom_d
                ]
                lift = solve_lifting(alpha, g, top, bottom)
                if lift is None:
                    assert lifts == []
                else:
                    assert dense(plain_map(lift), v.dims, x.dims) in [
                        dense(k, v.dims, x.dims) for k in lifts
                    ]
                liftable = liftable and bool(lifts)
            assert has_rlp(alpha, g) == liftable
            seen_liftable += liftable
            seen_unliftable += not liftable
    assert seen_liftable and seen_unliftable
