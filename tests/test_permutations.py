"""Braidings, associators and factor swaps as one Koszul-signed permutation.

`chain._permutation` builds the map between two bracketings of the same
factors, such as ((a, b), c) -> (a, (b, c)), from the source bracketing, the
target bracketing and the permutation of factors.  It is compared here with
`oracles.oracle_permutation`, which labels each basis vector by its factors
through the nested `tensor_basis` labels, on plain lists, and signs it with
`koszul_sign`.  By coherence the maps the package once built as composites
(the middle-four interchange as five maps, an adjacent swap as a braiding
conjugated by associators) must equal the direct ones, and a tensor product
of strict commutative monoids must be one again.
"""

from itertools import product
from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from cosegal.chain import (
    ChainComplex,
    ChainMap,
    _permutation,
    associator,
    braiding,
    tensor,
    tensor_map,
)
from cosegal.charp_lab import _adjacent_swap, tensor_power
from cosegal.field_linalg import GF2, GF3, GF5, QQ
from cosegal.premonoid import validate_strict
from cosegal.sampling import (
    acyclic_monoid,
    exterior_monoid,
    monoid_algebra,
    monoid_tensor,
    random_commutative_table,
    random_complex,
    random_strict_monoid,
)

from oracles import bracketing_dims, oracle_permutation

FIELDS = (GF2, GF3, GF5, QQ)


def _dims(bracketing):
    """The bracketing with each complex replaced by its dims, for the oracle."""
    if isinstance(bracketing, ChainComplex):
        return dict(bracketing.dims)
    return tuple(map(_dims, bracketing))


def _bracket(rng, factors):
    """A random bracketing of the factors, in order."""
    if len(factors) == 1:
        return factors[0]
    k = rng.randrange(1, len(factors))
    return (_bracket(rng, factors[:k]), _bracket(rng, factors[k:]))


def _check(f, source, target, perm, p):
    src, tgt = _dims(source), _dims(target)
    assert dict(f.source.dims) == bracketing_dims(src)
    assert dict(f.target.dims) == bracketing_dims(tgt)
    # factors live on [-1, 2] and there are at most four of them
    for n in range(-5, 10):
        assert f.component(n).tolist() == oracle_permutation(src, tgt, perm, n, p)


def _inverse(alpha: ChainMap) -> ChainMap:
    """An associator's inverse: it permutes a basis, so it is the transpose."""
    return ChainMap(alpha.target, alpha.source, {n: m.transpose() for n, m in alpha.components.items()})


def _five_map_interchange(a, b):
    """(a (x) b) (x) (a (x) b) -> (a (x) a) (x) (b (x) b) composed of
    associators and one braiding."""
    ida, idb = ChainMap.identity(a), ChainMap.identity(b)
    step1 = associator(a, b, tensor(a, b))
    step2 = tensor_map(ida, _inverse(associator(b, a, b)))
    step3 = tensor_map(ida, tensor_map(braiding(b, a), idb))
    step4 = tensor_map(ida, associator(a, b, b))
    step5 = _inverse(associator(a, a, tensor(b, b)))
    return step5 @ step4 @ step3 @ step2 @ step1


def _conjugated_swap(c, n, k):
    """Factors k and k+1 of the left-nested n-th power swapped: id (x) tau
    conjugated by the associator onto c^k (x) (c (x) c), tensored with the
    later factors."""
    tau = braiding(c, c)
    if k == 0:
        swap = tau
    else:
        left = tensor_power(c, k)
        alpha = associator(left, c, c)
        swap = _inverse(alpha) @ tensor_map(ChainMap.identity(left), tau) @ alpha
    for _ in range(n - k - 2):
        swap = tensor_map(swap, ChainMap.identity(c))
    return swap


@given(st.sampled_from(FIELDS), st.integers(0, 2**32 - 1), st.integers(2, 4))
@seed(20)
@settings(max_examples=60, deadline=None)
def test_permutations_match_the_label_oracle(field, draw, k):
    # complexes on [-1, 2] (odd and negative degrees, some degrees empty),
    # drawn into a pool smaller than the factor list, so factors repeat
    rng = Random(draw)
    p = field.characteristic
    pool = [random_complex(rng, field, -1, 2, 2 if k < 4 else 1) for _ in range(rng.randrange(1, k + 1))]
    factors = [rng.choice(pool) for _ in range(k)]
    perm = tuple(rng.sample(range(k), k))
    source = _bracket(rng, factors)
    target = _bracket(rng, [factors[f] for f in perm])
    _check(_permutation(source, target, perm), source, target, perm, p)

    a, b, c = (factors[m % k] for m in range(3))
    _check(braiding(a, b), (a, b), (b, a), (1, 0), p)
    alpha = associator(a, b, c)
    _check(alpha, ((a, b), c), (a, (b, c)), (0, 1, 2), p)
    inverse = _permutation((a, (b, c)), ((a, b), c), (0, 1, 2))
    _check(inverse, (a, (b, c)), ((a, b), c), (0, 1, 2), p)
    assert inverse == _inverse(alpha)
    assert inverse @ alpha == ChainMap.identity(alpha.source)

    # the four-factor maps on smaller complexes
    x, y = (random_complex(rng, field, -1, 2, 1) for _ in range(2))
    mid4 = _permutation(((x, y), (x, y)), ((x, x), (y, y)), (0, 2, 1, 3))
    _check(mid4, ((x, y), (x, y)), ((x, x), (y, y)), (0, 2, 1, 3), p)
    assert mid4 == _five_map_interchange(x, y)
    for n in (2, 3, 4):
        nested = x
        for _ in range(n - 1):
            nested = (nested, x)
        for m in range(n - 1):
            swap = _adjacent_swap(x, n, m)
            perm = tuple(range(m)) + (m + 1, m) + tuple(range(m + 2, n))
            _check(swap, nested, nested, perm, p)
            assert swap == _conjugated_swap(x, n, m)


def _monoid(rng, field, kind):
    if kind == "algebra":
        return monoid_algebra(field, random_commutative_table(rng, rng.randrange(1, 4)))
    if kind == "exterior":
        return exterior_monoid(field)
    if kind == "acyclic":
        return acyclic_monoid(field)
    return random_strict_monoid(rng, field)


KINDS = ("algebra", "exterior", "acyclic", "random")


def test_monoid_tensor_is_a_strict_commutative_monoid():
    # the interchange carries the Koszul sign between odd factors, so the
    # exterior and acyclic monoids tensored with each other are the sharp case
    # (two random monoids, each up to 6-dimensional, would make a 46,656-
    # dimensional triple tensor power for the associativity check)
    rng = Random(21)
    for field in (GF2, GF3, QQ):
        for first, second in product(KINDS, KINDS):
            if first == second == "random":
                continue
            m1, m2 = _monoid(rng, field, first), _monoid(rng, field, second)
            m = monoid_tensor(m1, m2)
            assert validate_strict(m) == [], (field, first, second)
            composite = tensor_map(m1.mu, m2.mu) @ _five_map_interchange(m1.obj, m2.obj)
            assert m.mu == composite


def test_a_field_mismatch_is_refused():
    a, b = random_complex(Random(23), GF2, 0, 1, 2), random_complex(Random(23), GF3, 0, 1, 2)
    for call in (lambda: braiding(a, b), lambda: associator(a, a, b), lambda: associator(b, a, a)):
        with pytest.raises(ValueError, match="field mismatch"):
            call()
