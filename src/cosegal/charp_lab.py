"""Symmetric-group coinvariants of tensor powers, demonstrated exactly.

Over the rationals the symmetric power of an acyclic disc stays acyclic;
over F_2 it does not, because the Koszul sign that would kill the square of
an odd-degree class vanishes.  This is the obstruction that blocks a naive
homotopy theory of strict commutative differential graded algebras in
positive characteristic, and the reason the replacement machinery in this
package moves the multiplication one level up instead of quotienting.

Nothing here asserts expected homology numbers a priori: the demo computes
them, and the test suite pins values produced by an independent brute-force
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chain import (
    ChainComplex,
    ChainMap,
    braiding,
    homology_dims,
    tensor,
    tensor_map,
)
from .field_linalg import Field, InvariantError, Matrix, quotient

__all__ = ["SymPower", "sym_power", "tensor_power", "disc", "demo_char_p"]


@dataclass
class SymPower:
    """A symmetric power: base, exponent, the coinvariants complex and the
    coequalizing projection from the tensor power."""

    base: ChainComplex
    exponent: int
    result: ChainComplex
    projection: ChainMap


def tensor_power(c: ChainComplex, n: int) -> ChainComplex:
    out = c
    for _ in range(n - 1):
        out = tensor(out, c)
    return out


def _transposition_action(c: ChainComplex, n: int, i: int, j: int) -> ChainMap:
    """The signed permutation action of the transposition (i j) on c^(x)n,
    built by composing adjacent braidings (Koszul signs included)."""
    power = tensor_power(c, n)
    action = ChainMap.identity(power)
    # (i j) with i < j as a palindrome of adjacent swaps
    word = list(range(i, j)) + list(range(j - 2, i - 1, -1))
    for k in word:
        action = _adjacent_swap(c, n, k) @ action
    return action


def _adjacent_swap(c: ChainComplex, n: int, k: int) -> ChainMap:
    """Swap tensor factors k and k+1 (0-based) in the left-nested power."""
    # left-nested: ((..(c x c) x c)..); factor swaps act through the nesting
    left = tensor_power(c, k) if k >= 1 else None
    tau = braiding(c, c)
    block = tau
    if left is not None:
        block = tensor_map(ChainMap.identity(left), tau)
    out = block
    for _ in range(n - k - 2):
        out = tensor_map(out, ChainMap.identity(c))
    src = tensor_power(c, n)
    # the nesting of `out`'s endpoints agrees with tensor_power's nesting
    if out.source != src or out.target != src:
        raise InvariantError("swap nesting disagrees with the tensor power")
    return out


def sym_power(c: ChainComplex, n: int) -> SymPower:
    """Coinvariants of the n-th tensor power under all signed transpositions.

    Transpositions generate the symmetric group, so quotienting by
    v - sign . (transposed v) over all transpositions gives the full
    coinvariants.  Exponents are capped to keep the tensor power small.
    """
    if n < 1:
        raise ValueError("exponent must be positive")
    if n > 4:
        raise ValueError("exponent capped at 4 (tensor powers grow fast)")
    power = tensor_power(c, n)
    if n == 1:
        return SymPower(c, 1, c, ChainMap.identity(c))
    fld = c.field
    actions = [
        _transposition_action(c, n, i, j) for i, j in combinations(range(n), 2)
    ]
    dims, diff, projs = {}, {}, {}
    for deg in power.dims:
        k = power.dim(deg)
        rels = []
        ident = Matrix.identity(fld, k)
        for act in actions:
            rels.append((ident - act.component(deg)).data)
        qdim, proj = quotient(fld, k, Matrix(fld, np.vstack(rels)))
        if qdim:
            dims[deg] = qdim
        projs[deg] = proj
    from .chain import induced_matrix

    for deg in sorted(dims):
        if dims.get(deg - 1, 0):
            diff[deg] = induced_matrix(
                projs[deg], projs[deg - 1] @ power.d(deg)
            )
    result = ChainComplex(fld, dims, diff)
    projection = ChainMap(
        power, result, {deg: projs[deg] for deg in power.dims if dims.get(deg, 0)}
    )
    return SymPower(c, n, result, projection)


def disc(field: Field, degree: int) -> ChainComplex:
    """The acyclic disc with identity differential from `degree` down."""
    return ChainComplex(
        field,
        {degree: 1, degree - 1: 1},
        {degree: Matrix.identity(field, 1)},
    )


def demo_char_p(characteristic: int, exponent: int = 2, degree: int = 1) -> dict:
    """Homology of the symmetric power of an acyclic disc over the chosen
    field.  Returns a report dict; acyclicity is whatever the computation
    says, never an a-priori claim."""
    field = Field(characteristic)
    d = disc(field, degree)
    sp = sym_power(d, exponent)
    hom = homology_dims(sp.result)
    return {
        "field": str(field),
        "characteristic": characteristic,
        "disc_degree": degree,
        "exponent": exponent,
        "power_dims": {str(k): v for k, v in sorted(sp.result.dims.items())},
        "homology": {str(k): v for k, v in sorted(hom.items())},
        "acyclic": not hom,
    }
