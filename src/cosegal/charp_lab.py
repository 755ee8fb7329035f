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
from functools import reduce

from .chain import ChainComplex, ChainMap, GeneratingCofibration, colimit, homology_dims, tensor
from .chain import _permutation
from .field_linalg import Field, InvariantError

__all__ = ["MAX_EXPONENT", "SymPower", "sym_power", "tensor_power", "disc", "demo_char_p"]

# the largest exponent built: tensor powers grow fast
MAX_EXPONENT = 4


@dataclass
class SymPower:
    """A symmetric power: base, exponent, the coinvariants complex and the
    coequalizing projection from the tensor power."""

    base: ChainComplex
    exponent: int
    result: ChainComplex
    projection: ChainMap


def tensor_power(c: ChainComplex, n: int) -> ChainComplex:
    return reduce(tensor, [c] * n)


def _adjacent_swap(c: ChainComplex, n: int, k: int) -> ChainMap:
    """Swap tensor factors k and k+1 (0-based) of the left-nested power,
    Koszul sign included."""
    nested = reduce(lambda left, _: (left, c), range(n - 1), c)
    swap = _permutation(nested, nested, (*range(k), k + 1, k, *range(k + 2, n)))
    power = tensor_power(c, n)
    if swap.source != power or swap.target != power:
        raise InvariantError("swap nesting disagrees with the tensor power")
    return swap


def sym_power(c: ChainComplex, n: int) -> SymPower:
    """Coinvariants of the n-th tensor power under the signed action of S_n.

    The adjacent transpositions generate S_n, and v - sigma.v for a word
    sigma telescopes into differences across single adjacent swaps, so
    quotienting by v - (swapped v) over the n-1 adjacent swaps gives the full
    coinvariants: the colimit of the tensor power with one self-loop per
    adjacent swap.  Exponents are capped to keep the tensor power small.
    """
    if not 1 <= n <= MAX_EXPONENT:
        raise ValueError(f"exponent must be between 1 and {MAX_EXPONENT}")
    power = tensor_power(c, n)
    coinv = colimit([power], [(0, 0, _adjacent_swap(c, n, k)) for k in range(n - 1)])
    return SymPower(c, n, coinv.obj, coinv.legs[0])


def disc(field: Field, degree: int) -> ChainComplex:
    """The acyclic disc with identity differential from `degree` down."""
    return GeneratingCofibration(degree, field).disc


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
