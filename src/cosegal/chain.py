"""Bounded-window chain complexes over an exact field.

Complexes are zero outside a finite degree window.  The tensor product uses
the Koszul sign convention; the basis of ``(C (x) D)_n`` is ordered by left
degree ascending, then left index, then right index, so unitors against the
one-dimensional unit complex are literal identities.  Every braiding,
associator and factor swap is one Koszul-signed permutation matrix, fixed by
its source bracketing, its target bracketing and its permutation of factors.

Homology is read at the stored degrees.  Lifting is checked against the
generating cofibrations on a window inflated by one degree on each side so
boundary degrees are never silently truncated.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .field_linalg import Field, InvariantError, Matrix, quotient
from .field_linalg import _block_rows, _height, _int_product, _section, _solve_rows
from .field_linalg import _trusted_matrix, _widen

__all__ = [
    "ChainComplex",
    "ChainMap",
    "GeneratingCofibration",
    "unit_complex",
    "single_complex",
    "zero_complex",
    "homology_dims",
    "tensor",
    "tensor_map",
    "braiding",
    "associator",
    "direct_sum",
    "cone",
    "is_quasi_iso",
    "cylinder_factorization",
    "is_cofibration",
    "is_fibration",
    "is_trivial_fibration",
    "solve_lifting",
    "has_rlp",
    "chain_map_basis",
    "generating_cofibrations",
    "rlp_window",
    "Colimit",
    "colimit",
    "pushout",
    "wide_pushout",
    "induced_matrix",
]


@dataclass(frozen=True)
class ChainComplex:
    """A chain complex supported on a finite window of degrees.

    dims maps degree -> dimension (nonzero entries only); diff maps degree n
    to the matrix of d_n : C_n -> C_{n-1}.  Zero differentials are dropped,
    so equality of complexes is equality of the stored data.  Both mappings
    are read-only, since results such as `tensor(c, d)` are shared.
    `ChainComplex(...)` checks shapes and d.d = 0, for complexes from
    outside; the operations here build theirs with `_trusted_complex`.
    """

    field: Field
    dims: dict
    diff: dict

    def __post_init__(self):
        dims = {int(n): int(k) for n, k in self.dims.items() if int(k) != 0}
        if any(k < 0 for k in dims.values()):
            raise ValueError("negative dimension")
        diff = {}
        for n, m in self.diff.items():
            n = int(n)
            if not isinstance(m, Matrix):
                raise TypeError("differential entries must be Matrix")
            if m.shape != (dims.get(n - 1, 0), dims.get(n, 0)):
                raise ValueError(f"differential at degree {n} has wrong shape")
            if not m.is_zero():
                diff[n] = m
        for n, m in diff.items():
            if n - 1 in diff:
                if not (diff[n - 1] @ m).is_zero():
                    raise ValueError(f"d.d != 0 at degree {n}")
        object.__setattr__(self, "dims", MappingProxyType(dims))
        object.__setattr__(self, "diff", MappingProxyType(diff))

    @property
    def window(self) -> tuple[int, int]:
        """Tight window (lo, hi); (0, -1) for the zero complex."""
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def d(self, n: int) -> Matrix:
        m = self.diff.get(n)
        if m is None:
            return Matrix.zeros(self.field, self.dim(n - 1), self.dim(n))
        return m

    def is_zero_complex(self) -> bool:
        return not self.dims

    def __repr__(self):
        return f"ChainComplex({self.field}, dims={dict(self.dims)})"


def _trusted_complex(field: Field, dims: dict, diff: dict) -> ChainComplex:
    """`ChainComplex(...)` without its checks, like `_trusted_map`."""
    out = object.__new__(ChainComplex)
    dims = {n: k for n, k in dims.items() if k}
    diff = {n: m for n, m in diff.items() if not m.is_zero()}
    vars(out).update(field=field, dims=MappingProxyType(dims), diff=MappingProxyType(diff))
    return out


def single_complex(field: Field, degree: int, dim: int = 1) -> ChainComplex:
    """A complex concentrated in one degree with zero differential."""
    return ChainComplex(field, {degree: dim} if dim else {}, {})


def unit_complex(field: Field) -> ChainComplex:
    """The monoidal unit: one-dimensional in degree 0."""
    return single_complex(field, 0, 1)


def zero_complex(field: Field) -> ChainComplex:
    return ChainComplex(field, {}, {})


@dataclass(frozen=True)
class ChainMap:
    """A degreewise linear map commuting with the differentials (read-only
    components).  `ChainMap(...)` checks that, for maps from outside; the
    operations here, which preserve it, build theirs with `_trusted_map`."""

    source: ChainComplex
    target: ChainComplex
    components: dict

    def __post_init__(self):
        if self.source.field != self.target.field:
            raise ValueError("field mismatch between source and target")
        comps = {}
        for n, m in self.components.items():
            n = int(n)
            if m.shape != (self.target.dim(n), self.source.dim(n)):
                raise ValueError(f"component at degree {n} has wrong shape")
            if not m.is_zero():
                comps[n] = m
        object.__setattr__(self, "components", MappingProxyType(comps))
        # d.f = f.d in every degree; both sides vanish unless f_n or f_{n-1}
        # is stored.  Zero blocks are stored as absent, so a product with an
        # absent factor is zero and is never formed.
        d_src, d_tgt = self.source.diff, self.target.diff
        for n in sorted(comps.keys() | {m + 1 for m in comps}):
            lhs = [d_tgt[n] @ comps[n]] if n in d_tgt and n in comps else []
            rhs = [comps[n - 1] @ d_src[n]] if n - 1 in comps and n in d_src else []
            if lhs != rhs and any(not m.is_zero() for m in lhs + rhs):
                raise ValueError(f"not a chain map at degree {n}")

    @property
    def field(self) -> Field:
        return self.source.field

    def component(self, n: int) -> Matrix:
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(self.field, self.target.dim(n), self.source.dim(n))
        return m

    def is_zero(self) -> bool:
        return not self.components

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("non-composable chain maps")
        comps = {}
        for n, m in other.components.items():
            outer = self.components.get(n)
            if outer is not None:
                comps[n] = outer @ m
        return _trusted_map(other.source, self.target, comps)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return self.compose(other)

    def _check_parallel(self, other: "ChainMap"):
        if self.source != other.source or self.target != other.target:
            raise ValueError("chain maps have different endpoints")

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._check_parallel(other)
        degs = set(self.components) | set(other.components)
        comps = {n: self.component(n) + other.component(n) for n in degs}
        return _trusted_map(self.source, self.target, comps)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._check_parallel(other)
        degs = set(self.components) | set(other.components)
        comps = {n: self.component(n) - other.component(n) for n in degs}
        return _trusted_map(self.source, self.target, comps)

    def __repr__(self):
        return f"ChainMap({dict(self.source.dims)} -> {dict(self.target.dims)})"

    @staticmethod
    def identity(c: ChainComplex) -> "ChainMap":
        comps = {n: Matrix.identity(c.field, c.dim(n)) for n in c.dims}
        return _trusted_map(c, c, comps)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return _trusted_map(source, target, {})


def _trusted_map(source: ChainComplex, target: ChainComplex, components: dict) -> ChainMap:
    """`ChainMap(...)` without its checks, like `field_linalg._trusted_matrix`:
    the caller vouches for shapes and d.f = f.d.  Zero blocks are still
    dropped, so equal maps compare equal."""
    out = object.__new__(ChainMap)
    comps = {n: m for n, m in components.items() if not m.is_zero()}
    vars(out).update(source=source, target=target, components=MappingProxyType(comps))
    return out


def homology_dims(c: ChainComplex) -> dict:
    """dim H_n per degree (nonzero entries only), computed by exact ranks."""
    ranks = {n: m.rank() for n, m in c.diff.items()}
    out = {}
    for n in sorted(c.dims):
        h = c.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[n] = h
    return out


# ---------------------------------------------------------------------------
# tensor structure
# ---------------------------------------------------------------------------


def _shared(memo: weakref.WeakValueDictionary, build, *operands):
    """build(*operands), shared while alive and keyed by operand identity.  The
    memo holds results weakly and they hold their operands weakly, so no
    lifetime is extended; checking the operands catches a recycled id()."""
    key = tuple(map(id, operands))
    hit = memo.get(key)
    if hit is not None and all(r() is x for r, x in zip(hit._memo_operands, operands)):
        return hit
    out = build(*operands)
    object.__setattr__(out, "_memo_operands", tuple(map(weakref.ref, operands)))
    memo[key] = out
    return out


_TENSOR_MEMO: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def tensor(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product with Koszul signs: d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.

    The product is shared while it is alive: a second call on the same two
    operand objects returns the same complex.
    """
    return _shared(_TENSOR_MEMO, _build_tensor, c, d)


def _build_tensor(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """The product, whose `_layouts` {n: {(i, j): slice}} fix the tensor basis
    order, for `tensor_map` and `_positions` too: the blocks c_i (x) d_j of
    (c (x) d)_n by left degree ascending, inside a block by left index, then
    right index (Kronecker order), so x (x) y sits at s.start + x * d.dim(j) + y."""
    if c.field != d.field:
        raise ValueError("field mismatch in tensor")
    fld = c.field
    degs = sorted({i + j for i in c.dims for j in d.dims})
    layouts, dims = {n: {} for n in degs}, dict.fromkeys(degs, 0)
    for i in sorted(c.dims):
        for j, k in d.dims.items():
            start = dims[i + j]
            dims[i + j] += c.dims[i] * k
            layouts[i + j][(i, j)] = slice(start, dims[i + j])
    diff = {}
    for n in degs:
        if n - 1 not in layouts:
            continue
        tgt, blocks = layouts[n - 1], []
        for (i, j), cols in layouts[n].items():
            if (i - 1, j) in tgt:
                blocks.append((tgt[(i - 1, j)].start, cols.start, c.diff.get(i), d.dims[j], 1))
            if (i, j - 1) in tgt:
                sign = -1 if i % 2 else 1
                blocks.append((tgt[(i, j - 1)].start, cols.start, c.dims[i], d.diff.get(j), sign))
        diff[n] = _written(fld, dims[n - 1], dims[n], blocks)
    out = _trusted_complex(fld, dims, diff)
    object.__setattr__(out, "_layouts", layouts)
    return out


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """The map f (x) g between the tensor products (no Koszul sign in degree 0)."""
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    comps = {}
    for n in src.dims:
        rows = tgt._layouts.get(n, {})
        blocks = [
            (rows[(i, j)].start, cols.start, f.components.get(i), g.components.get(j), 1)
            for (i, j), cols in src._layouts[n].items()
            if (i, j) in rows
        ]
        comps[n] = _written(f.field, tgt.dim(n), src.dim(n), blocks)
    return _trusted_map(src, tgt, comps)


def _blocks(
    phi: ChainMap, x: ChainComplex, y: ChainComplex, f: ChainMap | None = None,
    g: ChainMap | None = None,
) -> dict:
    """phi . (f (x) g) block by block, for phi : x (x) y -> z, f : x' -> x and
    g : y' -> y (None for the identity), without forming f (x) g (Van Loan,
    "The ubiquitous Kronecker product", 2000).

    Returns {(i, j): (num, den)} for the degrees i of x' and j of y': a
    dim z_{i+j} x dim x'_i x dim y'_j array of numerators (reduced mod p over
    F_p) and their denominator.  Block (i, j) of phi_n is phi_n[:, s] read as
    a dim z_n x dim x_i x dim y_j array, s its slice in tensor(x, y)._layouts,
    so phi's own source need only compare equal to tensor(x, y); then g_j and
    f_i are contracted against its last and middle axes.
    """
    p, layouts = phi.field.characteristic, tensor(x, y)._layouts
    out = {}
    for i, a in (x if f is None else f.source).dims.items():
        for j, b in (y if g is None else g.source).dims.items():
            s, m = layouts.get(i + j, {}).get((i, j)), phi.components.get(i + j)
            factors = [(axis, h.components.get(k))
                       for axis, h, k in ((2, g, j), (1, f, i)) if h is not None]
            if s is None or m is None or any(c is None for _, c in factors):
                out[i, j] = np.zeros((phi.target.dim(i + j), a, b), dtype=np.int64), 1
                continue
            num, den = m.num[:, s].reshape(m.rows, x.dims[i], y.dims[j]), m.den
            for axis, c in factors:
                num = _int_product(num.swapaxes(axis, 2), c.num, p).swapaxes(axis, 2)
                den *= c.den
            out[i, j] = num, den
    return out


def _written(field: Field, rows: int, cols: int, blocks: list) -> Matrix:
    """The rows x cols matrix holding each block (row, col, a, b, sign), sign
    a (x) b, from (row, col) on, and zero elsewhere; blocks do not overlap.  A
    factor is a Matrix, an int n for the n x n identity, or None for zero (its
    block is skipped).  Each block is one outer product written into a 4-d
    view of the output (Van Loan, "The ubiquitous Kronecker product", 2000),
    over Q on one denominator, in Python ints where int64 could overflow."""
    p, parts = field.characteristic, []
    for i, j, a, b, sign in blocks:
        if a is not None and b is not None:
            (a, da), (b, db) = _factor(a), _factor(b)
            parts.append((i, j, a, b, sign, da * db))
    den, bound = math.lcm(*[d for *_, d in parts]), 0
    if not p:
        bound = max([_height(a) * _height(b) * den // d for _, _, a, b, _, d in parts], default=0)
    out = _widen(np.zeros((rows, cols), dtype=np.int64), bound)
    for i, j, a, b, sign, d in parts:
        (ra, ca), (rb, cb) = a.shape, b.shape
        view = out[i : i + ra * rb, j : j + ca * cb].reshape(ra, rb, ca, cb)
        np.multiply(_widen(a, bound)[:, None, :, None], _widen(b, bound)[:, None], out=view)
        if (k := sign * den // d) != 1:
            view *= k
    if p:
        return _trusted_matrix(field, out % p)
    return Matrix(field, out, den)


def _factor(m: Matrix | int) -> tuple[np.ndarray, int]:
    """The numerators and denominator of a Matrix, or of the n x n identity."""
    return (m.num, m.den) if isinstance(m, Matrix) else (_eye(m), 1)


@lru_cache(maxsize=64)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, shared, as a read-only view."""
    return np.broadcast_to(np.eye(n, dtype=np.int64), (n, n))


def _positions(bracketing) -> tuple[ChainComplex, dict]:
    """A bracketing's complex (a complex, or a pair of bracketings) and
    {degree: {factor degrees: (offset, strides, shape)}}: x_1 (x) ... (x) x_k
    sits at offset + sum x_m * strides[m], since x (x) y of the (i, j) block
    of l (x) r sits at start + x * r.dim(j) + y (the `tensor` layout)."""
    if isinstance(bracketing, ChainComplex):
        return bracketing, {i: {(i,): (0, (1,), (m,))} for i, m in bracketing.dims.items()}
    (left, lpos), (right, rpos) = map(_positions, bracketing)
    out = tensor(left, right)
    blocks = {}
    for n in out.dims:
        blocks[n] = here = {}
        for (i, j), s in out._layouts[n].items():
            r = right.dims[j]
            for ldeg, (loff, lstr, lshape) in lpos[i].items():
                lstr = tuple([x * r for x in lstr])
                for rdeg, (roff, rstr, rshape) in rpos[j].items():
                    here[ldeg + rdeg] = (s.start + loff * r + roff, lstr + rstr, lshape + rshape)
    return out, blocks


def _permutation(source, target, perm: tuple) -> ChainMap:
    """The Koszul-signed permutation between two bracketings of the same
    factors, such as ((a, b), c) -> (a, (b, c)): perm[m] is the source factor
    at target position m, and the sign is (-1)^{|x||y|} for each pair of
    factors x, y whose order perm reverses.  The caller vouches that the
    target's factors are the source's in perm's order."""
    src, src_pos = _positions(source)
    tgt, tgt_pos = _positions(target)
    where = [perm.index(f) for f in range(len(perm))]  # target position of each factor
    flips = [(perm[m], perm[k]) for k in range(len(perm)) for m in range(k) if perm[m] > perm[k]]
    minus, comps = src.field.characteristic - 1 if src.field.characteristic else -1, {}
    for n, blocks in src_pos.items():
        dim = src.dims[n]
        out = np.zeros((dim, dim), dtype=np.int64)
        size = out.itemsize
        for degs, (col, col_str, shape) in blocks.items():
            row, row_str, _ = tgt_pos[n][tuple([degs[f] for f in perm])]
            # entry (r, c) is element r * dim + c of out, so the block's entries
            # are one strided view of it
            strides = [(row_str[m] * dim + s) * size for m, s in zip(where, col_str)]
            entries = np.ndarray(shape, out.dtype, out, (row * dim + col) * size, strides)
            entries[...] = minus if sum([degs[x] * degs[y] for x, y in flips]) % 2 else 1
        comps[n] = _trusted_matrix(src.field, out)
    return _trusted_map(src, tgt, comps)


def braiding(c: ChainComplex, d: ChainComplex) -> ChainMap:
    """Symmetry c (x) d -> d (x) c with sign (-1)^{ij} on the (i, j) block."""
    return _permutation((c, d), (d, c), (1, 0))


def associator(a: ChainComplex, b: ChainComplex, c: ChainComplex) -> ChainMap:
    """The permutation (a (x) b) (x) c -> a (x) (b (x) c) regrouping the basis."""
    return _permutation(((a, b), c), (a, (b, c)), (0, 1, 2))


def direct_sum(summands: list[ChainComplex]):
    """Direct sum with inclusion and projection chain maps: the arrowless
    colimit, whose legs are the inclusions and their transposes the projections."""
    if not summands:
        raise ValueError("direct sum of no complexes")
    c = colimit(summands, [])
    projs = [
        _trusted_map(c.obj, leg.source, {n: m.transpose() for n, m in leg.components.items()})
        for leg in c.legs
    ]
    return c.obj, c.legs, projs


# ---------------------------------------------------------------------------
# cones, cylinders, model predicates
# ---------------------------------------------------------------------------


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: Cone(f)_n = A_{n-1} + B_n."""
    a, b, fld = f.source, f.target, f.field
    degs = sorted(set(n + 1 for n in a.dims) | set(b.dims))
    dims = {n: a.dim(n - 1) + b.dim(n) for n in degs}
    diff = {}
    for n in degs:
        rows_a, cols_a = a.dim(n - 2), a.dim(n - 1)
        diff[n] = _written(fld, dims.get(n - 1, 0), dims[n], [
            (0, 0, a.diff.get(n - 1), 1, -1),
            (rows_a, 0, f.components.get(n - 1), 1, -1),
            (rows_a, cols_a, b.diff.get(n), 1, 1),
        ])
    return _trusted_complex(fld, dims, diff)


def is_quasi_iso(f: ChainMap) -> bool:
    return not homology_dims(cone(f))


def is_cofibration(f: ChainMap) -> bool:
    """Over a field: degreewise injective."""
    return all(f.component(n).is_injective() for n in f.source.dims)


def is_fibration(f: ChainMap) -> bool:
    """Degreewise surjective."""
    return all(f.component(n).is_surjective() for n in f.target.dims)


def is_trivial_fibration(f: ChainMap) -> bool:
    return is_fibration(f) and is_quasi_iso(f)


def cylinder_factorization(f: ChainMap) -> tuple[ChainMap, ChainMap]:
    """Factor f as a cofibration i into the mapping cylinder followed by the
    trivial fibration p, with p . i = f.

    Cyl(f)_n = A_n + A_{n-1} + B_n with d(a, a', b) = (da - a', -da', f(a') + db).
    """
    a, b, fld = f.source, f.target, f.field
    degs = sorted(set(a.dims) | set(n + 1 for n in a.dims) | set(b.dims))
    dims = {n: a.dim(n) + a.dim(n - 1) + b.dim(n) for n in degs}
    diff = {}
    for n in dims:
        # rows A_{n-1} + A_{n-2} + B_{n-1}, columns A_n + A_{n-1} + B_n
        c0, c1, r1 = a.dim(n), a.dim(n - 1), a.dim(n - 2)
        diff[n] = _written(fld, dims.get(n - 1, 0), dims[n], [
            (0, 0, a.diff.get(n), 1, 1),
            (0, c0, c1, 1, -1),
            (c1, c0, a.diff.get(n - 1), 1, -1),
            (c1 + r1, c0, f.components.get(n - 1), 1, 1),
            (c1 + r1, c0 + c1, b.diff.get(n), 1, 1),
        ])
    cyl = _trusted_complex(fld, dims, diff)
    comps_i, comps_p = {}, {}
    for n in cyl.dims:
        ca, ca1, cb = a.dim(n), a.dim(n - 1), b.dim(n)
        comps_i[n] = _written(fld, cyl.dim(n), ca, [(0, 0, ca, 1, 1)])
        comps_p[n] = _written(fld, cb, cyl.dim(n), [
            (0, 0, f.components.get(n), 1, 1), (0, ca + ca1, cb, 1, 1),
        ])
    return _trusted_map(a, cyl, comps_i), _trusted_map(cyl, b, comps_p)


# ---------------------------------------------------------------------------
# Hom spaces and lifting problems
# ---------------------------------------------------------------------------


class _Hom:
    """Coordinates of the degree-0 maps source -> target.

    A map k is the row of its blocks vec(k_n), each flattened column-major,
    over the degrees where both sides are nonzero, in ascending order.  With
    that order vec(b.k.a) = (a^T (x) b) vec(k), so chain-map bases, commuting
    squares, lifting problems and natural transformations are all linear
    systems of such blocks, which the methods read off the factors' nonzeros
    and place as `field_linalg._block_rows` takes them: no Kronecker product.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex):
        if source.field != target.field:
            raise ValueError(f"field mismatch {source.field} Hom {target.field}")
        self.source, self.target, self.field = source, target, source.field
        self.offsets, self.size = {}, 0
        for n in sorted(source.dims):
            if target.dim(n):
                self.offsets[n] = self.size
                self.size += source.dim(n) * target.dim(n)

    def d0(self, row: int = 0, col: int = 0) -> tuple[int, list]:
        """The chain-map condition d.k_n - k_{n-1}.d = 0 as blocks placed from
        (row, col) on: (the row after its rows, the blocks)."""
        s, t, o, blocks, r = self.source, self.target, self.offsets, [], row
        for n in sorted(set(o) | {m + 1 for m in o}):
            if n in o and n in t.diff:
                blocks.append(_kron_block(r, col + o[n], s.dim(n), t.diff[n]))
            if n - 1 in o and n in s.diff:
                blocks.append(_kron_block(r, col + o[n - 1], s.diff[n], t.dim(n - 1), -1))
            r += t.dim(n - 1) * s.dim(n)
        return r, blocks

    def compose(self, into: "_Hom", pre=None, post=None, row=0, col=0, sign=1) -> list:
        """The blocks of k -> sign post.k.pre from these coordinates (columns
        from `col`) to those of `into` (rows from `row`), one a^T (x) b per
        degree; an absent side is the identity."""
        blocks = []
        for n, o in into.offsets.items():
            a = self.source.dim(n) if pre is None else pre.components.get(n)
            b = self.target.dim(n) if post is None else post.components.get(n)
            if n in self.offsets and a is not None and b is not None:
                blocks.append(_kron_block(row + o, col + self.offsets[n], a, b, sign))
        return blocks

    def vec(self, f: ChainMap, row: int, col: int) -> list:
        """The blocks of f's coordinates as column `col`, from `row` on."""
        return [
            (m.den, [(row + o + x * m.rows + y, col, v) for y, x, v in _nonzeros(m)[0]])
            for n, o in self.offsets.items() if (m := f.components.get(n)) is not None
        ]

    def unvec(self, coords: Matrix) -> ChainMap:
        """The map whose coordinates are the row `coords`, a solution of a
        system holding `d0`."""
        s, t, comps = self.source, self.target, {}
        for n, o in self.offsets.items():
            k = coords.num[0, o : o + s.dim(n) * t.dim(n)].reshape(s.dim(n), t.dim(n))
            comps[n] = Matrix(self.field, k.T.copy(), coords.den)
        return _trusted_map(s, t, comps)


def _nonzeros(m: Matrix | int) -> tuple[list, int, tuple]:
    """m's nonzero (row, column, numerator) entries, denominator and shape; an
    int n stands for the n x n identity."""
    num, den = _factor(m)
    ii, jj = num.nonzero()
    return list(zip(ii.tolist(), jj.tolist(), num[ii, jj].tolist())), den, num.shape


def _kron_block(row: int, col: int, a: Matrix | int, b: Matrix | int, sign: int = 1) -> tuple:
    """sign a^T (x) b placed at (row, col), from the factors' nonzeros (an int
    n is the n x n identity): a_{x x'} b_{y' y} sits at (x' t' + y', x t + y)
    for b of shape t' x t."""
    (ea, da, _), (eb, db, (t2, t)) = _nonzeros(a), _nonzeros(b)
    return da * db, [
        (row + x2 * t2 + y2, col + x * t + y, sign * u * w) for x, x2, u in ea for y2, y, w in eb
    ]


def _lifts(alpha: ChainMap, g: ChainMap, squares: list) -> list[ChainMap] | None:
    """One lift k (k.alpha = top, g.k = bottom, k a chain map) per commuting
    square (top, bottom), from one system whose right-hand sides are all the
    squares; None if some square has no lift."""
    hom = _Hom(alpha.target, g.source)
    at_top, at_bottom = _Hom(alpha.source, g.source), _Hom(alpha.target, g.target)
    r0, blocks = hom.d0()
    r1 = r0 + at_top.size
    blocks += hom.compose(at_top, pre=alpha, row=r0) + hom.compose(at_bottom, post=g, row=r1)
    for j, (top, bottom) in enumerate(squares):
        blocks += at_top.vec(top, r0, hom.size + j) + at_bottom.vec(bottom, r1, hom.size + j)
    sol = _solve_rows(hom.field, hom.size, len(squares), _block_rows(hom.field, blocks))
    if sol is None:
        return None
    lifts = [hom.unvec(sol[:, j : j + 1].transpose()) for j in range(len(squares))]
    for k, (top, bottom) in zip(lifts, squares):
        if k @ alpha != top or g @ k != bottom:
            raise InvariantError("lift does not solve the lifting problem")
    return lifts


def solve_lifting(
    alpha: ChainMap, g: ChainMap, top: ChainMap, bottom: ChainMap
) -> ChainMap | None:
    """Find k with k.alpha = top, g.k = bottom, k a chain map; None if no lift.

    alpha : U -> V, g : X -> Y, top : U -> X, bottom : V -> Y, and the square
    must commute: g.top = bottom.alpha.
    """
    if g @ top != bottom @ alpha:
        raise ValueError("lifting square does not commute")
    lifts = _lifts(alpha, g, [(top, bottom)])
    return None if lifts is None else lifts[0]


def _square_space_basis(alpha: ChainMap, g: ChainMap):
    """Basis of the linear space of commuting squares (top, bottom) over
    (alpha, g): the kernel of [[d0, 0], [0, d0], [post g, -pre alpha]] on
    Hom(U, X) + Hom(V, Y)."""
    top, bottom = _Hom(alpha.source, g.source), _Hom(alpha.target, g.target)
    corner = _Hom(alpha.source, g.target)
    r0, blocks = top.d0()
    r1, more = bottom.d0(r0, top.size)
    blocks += more + top.compose(corner, post=g, row=r1)
    blocks += bottom.compose(corner, pre=alpha, row=r1, col=top.size, sign=-1)
    ker = _section(top.field, top.size + bottom.size, _block_rows(top.field, blocks))[1]
    return [
        (top.unvec(ker[j : j + 1, : top.size]), bottom.unvec(ker[j : j + 1, top.size :]))
        for j in range(ker.rows)
    ]


def chain_map_basis(source: ChainComplex, target: ChainComplex) -> list[ChainMap]:
    """Basis of the vector space of chain maps source -> target."""
    hom = _Hom(source, target)
    ker = _section(hom.field, hom.size, _block_rows(hom.field, hom.d0()[1]))[1]
    return [hom.unvec(ker[j : j + 1, :]) for j in range(ker.rows)]


def has_rlp(alpha: ChainMap, g: ChainMap) -> bool:
    """Whether g has the right lifting property against alpha.

    The commuting squares over (alpha, g) form a vector space and lifts
    depend linearly on the square, so it suffices to solve the lifting
    problem on a basis of that space (kernel vectors, so they commute), all at once.
    """
    squares = _square_space_basis(alpha, g)
    return not squares or _lifts(alpha, g, squares) is not None


@dataclass(frozen=True)
class GeneratingCofibration:
    """The sphere-disc inclusion in a single degree d.

    The sphere is one-dimensional in degree d-1; the disc is one-dimensional
    in degrees d and d-1 with identity differential; the inclusion hits
    degree d-1 identically.
    """

    degree: int
    field: Field

    @property
    def sphere(self) -> ChainComplex:
        return single_complex(self.field, self.degree - 1, 1)

    @property
    def disc(self) -> ChainComplex:
        d = self.degree
        return ChainComplex(
            self.field,
            {d: 1, d - 1: 1},
            {d: Matrix.identity(self.field, 1)},
        )

    @property
    def inclusion(self) -> ChainMap:
        return _trusted_map(
            self.sphere,
            self.disc,
            {self.degree - 1: Matrix.identity(self.field, 1)},
        )


def generating_cofibrations(field: Field, lo: int, hi: int) -> list[GeneratingCofibration]:
    """All sphere-disc inclusions whose disc meets the window [lo, hi]."""
    return [GeneratingCofibration(d, field) for d in range(lo, hi + 2)]


def rlp_window(*maps: ChainMap) -> tuple[int, int]:
    """Inflated window covering all complexes of the given maps."""
    degs = set()
    for f in maps:
        degs |= set(f.source.dims) | set(f.target.dims)
    if not degs:
        return (0, -1)
    return (min(degs) - 1, max(degs) + 1)


# ---------------------------------------------------------------------------
# colimits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Colimit:
    """A colimit with its section: the object Q, the legs nodes[i] -> Q, which
    side by side are the projection from the generators (the direct sum of the
    nodes) onto Q, and per degree each node's free generator columns, which
    index Q's basis, numbered inside the node (`by_node`)."""

    obj: ChainComplex
    legs: list
    by_node: dict

    def induce(self, cocone: list[ChainMap]) -> ChainMap:
        """The unique map out of Q whose composite with legs[i] is cocone[i]."""
        if len(cocone) != len(self.legs):
            raise ValueError("cocone and colimit have different node counts")
        target, fld = cocone[0].target, self.obj.field
        if any(m.source != leg.source or m.target != target for m, leg in zip(cocone, self.legs)):
            raise ValueError("cocone maps must start at the nodes and share one target")
        out = _read_off(self, cocone)
        for n in self.by_node:  # stacked side by side one degree at a time
            through = Matrix.hstack(fld, [leg.component(n) for leg in self.legs])
            if out.component(n) @ through != Matrix.hstack(fld, [m.component(n) for m in cocone]):
                raise ValueError("map does not descend through the projection")
        return out


def _read_off(c: Colimit, cocone: list[ChainMap]) -> ChainMap:
    """`Colimit.induce` without its checks, for a cocone out of the nodes that
    descends by construction: the legs side by side are the identity on the
    free columns, so the map is those columns of the cocone's maps, each
    node's taken before they are put side by side."""
    comps = {}
    for n, at in c.by_node.items():
        if parts := [m.component(n)[:, x] for m, x in zip(cocone, at) if x]:
            comps[n] = Matrix.hstack(c.obj.field, parts)
    # the legs are onto and the cocone's maps are chain maps, so the map is one
    return _trusted_map(c.obj, cocone[0].target, comps)


def colimit(nodes: list[ChainComplex], arrows: list[tuple[int, int, ChainMap]]) -> Colimit:
    """Colimit of a finite diagram of chain complexes.

    nodes[i] are the objects; each arrow (s, t, f) glues node s into node t
    along f (s = t is allowed).  Returns a `Colimit` whose legs[i] :
    nodes[i] -> Q; maps out of Q are built with `Colimit.induce`.  The
    quotient basis is deterministic in the node order.  Refuses nodes over
    more than one field, and an arrow that names a node outside the diagram
    or whose map does not run from nodes[s] to nodes[t].
    """
    if not nodes:
        raise ValueError("colimit of an empty diagram")
    fld = nodes[0].field
    if any(c.field != fld for c in nodes):
        raise ValueError("colimit nodes over more than one field")
    for s, t, f in arrows:
        if not (0 <= s < len(nodes) and 0 <= t < len(nodes)):
            raise ValueError(f"colimit arrow ({s}, {t}) names a node outside the diagram")
        if f.source != nodes[s] or f.target != nodes[t]:
            raise ValueError(f"colimit arrow ({s}, {t}) does not run between its nodes")
    cols: list[dict] = [{} for _ in nodes]
    dims, by_node, diff = {}, {}, {}
    for n in sorted({n for c in nodes for n in c.dims}):
        offs = list(accumulate((c.dim(n) for c in nodes), initial=0))
        # one sparse row per arrow and source coordinate x: x in node s equals
        # f(x) in node t, times f's denominator
        rows = []
        for s, t, f in arrows:
            if k := nodes[s].dim(n):
                m, src, tgt = f.component(n), offs[s], offs[t]
                here = [{src + x: m.den} for x in range(k)]
                for y, x, v in _nonzeros(m)[0]:
                    here[x][tgt + y] = here[x].get(tgt + y, 0) - v
                rows += here
        # node i's block of the projection is its leg; only the legs outlive this degree
        _, proj, free = quotient(fld, offs[-1], rows)
        dims[n], by_node[n] = len(free), [
            [x - lo for x in free[bisect_left(free, lo) : bisect_left(free, hi)]]
            for lo, hi in zip(offs, offs[1:])
        ]
        for leg, lo, hi in zip(cols, offs, offs[1:]):
            leg[n] = proj[:, lo:hi]
        del proj
        # the arrows are chain maps, so the legs after the nodes' own
        # differentials descend to Q's differential, read off on the free columns
        if free and dims.get(n - 1):
            blocks = [leg[n - 1] @ c.d(n)[:, x] for leg, c, x in zip(cols, nodes, by_node[n]) if x]
            diff[n] = Matrix.hstack(fld, blocks)
    q = _trusted_complex(fld, dims, diff)
    legs = [_trusted_map(c, q, {n: leg[n] for n in c.dims}) for leg, c in zip(cols, nodes)]
    return Colimit(q, legs, by_node)


def induced_matrix(through: Matrix, composite: Matrix) -> Matrix:
    """The unique m with m @ through = composite, for surjective `through`."""
    sol = through.transpose().solve(composite.transpose())
    if sol is None:
        raise ValueError("map does not descend through the projection")
    return sol.transpose()


def pushout(f: ChainMap, g: ChainMap):
    """Pushout of B <- A -> C; returns (P, leg_B, leg_C)."""
    if f.source != g.source:
        raise ValueError("pushout maps must share their source")
    c = colimit([f.source, f.target, g.target], [(0, 1, f), (0, 2, g)])
    return c.obj, c.legs[1], c.legs[2]


def wide_pushout(maps: list[ChainMap]):
    """Wide pushout of a family sharing one source; returns (P, source_leg, legs)."""
    if not maps:
        raise ValueError("wide pushout of no maps")
    src = maps[0].source
    if any(m.source != src for m in maps):
        raise ValueError("wide pushout maps must share their source")
    nodes = [src] + [m.target for m in maps]
    arrows = [(0, i + 1, m) for i, m in enumerate(maps)]
    c = colimit(nodes, arrows)
    return c.obj, c.legs[0], c.legs[1:]
