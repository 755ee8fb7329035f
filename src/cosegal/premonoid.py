"""Truncated commutative premonoids: lax symmetric monoidal diagrams over the
opposite surjection category, truncated at a finite level N.

One type, `LaxDiagram`, carries the three stages of structure: one chain
complex per level 1..N and a structure map for every non-identity surjection
between levels (a functorial diagram); then a multiplication-style laxity map
for every pair of levels (p, q) with p+q <= N (a nonassociative lax
diagram); then a weak unit (a premonoid).  Level 0 is never stored: its
value is the monoidal unit and its laxity maps are the (identity) unitors.

Validation is exact matrix equality; the report names each violated axiom
with the indices of the offending square.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import (
    ChainComplex,
    ChainMap,
    _blocks,
    is_quasi_iso,
    tensor,
    tensor_map,
    unit_complex,
)
from .field_linalg import Field, Matrix, _common, _height, _int_product, _widen
from .phi_epi import (
    Surjection,
    block_swap,
    compose,
    disjoint_sum,
    enumerate_surjections,
    generating_surjections,
    unique_to_one,
)

__all__ = [
    "StrictMonoid",
    "LaxDiagram",
    "DiagramMorphism",
    "Violation",
    "validate",
    "validate_strict",
    "validate_morphism",
    "is_cosegal",
    "from_strict",
    "to_strict",
    "is_easy_weq",
    "is_easy_fib",
    "h_star",
    "all_surjections_upto",
]


@dataclass(frozen=True)
class Violation:
    axiom: str
    where: tuple
    detail: str = ""

    def __str__(self):
        loc = ",".join(str(w) for w in self.where)
        msg = f"{self.axiom} at ({loc})"
        return msg + (f": {self.detail}" if self.detail else "")


@dataclass
class StrictMonoid:
    """A commutative differential graded monoid: (A, mu, e)."""

    obj: ChainComplex
    mu: ChainMap
    e: ChainMap

    def __post_init__(self):
        a = self.obj
        if self.mu.source != tensor(a, a) or self.mu.target != a:
            raise ValueError("multiplication has wrong endpoints")
        if self.e.source != unit_complex(a.field) or self.e.target != a:
            raise ValueError("unit has wrong endpoints")

    @property
    def field(self) -> Field:
        return self.obj.field


def validate_strict(m: StrictMonoid) -> list[Violation]:
    """Associativity, commutativity and two-sided unitality, exactly, block by
    block as in `validate`."""
    out = []
    a, mu, e = m.obj, m.mu, m.e
    p, ident, mus = m.field.characteristic, ChainMap.identity(a), _blocks(mu, a, a)
    objects, lax = dict.fromkeys((1, 2, 3), a), dict.fromkeys(((1, 1), (1, 2), (2, 1)), mu)
    if not _associative(p, objects, lax, 1, 1, 1):
        out.append(Violation("associativity", ()))
    if not _symmetric(p, mus, mus):
        out.append(Violation("commutativity", ()))
    # I (x) A and A (x) I are literally A, so the unitors are identities
    if not _agree(p, _blocks(mu, a, a, f=e), _blocks(ident, e.source, a)):
        out.append(Violation("left-unit", ()))
    if not _agree(p, _blocks(mu, a, a, g=e), _blocks(ident, a, e.source)):
        out.append(Violation("right-unit", ()))
    return out


@lru_cache(maxsize=16)
def all_surjections_upto(level: int) -> tuple[Surjection, ...]:
    """All non-identity surjections n ->> m with n <= level, deterministic order."""
    return tuple(
        v
        for n in range(1, level + 1)
        for m in range(1, n + 1)
        for v in enumerate_surjections(n, m)
        if not v.is_identity()
    )


@dataclass
class LaxDiagram:
    """Objects F(n) for 1 <= n <= N with a structure map for every non-identity
    surjection, then optionally laxity maps, then a weak unit.

    Without laxity this is a functorial diagram, with laxity a nonassociative
    lax diagram, and with a unit as well a truncated premonoid.
    """

    level: int
    objects: dict
    structure: dict
    laxity: dict | None = None
    unit: ChainMap | None = None

    def __post_init__(self):
        n_max = self.level
        if self.unit is not None and self.laxity is None:
            raise ValueError("a unit needs laxity maps")
        lowest = 1 if self.unit is None else 2
        if n_max < lowest:
            raise ValueError(f"truncation level must be at least {lowest}")
        if set(self.objects) != set(range(1, n_max + 1)):
            raise ValueError("objects must cover levels 1..N")
        fld = self.objects[1].field
        if any(c.field != fld for c in self.objects.values()):
            raise ValueError("field mismatch among objects")
        structure = {}
        for v, f in self.structure.items():
            if not isinstance(v, Surjection) or v.is_identity():
                raise ValueError(f"structure key {v} is an identity or not a surjection")
            if v.source_size > n_max:
                raise ValueError(f"structure map beyond level {n_max}: {v}")
            if f.source != self.objects[v.target_size] or f.target != self.objects[v.source_size]:
                raise ValueError(f"structure map for {v} has wrong endpoints")
            structure[v] = f
        for v in all_surjections_upto(n_max):
            if v not in structure:
                raise ValueError(f"missing structure map for {v}")
        self.structure = structure
        if self.laxity is not None:
            expected = {
                (p, q)
                for p in range(1, n_max)
                for q in range(1, n_max - p + 1)
            }
            if set(self.laxity) != expected:
                raise ValueError("laxity maps must cover exactly {p,q >= 1, p+q <= N}")
            for (p, q), f in self.laxity.items():
                if f.source != tensor(self.objects[p], self.objects[q]):
                    raise ValueError(f"laxity ({p},{q}) has wrong source")
                if f.target != self.objects[p + q]:
                    raise ValueError(f"laxity ({p},{q}) has wrong target")
        if self.unit is not None and (
            self.unit.source != unit_complex(fld) or self.unit.target != self.objects[1]
        ):
            raise ValueError("unit has wrong endpoints")

    @property
    def field(self) -> Field:
        return self.objects[1].field

    def structure_map(self, v: Surjection) -> ChainMap:
        if v.is_identity():
            return ChainMap.identity(self.objects[v.source_size])
        return self.structure[v]

    def laxity_map(self, p: int, q: int) -> ChainMap:
        return self.laxity[(p, q)]

    def truncated(self, level: int) -> "LaxDiagram":
        """The diagram on the levels up to `level`, at most self.level."""
        objects = {n: self.objects[n] for n in range(1, level + 1)}
        structure = {v: f for v, f in self.structure.items() if v.source_size <= level}
        lax = self.laxity and {pq: f for pq, f in self.laxity.items() if sum(pq) <= level}
        return LaxDiagram(level, objects, structure, lax, self.unit)


@dataclass
class DiagramMorphism:
    source: LaxDiagram
    target: LaxDiagram
    components: dict

    def __post_init__(self):
        if self.source.level != self.target.level:
            raise ValueError("level mismatch")
        for n in range(1, self.source.level + 1):
            f = self.components.get(n)
            if f is None:
                raise ValueError(f"missing component at level {n}")
            if f.source != self.source.objects[n] or f.target != self.target.objects[n]:
                raise ValueError(f"component at level {n} has wrong endpoints")

    def component(self, n: int) -> ChainMap:
        return self.components[n]

    def __eq__(self, other):
        if not isinstance(other, DiagramMorphism):
            return NotImplemented
        return self.components == other.components

    @staticmethod
    def identity(f: LaxDiagram) -> "DiagramMorphism":
        return DiagramMorphism(
            f, f, {n: ChainMap.identity(f.objects[n]) for n in f.objects}
        )

    def compose(self, other: "DiagramMorphism") -> "DiagramMorphism":
        """self after other."""
        comps = {
            n: self.components[n] @ other.components[n] for n in self.components
        }
        return DiagramMorphism(other.source, self.target, comps)


def _same(p: int, a: tuple, b: tuple, sign: int = 1) -> bool:
    """Whether the block a equals sign times the block b, both (numerators,
    denominator) as `_blocks` returns them; over Q num_a.den_b = num_b.den_a."""
    (na, da), (nb, db) = a, b
    if sign < 0:
        nb = (-nb) % p if p else -nb
    if da != db:
        na, nb = _widen(na, _height(na) * db) * db, _widen(nb, _height(nb) * da) * da
    return bool((na == nb).all())


def _agree(p: int, lhs: dict, rhs: dict) -> bool:
    """Whether two maps, as `_blocks` of the same blocks, are equal."""
    return all(_same(p, blk, rhs[ij]) for ij, blk in lhs.items())


def _symmetric(p: int, lhs: dict, rhs: dict) -> bool:
    """Whether lhs = rhs . braiding on blocks: lhs[o, x, y] = (-1)^{ij} rhs[o, y, x]
    for x of degree i and y of degree j."""
    return all(
        _same(p, blk, (rhs[j, i][0].swapaxes(1, 2), rhs[j, i][1]), -1 if i * j % 2 else 1)
        for (i, j), blk in lhs.items()
    )


def _associative(p: int, objects, lax, a: int, b: int, c: int) -> bool:
    """phi_{a+b,c}.(phi_{a,b} (x) id) = phi_{a,b+c}.(id (x) phi_{b,c}).associator
    on objects x, y, z at a, b, c, without forming a triple product: on each
    triple of degrees (i, j, k), sum_w A[o,w,z].B[w,x,y] = sum_w C[o,x,w].D[w,y,z]
    for the blocks A, B, C, D of phi_{a+b,c}, phi_{a,b}, phi_{a,b+c}, phi_{b,c}
    (the associator has no sign)."""
    x, y, z = objects[a], objects[b], objects[c]
    xy, yz = tensor(x, y)._layouts, tensor(y, z)._layouts
    left = _blocks(lax[a + b, c], objects[a + b], z, f=lax[a, b])  # [o, (x, y), z]
    right = _blocks(lax[a, b + c], x, objects[b + c], g=lax[b, c])  # [o, x, (y, z)]
    for (m, k), (num, den) in left.items():
        for (i, j), s in xy[m].items():
            other, other_den = right[i, j + k]
            shape = (num.shape[0], x.dims[i], y.dims[j], z.dims[k])
            lhs, rhs = num[:, s].reshape(shape), other[:, :, yz[j + k][j, k]].reshape(shape)
            if not _same(p, (lhs, den), (rhs, other_den)):
                return False
    return True


def _natural(d, a: Surjection, b: Surjection) -> bool:
    """The square phi_{p',q'}.(F(a) (x) F(b)) = F(a + b).phi_{p,q} for
    a : p' ->> p and b : q' ->> q, block by block."""
    p, q, pp, qq = a.target_size, b.target_size, a.source_size, b.source_size
    lhs = _blocks(d.laxity_map(pp, qq), d.objects[pp], d.objects[qq],
                  None if a.is_identity() else d.structure[a],
                  None if b.is_identity() else d.structure[b])
    rhs = d.structure_map(disjoint_sum(a, b)) @ d.laxity_map(p, q)
    return _agree(d.field.characteristic, lhs, _blocks(rhs, d.objects[p], d.objects[q]))


@lru_cache(maxsize=16)
def _square_plan(firsts: tuple) -> tuple[tuple, dict]:
    """The squares (v, u) of `_functoriality_squares` in report order, and per
    (|source v|, |target v|, |target u|) their positions and the indices of
    v, u and u.v into `enumerate_surjections`, as the rows of one array."""
    index = {w: i for n in range(1, max([v.source_size for v in firsts], default=0) + 1)
             for m in range(1, n + 1) for i, w in enumerate(enumerate_surjections(n, m))}
    squares = tuple((v, u) for v in firsts for k in range(1, v.target_size + 1)
                    for u in enumerate_surjections(v.target_size, k) if not u.is_identity())
    groups: dict = {}
    for s, (v, u) in enumerate(squares):
        groups.setdefault((v.source_size, v.target_size, u.target_size), []).append(
            (s, index[v], index[u], index[compose(u, v)]))
    return squares, {nmk: np.array(g).T for nmk, g in groups.items()}


def _functoriality_squares(d, firsts: tuple) -> list[Violation]:
    """The failing squares F(v).F(u) = F(u.v), v in `firsts` and u out of v's
    target and not the identity, by u's target size, then enumeration order.
    Per degree and (|source v|, |target v|, |target u|) they are decided in
    stacked products, chunked by a fixed byte budget; over Q each side's maps
    share one denominator, and num_v.num_u.den_uv = num_uv.den_v.den_u."""
    squares, groups = _square_plan(firsts)
    fld, p, dims = d.field, d.field.characteristic, {n: c.dims for n, c in d.objects.items()}
    bad = np.zeros(len(squares), dtype=bool)

    @lru_cache(maxsize=None)
    def stack(n, m):  # F(w) in the loop's degree for every w : n ->> m, and height
        eye = Matrix.identity(fld, dims[n][deg]) if n == m else None
        maps = [eye if (f := d.structure.get(w)) is None else f.component(deg)
                for w in enumerate_surjections(n, m)]
        nums, den = _common(fld, maps)
        return nums, den, 1 if p else max(map(_height, nums))

    for deg in sorted({x for c in dims.values() for x in c}):
        stack.cache_clear()  # hold one degree's maps at a time
        for (n, m, k), (at, iv, iu, iuv) in groups.items():
            if deg not in dims[n] or deg not in dims[k]:
                continue
            (a, da, ha), (b, db, hb), (c, dc, hc) = stack(n, m), stack(m, k), stack(n, k)
            inner, rows, cols = dims[m].get(deg, 0), dims[n][deg], dims[k][deg]
            bound = (p - 1) ** 2 * inner if p else ha * hb * inner
            step = max(1, 2**21 // (rows * inner + inner * cols + rows * cols))  # 16 MB chunks
            for s in (slice(x, x + step) for x in range(0, len(at), step)):
                lhs = _int_product([a[i] for i in iv[s]], [b[i] for i in iu[s]], bound)
                rhs = np.concatenate([c[i] for i in iuv[s]]).reshape(-1, rows, cols)
                lhs = np.remainder(lhs, p, out=lhs) if p else _widen(lhs, bound * dc) * dc
                rhs = rhs if p else _widen(rhs, hc * da * db) * (da * db)
                bad[at[s]] |= (lhs != rhs).any(axis=(1, 2))
    return [Violation("functoriality", (v.map, u.map)) for (v, u), b in zip(squares, bad) if b]


def _naturality_squares(d, pairs) -> list[Violation]:
    """The failing squares for the given (a, b) pairs, in their order."""
    return [
        Violation("laxity-naturality", (
            a.target_size, b.target_size, a.source_size, b.source_size, a.map, b.map
        ))
        for a, b in pairs
        if not _natural(d, a, b)
    ]


def validate(f: LaxDiagram) -> list[Violation]:
    """Check the axioms for the data f carries; empty report means valid.

    Functoriality always; laxity-naturality when f has laxity maps; and
    laxity-associativity, laxity-symmetry and diag-unitality when f also has
    a unit.

    Functoriality asks F(v).F(u) = F(u.v) for every composable pair.  It is
    decided on the squares where v is one of `generating_surjections`: if
    those hold, write any v as w.g with g a generator applied first; then
    F(v) = F(g).F(w) by the generator square for (g, w), and by induction
    on the length of w
        F(v).F(u) = F(g).F(w).F(u) = F(g).F(u.w) = F(u.w.g) = F(u.v).
    Laxity naturality asks phi.(F(a) (x) F(b)) = F(a + b).phi for every a, b.
    Once F is a functor it is decided on the squares (g, id) and (id, g):
    a + b = (a + id).(id + b) and F(a) (x) F(b) = (id (x) F(b)).(F(a) (x) id)
    paste two one-sided squares, and a one-sided square for a = w.g pastes
    the squares for g and w along F((w + id).(g + id)) = F(g + id).F(w + id).

    The reduced check is complete, not approximate.  When a generator
    square fails, every square is enumerated (naturality too, as its
    reduction needs functoriality), so the report lists each offending
    square in the exhaustive order.  Functoriality squares are decided in
    stacked products, chunked by a fixed byte budget.

    The monoidal axioms are decided on the blocks of maps out of pair
    tensor products (`chain._blocks`); no triple product, associator,
    braiding or tensor map is formed.  Block (i, j) of phi : X (x) Y -> Z
    in degree n is phi_n[:, s] read as a dim Z_n x dim X_i x dim Y_j array,
    s its slice in tensor(X, Y)._layouts, and phi.(f (x) g) contracts it
    against f_i and g_j: so laxity naturality and diag-unitality.
    Associativity compares, on each degree triple (i, j, k),
    sum_w A[o,w,z].B[w,x,y] with sum_w C[o,x,w].D[w,y,z] for the blocks A,
    B, C, D of phi_{p+q,r}, phi_{p,q}, phi_{p,q+r}, phi_{q,r}, since the
    associator carries no sign; symmetry compares (F(swap).phi_{p,q})[o,x,y]
    with (-1)^{ij} phi_{q,p}[o,y,x], the braiding's Koszul sign.
    """
    n_max = f.level
    gens = set(generating_surjections(n_max))
    keys = sorted(f.laxity or {})
    every_pair = [
        (a, b)
        for (p, q) in keys
        for (pp, qq) in keys
        for a in enumerate_surjections(pp, p)
        for b in enumerate_surjections(qq, q)
    ]
    one_sided = [
        (a, b) for a, b in every_pair
        if a.is_identity() and b in gens or b.is_identity() and a in gens
    ]
    out = []
    if _functoriality_squares(f, generating_surjections(n_max)):
        out = _functoriality_squares(f, all_surjections_upto(n_max))
    if out or _naturality_squares(f, one_sided):
        out += _naturality_squares(f, every_pair)
    if f.unit is None:
        return out

    char, objects = f.field.characteristic, f.objects
    for p in range(1, n_max - 1):
        for q in range(1, n_max - p):
            for r in range(1, n_max - p - q + 1):
                if not _associative(char, objects, f.laxity, p, q, r):
                    out.append(Violation("laxity-associativity", (p, q, r)))

    # symmetry: F(swap) . phi_{p,q} = phi_{q,p} . braiding
    for (p, q) in sorted(f.laxity):
        lhs = f.structure_map(block_swap(p, q)) @ f.laxity_map(p, q)
        if not _symmetric(char, _blocks(lhs, objects[p], objects[q]),
                          _blocks(f.laxity_map(q, p), objects[q], objects[p])):
            out.append(Violation("laxity-symmetry", (p, q)))

    # weak unitality: phi_{1,1}.(e (x) id) = F(u_2) via the (identity) unitor
    lhs = _blocks(f.laxity_map(1, 1), objects[1], objects[1], f=f.unit)
    rhs = _blocks(f.structure_map(unique_to_one(2)), f.unit.source, objects[1])
    if not _agree(char, lhs, rhs):
        out.append(Violation("diag-unitality", (1,)))

    return out


def validate_morphism(s: DiagramMorphism) -> list[Violation]:
    """Naturality; multiplicativity when both ends have laxity maps; and the
    unit triangle when both have a unit."""
    out = []
    f, g = s.source, s.target
    for v in all_surjections_upto(f.level):
        lhs = s.component(v.source_size) @ f.structure_map(v)
        rhs = g.structure_map(v) @ s.component(v.target_size)
        if lhs != rhs:
            out.append(Violation("naturality", (tuple(v.map),)))
    if f.laxity is None or g.laxity is None:
        return out
    for (p, q) in sorted(f.laxity):
        lhs = _blocks(s.component(p + q) @ f.laxity_map(p, q), f.objects[p], f.objects[q])
        rhs = _blocks(g.laxity_map(p, q), g.objects[p], g.objects[q],
                      s.component(p), s.component(q))
        if not _agree(f.field.characteristic, lhs, rhs):
            out.append(Violation("multiplicativity", (p, q)))
    if f.unit is not None and g.unit is not None and s.component(1) @ f.unit != g.unit:
        out.append(Violation("unit-triangle", (1,)))
    return out


def _require_valid(x: "LaxDiagram | DiagramMorphism"):
    """Raise ValueError naming the first violations of a premonoid or a morphism."""
    morphism = isinstance(x, DiagramMorphism)
    report = validate_morphism(x) if morphism else validate(x)
    if report:
        what = "morphism" if morphism else "premonoid"
        raise ValueError(f"invalid {what}: " + "; ".join(map(str, report[:3])))


def is_cosegal(f: LaxDiagram) -> bool:
    """Whether F(1) -> F(n) is a quasi-isomorphism for every 2 <= n <= N.

    Since level 1 is initial, two-out-of-three then makes every structure map
    a quasi-isomorphism.
    """
    _require_valid(f)
    return all(
        is_quasi_iso(f.structure_map(unique_to_one(n)))
        for n in range(2, f.level + 1)
    )


def from_strict(m: StrictMonoid, level: int) -> LaxDiagram:
    """The constant premonoid: identity structure maps, laxity the multiplication."""
    if validate_strict(m):
        raise ValueError("invalid strict monoid")
    return _constant_diagram(m, level)


def _constant_diagram(m: StrictMonoid, level: int) -> LaxDiagram:
    """`from_strict` without its check, for callers that checked m already."""
    a = m.obj
    objects = {n: a for n in range(1, level + 1)}
    structure = dict.fromkeys(all_surjections_upto(level), ChainMap.identity(a))
    laxity = {
        (p, q): m.mu
        for p in range(1, level)
        for q in range(1, level - p + 1)
    }
    return LaxDiagram(level, objects, structure, laxity, m.e)


def to_strict(f: LaxDiagram) -> StrictMonoid | None:
    """Recover the strict monoid from a constant premonoid; None otherwise."""
    _require_valid(f)
    if f.unit is None:
        return None
    for v in all_surjections_upto(f.level):
        fv = f.structure_map(v)
        if fv != ChainMap.identity(f.objects[v.source_size]):
            return None
    return StrictMonoid(f.objects[1], f.laxity_map(1, 1), f.unit)


def is_easy_weq(s: DiagramMorphism) -> bool:
    """Weak equivalence in the level-1-concentrated model structure."""
    _require_valid(s)
    return is_quasi_iso(s.component(1))


def is_easy_fib(s: DiagramMorphism) -> bool:
    """Fibration in the level-1-concentrated model structure."""
    _require_valid(s)
    g = s.component(1)
    return all(g.component(n).is_surjective() for n in g.target.dims)


def h_star(
    f: LaxDiagram, h: ChainMap, e_tilde: ChainMap
) -> tuple[LaxDiagram, DiagramMorphism]:
    """Rebase f at its initial entry along h : m -> F(1).

    Requires the unit factorization h . e_tilde = e.  The result g has
    g(1) = m and g(n) = F(n) for n >= 2; laxity maps touching level 1 are
    precomposed with h; the canonical morphism g -> f is h at level 1 and
    the identity elsewhere.
    """
    if h.target != f.objects[1]:
        raise ValueError("h must land in F(1)")
    if f.unit is None:
        raise ValueError("diagram has no unit e : I -> F(1) to factor through h")
    if h @ e_tilde != f.unit:
        raise ValueError("unit factorization h . e_tilde = e fails")
    m = h.source
    objects = {n: (m if n == 1 else f.objects[n]) for n in range(1, f.level + 1)}
    structure = {}
    for v in all_surjections_upto(f.level):
        base = f.structure_map(v)
        structure[v] = base @ h if v.target_size == 1 else base
    ident = {n: ChainMap.identity(f.objects[n]) for n in f.objects}
    laxity = {}
    for (p, q), phi in f.laxity.items():
        left = h if p == 1 else ident[p]
        right = h if q == 1 else ident[q]
        if p == 1 or q == 1:
            laxity[(p, q)] = phi @ tensor_map(left, right)
        else:
            laxity[(p, q)] = phi
    g = LaxDiagram(f.level, objects, structure, laxity, e_tilde)
    comps = {n: (h if n == 1 else ident[n]) for n in range(1, f.level + 1)}
    can = DiagramMorphism(g, f, comps)
    return g, can
