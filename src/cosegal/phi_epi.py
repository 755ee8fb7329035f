"""Finite sets, surjections, and the latching categories used by the free
construction.

An arrow m -> n of the opposite-surjection index category is stored as the
surjection n ->> m (array of length n with values in {0..m-1}).  Bijections
n ->> n stay in every enumeration: the symmetry data lives exactly there.

Enumerations and shapes are pure functions of small integers; they are
cached and returned as tuples of frozen objects, so no caller can change
what the next caller gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

__all__ = [
    "Surjection",
    "enumerate_surjections",
    "generating_surjections",
    "compose",
    "disjoint_sum",
    "unique_to_one",
    "identity_surjection",
    "block_swap",
    "PairObject",
    "PlusObject",
    "ShapeArrow",
    "LatchingDiagramShape",
    "latching_shape",
]


@dataclass(frozen=True, order=True)
class Surjection:
    """A surjection {0..m-1} ->> {0..n-1}, stored as the image array."""

    source_size: int
    target_size: int
    map: tuple

    def __post_init__(self):
        m, n = self.source_size, self.target_size
        if m < 1 or n < 1:
            raise ValueError("sizes must be positive (the empty set is isolated)")
        # n > m first: a huge n would otherwise build range(n) before failing
        if len(self.map) != m or n > m or set(self.map) != set(range(n)):
            raise ValueError(f"not a surjection {m} ->> {n}: {self.map}")
        object.__setattr__(self, "map", tuple(int(x) for x in self.map))

    def __call__(self, i: int) -> int:
        return self.map[i]

    def is_identity(self) -> bool:
        return self.source_size == self.target_size and all(
            self.map[i] == i for i in range(self.source_size)
        )

    def __repr__(self):
        return f"Surjection({self.source_size}->>{self.target_size}, {list(self.map)})"


def identity_surjection(n: int) -> Surjection:
    return Surjection(n, n, tuple(range(n)))


def unique_to_one(n: int) -> Surjection:
    """The unique surjection n ->> 1."""
    return Surjection(n, 1, (0,) * n)


def compose(g: Surjection, f: Surjection) -> Surjection:
    """Function composition g . f (apply f first)."""
    if f.target_size != g.source_size:
        raise ValueError("size mismatch in composition")
    return Surjection(f.source_size, g.target_size, tuple(g.map[x] for x in f.map))


def disjoint_sum(u: Surjection, v: Surjection) -> Surjection:
    """Block sum: v's blocks are placed after u's."""
    m = tuple(u.map) + tuple(x + u.target_size for x in v.map)
    return Surjection(u.source_size + v.source_size, u.target_size + v.target_size, m)


def block_swap(p: int, q: int) -> Surjection:
    """The bijection exchanging a front block of size q with a back block of
    size p; this is the symmetry isomorphism between p+q and q+p in the
    opposite index category."""
    m = tuple(i + p for i in range(q)) + tuple(i for i in range(p))
    return Surjection(p + q, p + q, m)


@lru_cache(maxsize=256)
def enumerate_surjections(m: int, n: int) -> tuple[Surjection, ...]:
    """All surjections m ->> n in lexicographic order of their image arrays."""
    if m < 1 or n < 1 or n > m:
        return ()
    targets = set(range(n))
    return tuple(
        Surjection(m, n, arr)
        for arr in product(range(n), repeat=m)
        if set(arr) == targets
    )


@lru_cache(maxsize=16)
def generating_surjections(n: int) -> tuple[Surjection, ...]:
    """Generators of the surjections between sets of size at most n: for each
    2 <= k <= n, the adjacent transpositions of S_k and the codegeneracy
    k ->> k-1 merging 0 and 1.

    Every surjection is a composite of these: a permutation of its source
    (a word in adjacent transpositions) makes it monotone, and a monotone
    surjection merges neighbours one pair at a time, each merge being the
    one of 0 and 1 conjugated by permutations.
    """
    out = []
    for k in range(2, n + 1):
        for i in range(k - 1):
            arr = list(range(k))
            arr[i], arr[i + 1] = i + 1, i
            out.append(Surjection(k, k, tuple(arr)))
        out.append(Surjection(k, k - 1, (0,) + tuple(range(k - 1))))
    return tuple(out)


# ---------------------------------------------------------------------------
# latching shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class PairObject:
    """A decomposition object: a pair (p, q) with p, q >= 1 together with a
    surjection n ->> p+q."""

    p: int
    q: int
    to_sum: Surjection


@dataclass(frozen=True, order=True)
class PlusObject:
    """A single-level object: p < n together with a surjection n ->> p."""

    p: int
    to_level: Surjection


@dataclass(frozen=True)
class ShapeArrow:
    """An arrow of the latching shape.

    kind "pair": (a, b) acts between pair objects; kind "gamma": a surjection
    c from a pair object into a plus object (c = identity is the canonical
    multiplication arrow); kind "plus": c between plus objects.
    """

    src: int
    tgt: int
    kind: str
    a: Surjection | None = None
    b: Surjection | None = None
    c: Surjection | None = None


@dataclass(frozen=True)
class LatchingDiagramShape:
    level: int
    classical: bool
    objects: tuple
    arrows: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {ob: k for k, ob in enumerate(self.objects)})

    def index(self, ob) -> int:
        """Position of the object ob.  Raises KeyError if it is not one."""
        return self._index[ob]


def latching_shape(n: int, classical: bool = False) -> LatchingDiagramShape:
    """The shape of the latching diagram at level n.

    classical=True gives the ordinary latching category over the lower
    truncation: objects (p, n ->> p) with p < n.  classical=False adds the
    decomposition objects ((p, q), n ->> p+q) with p, q >= 1; the objects
    that would refer to level n itself are excluded.

    The shape is thin (Mac Lane, CWM II.6): an arrow from the object with
    surjection s to the one with surjection t is a c with c . t = s, and t
    is surjective, so c is s read off the fibres of t.  Each such factor is
    one arrow, except the identity of an object: "pair" when c splits as
    a (+) b, "gamma" or "plus" into a single-level object.  Arrows are
    ordered by (src, tgt).
    """
    if n < 2:
        raise ValueError("latching shapes start at level 2")
    return _latching_shape(n, bool(classical))


def _factor(s: Surjection, t: Surjection) -> tuple | None:
    """The image array of the unique c with c . t = s, or None when s is not
    constant on the fibres of t (as when t has fewer fibres than s)."""
    if t.target_size < s.target_size:
        return None
    c: dict = {}
    for x, y in zip(s.map, t.map):
        if c.setdefault(y, x) != x:
            return None
    return tuple(c[y] for y in range(t.target_size))


@lru_cache(maxsize=16)
def _latching_shape(n: int, classical: bool) -> LatchingDiagramShape:
    # pair objects by (p, q, surjection), then plus objects by (p, surjection)
    sums = [] if classical else [(p, q) for p in range(1, n) for q in range(1, n - p + 1)]
    objects: list = [PairObject(p, q, v) for p, q in sums for v in enumerate_surjections(n, p + q)]
    first_plus = len(objects)
    objects += [PlusObject(p, v) for p in range(1, n) for v in enumerate_surjections(n, p)]
    surjs = [ob.to_sum if isinstance(ob, PairObject) else ob.to_level for ob in objects]

    arrows: list = []
    for i, (ob, s) in enumerate(zip(objects, surjs)):
        # a plus object maps only to plus objects, which come last, and a pair
        # arrow (a, b) needs a : p' ->> p and b : q' ->> q
        for j in range(0 if isinstance(ob, PairObject) else first_plus, len(objects)):
            tgt = objects[j]
            if j == i or (isinstance(tgt, PairObject) and (tgt.p < ob.p or tgt.q < ob.q)):
                continue
            c = _factor(s, surjs[j])
            if c is None:
                continue
            if isinstance(tgt, PlusObject):
                kind = "gamma" if isinstance(ob, PairObject) else "plus"
                arrows.append(ShapeArrow(i, j, kind, c=Surjection(tgt.p, s.target_size, c)))
            elif max(c[: tgt.p]) < ob.p <= min(c[tgt.p :]):
                a = Surjection(tgt.p, ob.p, c[: tgt.p])
                b = Surjection(tgt.q, ob.q, tuple(x - ob.p for x in c[tgt.p :]))
                arrows.append(ShapeArrow(i, j, "pair", a=a, b=b))
    return LatchingDiagramShape(n, classical, tuple(objects), tuple(arrows))
