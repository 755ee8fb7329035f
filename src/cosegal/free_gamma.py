"""The inductive free construction for nonassociative lax diagrams.

Starting from a plain functorial diagram F, the free nonassociative lax
diagram G is built level by level: G(1) = F(1) verbatim, and G(n) is the
pushout of the canonical map (classical latching of F at n) -> F(n) along
the comparison map into the lax latching object of the part of G already
built.  Structure maps, multiplication-style laxity maps and the unit
transformation eta : F -> G all fall out of the colimit legs.

All colimits are computed as cokernels of explicit relation matrices with a
deterministic generator order (shape-object order, then basis order), so
repeated runs are bit-identical.

Size warning: the latching shapes grow like surjection counts times level
decompositions; see the complexity table in the README.  Keep N <= 3 for
dense experiments and N = 4 only for very small objects.
"""

from __future__ import annotations

from .chain import (
    ChainComplex,
    ChainMap,
    Matrix,
    colimit,
    induced_matrix,
    tensor,
    tensor_map,
    wide_pushout,
)
from .field_linalg import Field, InvariantError
from .phi_epi import (
    PairObject,
    PlusObject,
    Surjection,
    compose,
    enumerate_surjections,
    latching_shape,
)
from .premonoid import DiagramMorphism, LaxDiagram

__all__ = [
    "lax_latching",
    "classical_latching",
    "delta_map",
    "gamma_na",
    "universal_extension",
    "lan_entry",
]


# ---------------------------------------------------------------------------
# latching objects
# ---------------------------------------------------------------------------


def _shape_values(d: LaxDiagram, shape):
    """Chain complexes at each shape object; tensor values are cached per (p, q)."""
    cache = {}
    values = []
    for ob in shape.objects:
        if isinstance(ob, PairObject):
            key = (ob.p, ob.q)
            if key not in cache:
                cache[key] = tensor(d.objects[ob.p], d.objects[ob.q])
            values.append(cache[key])
        else:
            values.append(d.objects[ob.p])
    return values


def _shape_arrow_map(d: LaxDiagram, shape, arr) -> ChainMap:
    src_ob = shape.objects[arr.src]
    if arr.kind == "pair":
        return tensor_map(d.structure_map(arr.a), d.structure_map(arr.b))
    if arr.kind == "gamma":
        phi = d.laxity_map(src_ob.p, src_ob.q)
        return d.structure_map(arr.c) @ phi
    return d.structure_map(arr.c)


def lax_latching(h, n: int):
    """Colimit of the decomposition diagram below level n; returns the
    latching complex and the cocone legs indexed like the shape objects."""
    if n < 2 or n > h.level + 1:
        raise ValueError("level out of range for the given diagram")
    shape = latching_shape(n, classical=False)
    values = _shape_values(h, shape)
    arrows = [
        (arr.src, arr.tgt, _shape_arrow_map(h, shape, arr)) for arr in shape.arrows
    ]
    return colimit(values, arrows)


def classical_latching(f, n: int):
    """Ordinary latching object of the underlying diagram at level n."""
    shape = latching_shape(n, classical=True)
    values = _shape_values(f, shape)
    arrows = [
        (arr.src, arr.tgt, _shape_arrow_map(f, shape, arr)) for arr in shape.arrows
    ]
    return colimit(values, arrows)


def delta_map(f, h, n: int, unit: dict | None = None) -> ChainMap:
    """The canonical comparison from the classical latching of f into the lax
    latching of h, sending each classical leg into the matching single-level
    leg.  `unit` gives the components f(p) -> h(p) (identity if omitted)."""
    lat, clegs = classical_latching(f, n)
    lax, llegs = lax_latching(h, n)
    cshape = latching_shape(n, classical=True)
    lshape = latching_shape(n, classical=False)
    if unit is None:
        unit = {p: ChainMap.identity(f.objects[p]) for p in range(1, n)}
    comps = {}
    for deg in lat.dims:
        through = Matrix.hstack(
            lat.field, [leg.component(deg) for leg in clegs]
        )
        cocone = []
        for ob, leg in zip(cshape.objects, clegs):
            k = lshape.plus_index(ob.p, ob.to_level)
            cocone.append((llegs[k] @ unit[ob.p]).component(deg))
        composite = Matrix.hstack(lat.field, cocone)
        comps[deg] = induced_matrix(through, composite)
    return ChainMap(lat, lax, comps)


# ---------------------------------------------------------------------------
# the free construction
# ---------------------------------------------------------------------------


def _joint_level(f: LaxDiagram, below: LaxDiagram, eta: dict, n: int):
    """Nodes and arrows of the diagram whose colimit is the level-n value of
    the free construction: the lax shape over `below`, the free diagram
    built up to some level at least n - 1 (only levels below n are read),
    the classical shape over f, and the node f(n) itself."""
    lshape = latching_shape(n, classical=False)
    cshape = latching_shape(n, classical=True)
    values = _shape_values(below, lshape)
    nodes = list(values)
    arrows = [
        (arr.src, arr.tgt, _shape_arrow_map(below, lshape, arr))
        for arr in lshape.arrows
    ]
    coff = len(nodes)
    nodes.extend(_shape_values(f, cshape))
    for arr in cshape.arrows:
        arrows.append(
            (coff + arr.src, coff + arr.tgt, _shape_arrow_map(f, cshape, arr))
        )
    fnode = len(nodes)
    nodes.append(f.objects[n])
    for k, ob in enumerate(cshape.objects):
        arrows.append((coff + k, fnode, f.structure_map(ob.to_level)))
        arrows.append((coff + k, lshape.plus_index(ob.p, ob.to_level), eta[ob.p]))
    return lshape, cshape, nodes, arrows, coff, fnode


def _hstack_legs(legs, deg):
    fld = legs[0].source.field
    return Matrix.hstack(fld, [leg.component(deg) for leg in legs])


def gamma_na(f: LaxDiagram):
    """Free nonassociative lax diagram on f, with the unit transformation.

    The level-1 value is f(1) verbatim.  Each higher value is the pushout of
    the classical-latching map into f(n) along the comparison into the lax
    latching object; laxity maps and structure maps are colimit legs, and
    the action of the level-n bijections is induced by reindexing the legs.
    """
    objects = {1: f.objects[1]}
    structure: dict = {}
    laxity: dict = {}
    eta = {1: ChainMap.identity(f.objects[1])}
    for n in range(2, f.level + 1):
        below = LaxDiagram(n - 1, objects, structure, laxity)
        lshape, cshape, nodes, arrows, coff, fnode = _joint_level(f, below, eta, n)
        q, legs = colimit(nodes, arrows)
        objects[n] = q
        eta[n] = legs[fnode]
        for k, ob in enumerate(lshape.objects):
            if isinstance(ob, PlusObject):
                structure[ob.to_level] = legs[k]
            elif ob.p + ob.q == n and ob.to_sum.is_identity():
                laxity[(ob.p, ob.q)] = legs[k]
        # bijections act by reindexing the whole cocone
        lax_index = {
            (type(ob).__name__, getattr(ob, "p", None), getattr(ob, "q", None),
             (ob.to_sum if isinstance(ob, PairObject) else ob.to_level).map): k
            for k, ob in enumerate(lshape.objects)
        }
        for pi in enumerate_surjections(n, n):
            if pi.is_identity():
                continue
            relabeled = []
            for k, ob in enumerate(lshape.objects):
                if isinstance(ob, PairObject):
                    key = ("PairObject", ob.p, ob.q, compose(ob.to_sum, pi).map)
                else:
                    key = ("PlusObject", ob.p, None, compose(ob.to_level, pi).map)
                relabeled.append(legs[lax_index[key]])
            for k, ob in enumerate(cshape.objects):
                j = lshape.plus_index(ob.p, compose(ob.to_level, pi))
                relabeled.append(legs[j] @ eta[ob.p])
            relabeled.append(eta[n] @ f.structure_map(pi))
            comps = {}
            for deg in q.dims:
                through = _hstack_legs(legs, deg)
                composite = _hstack_legs(relabeled, deg)
                comps[deg] = induced_matrix(through, composite)
            structure[pi] = ChainMap(q, q, comps)
    g = LaxDiagram(f.level, objects, structure, laxity)
    return g, DiagramMorphism(f, g, eta)


def universal_extension(
    f: LaxDiagram, g: LaxDiagram, phi: DiagramMorphism
) -> DiagramMorphism:
    """The unique lax-compatible extension of phi : f -> Ug along the unit.

    Rebuilds the free construction on f (deterministically identical) and
    induces each level through the colimit: the extension is determined on
    the colimit generators, which is also why it is unique.
    """
    if g.level != f.level:
        raise ValueError("level mismatch")
    if g.laxity is None:
        raise ValueError("the target needs laxity maps")
    free, eta_m = gamma_na(f)
    eta = eta_m.components
    ext = {1: phi.component(1)}
    for n in range(2, f.level + 1):
        lshape, cshape, nodes, arrows, coff, fnode = _joint_level(f, free, eta, n)
        q, legs = colimit(nodes, arrows)
        if q != free.objects[n]:
            raise InvariantError(f"joint colimit at level {n} differs from the free object")
        cocone = []
        for ob in lshape.objects:
            if isinstance(ob, PairObject):
                m = g.structure_map(ob.to_sum) @ g.laxity_map(ob.p, ob.q) @ tensor_map(
                    ext[ob.p], ext[ob.q]
                )
            else:
                m = g.structure_map(ob.to_level) @ ext[ob.p]
            cocone.append(m)
        for ob in cshape.objects:
            cocone.append(g.structure_map(ob.to_level) @ phi.component(ob.p))
        cocone.append(phi.component(n))
        comps = {}
        for deg in q.dims:
            through = _hstack_legs(legs, deg)
            composite = _hstack_legs(cocone, deg)
            comps[deg] = induced_matrix(through, composite)
        ext[n] = ChainMap(q, g.objects[n], comps)
    return DiagramMorphism(free, g, ext)


def lan_entry(f: ChainMap, n: int, p: int) -> ChainComplex:
    """Entry at level p of the left Kan extension along the unique arrow from
    level 1 to level n of the arrow f : m0 -> m1.

    The entry is m0 wherever there is no surjection p ->> n, and otherwise
    the wide pushout of |Surj(p, n)| copies of f.  At p = 1 it is always m0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    count = len(enumerate_surjections(p, n))
    if count == 0:
        return f.source
    return wide_pushout([f] * count)[0]
