"""The inductive free construction for nonassociative lax diagrams.

Starting from a plain functorial diagram F, the free nonassociative lax
diagram G is built level by level: G(1) = F(1) verbatim, and G(n) is the
pushout of the canonical map (classical latching of F at n) -> F(n) along
the comparison map into the lax latching object of the part of G already
built.  Structure maps, multiplication-style laxity maps and the unit
transformation eta : F -> G all fall out of the colimit legs.

All colimits are computed as cokernels of explicit relation matrices with a
deterministic generator order (shape-object order, then basis order), so
repeated runs are bit-identical.  Every map out of a level (the bijection
actions, the universal extension) is read off the free generator columns of
its colimit by `Colimit.induce`.  The free diagram on f is shared while it
is alive, like `tensor(c, d)`, and carries its unit and joint colimits
privately, so `universal_extension(f, ...)` reads the joints of a live
`gamma_na(f)` result instead of rebuilding them.

Size warning: the latching shapes grow like surjection counts times level
decompositions; see the complexity table in the README.  Keep N <= 3 for
dense experiments and N = 4 only for very small objects.
"""

from __future__ import annotations

import weakref

from .chain import (
    ChainComplex,
    ChainMap,
    Colimit,
    _shared,
    colimit,
    tensor,
    tensor_map,
    wide_pushout,
)
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
    """Chain complexes at each shape object; `tensor` returns one product
    per (p, q), since the operands are the same objects."""
    return [
        tensor(d.objects[ob.p], d.objects[ob.q]) if isinstance(ob, PairObject)
        else d.objects[ob.p]
        for ob in shape.objects
    ]


def _shape_arrow_map(d: LaxDiagram, shape, arr) -> ChainMap:
    src_ob = shape.objects[arr.src]
    if arr.kind == "pair":
        return tensor_map(d.structure_map(arr.a), d.structure_map(arr.b))
    if arr.kind == "gamma":
        phi = d.laxity_map(src_ob.p, src_ob.q)
        return d.structure_map(arr.c) @ phi
    return d.structure_map(arr.c)


def _shape_diagram(d: LaxDiagram, n: int, classical: bool, offset: int = 0):
    """The level-n latching shape with its nodes over d and its arrows, whose
    endpoints are shifted by `offset`.  The shape reads levels below n."""
    if n < 2 or n > d.level + 1:
        raise ValueError("level out of range for the given diagram")
    shape = latching_shape(n, classical=classical)
    arrows = [
        (offset + arr.src, offset + arr.tgt, _shape_arrow_map(d, shape, arr))
        for arr in shape.arrows
    ]
    return shape, _shape_values(d, shape), arrows


def lax_latching(h, n: int) -> Colimit:
    """Colimit of the decomposition diagram below level n; its legs are
    indexed like the shape objects."""
    _, nodes, arrows = _shape_diagram(h, n, classical=False)
    return colimit(nodes, arrows)


def classical_latching(f, n: int) -> Colimit:
    """Ordinary latching object of the underlying diagram at level n."""
    _, nodes, arrows = _shape_diagram(f, n, classical=True)
    return colimit(nodes, arrows)


def delta_map(f, h, n: int, unit: dict | None = None) -> ChainMap:
    """The canonical comparison from the classical latching of f into the lax
    latching of h, sending each classical leg into the matching single-level
    leg.  `unit` gives the components f(p) -> h(p) (identity if omitted)."""
    lat = classical_latching(f, n)
    llegs = lax_latching(h, n).legs
    lshape = latching_shape(n, classical=False)
    if unit is None:
        unit = {p: ChainMap.identity(f.objects[p]) for p in range(1, n)}
    return lat.induce([
        llegs[lshape.plus_index(ob.p, ob.to_level)] @ unit[ob.p]
        for ob in latching_shape(n, classical=True).objects
    ])


# ---------------------------------------------------------------------------
# the free construction
# ---------------------------------------------------------------------------


def _joint_level(f: LaxDiagram, below: LaxDiagram, eta: dict, n: int):
    """The colimit whose object is the level-n value of the free
    construction, over the lax shape on `below` (the free diagram up to
    level n - 1), the classical shape on f, and the node f(n) itself, which
    comes last.  Returns the two shapes and the colimit."""
    lshape, nodes, arrows = _shape_diagram(below, n, classical=False)
    coff = len(nodes)
    cshape, cnodes, carrows = _shape_diagram(f, n, classical=True, offset=coff)
    nodes += cnodes
    arrows += carrows
    fnode = len(nodes)
    nodes.append(f.objects[n])
    for k, ob in enumerate(cshape.objects):
        arrows.append((coff + k, fnode, f.structure_map(ob.to_level)))
        arrows.append((coff + k, lshape.plus_index(ob.p, ob.to_level), eta[ob.p]))
    return lshape, cshape, colimit(nodes, arrows)


_FREE_MEMO: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _free_levels(f: LaxDiagram) -> LaxDiagram:
    """The free diagram on f, shared while alive; privately it carries the unit
    f -> free (`_free_unit`) and per level n >= 2 the lax and classical shapes
    and the joint colimit whose object is free(n) (`_free_joints`)."""
    return _shared(_FREE_MEMO, _build_free, f)


def _build_free(f: LaxDiagram) -> LaxDiagram:
    objects = {1: f.objects[1]}
    structure: dict = {}
    laxity: dict = {}
    eta = {1: ChainMap.identity(f.objects[1])}
    joints = {}
    for n in range(2, f.level + 1):
        below = LaxDiagram(n - 1, objects, structure, laxity)
        lshape, cshape, joint = _joint_level(f, below, eta, n)
        joints[n] = (lshape, cshape, joint)
        legs = joint.legs
        objects[n] = joint.obj
        eta[n] = legs[-1]
        for k, ob in enumerate(lshape.objects):
            if isinstance(ob, PlusObject):
                structure[ob.to_level] = legs[k]
            elif ob.p + ob.q == n and ob.to_sum.is_identity():
                laxity[(ob.p, ob.q)] = legs[k]
        # bijections act by reindexing the whole cocone
        for pi in enumerate_surjections(n, n):
            if pi.is_identity():
                continue
            relabeled = []
            for ob in lshape.objects:
                if isinstance(ob, PairObject):
                    moved = PairObject(ob.p, ob.q, compose(ob.to_sum, pi))
                else:
                    moved = PlusObject(ob.p, compose(ob.to_level, pi))
                relabeled.append(legs[lshape.index(moved)])
            for ob in cshape.objects:
                j = lshape.plus_index(ob.p, compose(ob.to_level, pi))
                relabeled.append(legs[j] @ eta[ob.p])
            relabeled.append(eta[n] @ f.structure_map(pi))
            structure[pi] = joint.induce(relabeled)
    free = LaxDiagram(f.level, objects, structure, laxity)
    free._free_unit, free._free_joints = eta, joints
    return free


def gamma_na(f: LaxDiagram):
    """Free nonassociative lax diagram on f, with the unit transformation.

    The level-1 value is f(1) verbatim.  Each higher value is the pushout of
    the classical-latching map into f(n) along the comparison into the lax
    latching object; laxity maps and structure maps are colimit legs, and
    the action of the level-n bijections is induced by reindexing the legs.
    """
    g = _free_levels(f)
    return g, DiagramMorphism(f, g, g._free_unit)


def universal_extension(
    f: LaxDiagram, g: LaxDiagram, phi: DiagramMorphism
) -> DiagramMorphism:
    """The unique lax-compatible extension of phi : f -> Ug along the unit.

    Induces each level out of the joint colimit that a live `gamma_na(f)`
    shares: the extension is determined on the colimit generators, which is
    also why it is unique.  A pair object (p, q; s) gets the leg
    g(s) . laxity(p, q) . (ext_p (x) ext_q), the last two built once per (p, q).
    """
    if g.level != f.level:
        raise ValueError("level mismatch")
    if g.laxity is None:
        raise ValueError("the target needs laxity maps")
    free = _free_levels(f)
    ext = {1: phi.component(1)}
    lax_ext = {}
    for n, (lshape, cshape, joint) in free._free_joints.items():
        cocone = []
        for ob in lshape.objects:
            if isinstance(ob, PairObject):
                pq = (ob.p, ob.q)
                if pq not in lax_ext:
                    lax_ext[pq] = g.laxity_map(*pq) @ tensor_map(ext[ob.p], ext[ob.q])
                cocone.append(g.structure_map(ob.to_sum) @ lax_ext[pq])
            else:
                cocone.append(g.structure_map(ob.to_level) @ ext[ob.p])
        cocone += [g.structure_map(ob.to_level) @ phi.component(ob.p) for ob in cshape.objects]
        cocone.append(phi.component(n))
        ext[n] = joint.induce(cocone)
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
