"""The inductive free construction for nonassociative lax diagrams.

Starting from a plain functorial diagram F, the free nonassociative lax
diagram G is built level by level: G(1) = F(1) verbatim, and G(n) is the
pushout of the canonical map (classical latching of F at n) -> F(n) along
the comparison map into the lax latching object of the part of G already
built.  Structure maps, multiplication-style laxity maps and the unit
transformation eta : F -> G all fall out of the colimit legs.

All colimits take one sparse relation row per arrow and source coordinate,
with a deterministic generator order (shape-object order, then basis
order), so repeated runs are bit-identical.  Every map out of a level is
read off the free generator columns of its colimit; only the universal
extension's cocone is checked to descend (see `_build_free`).  The free
diagram on f is shared while it is alive, like `tensor(c, d)`, and carries
its unit and joint colimits privately, so `universal_extension(f, ...)`
reads the joints of a live `gamma_na(f)` result instead of rebuilding them.

Size warning: the latching shapes grow like surjection counts times level
decompositions; see the complexity table in the README.  The N = 4 point
tower takes about a second; `cosegal gamma` refuses N = 5.
"""

from __future__ import annotations

import weakref

from .chain import (
    ChainComplex,
    ChainMap,
    Colimit,
    _read_off,
    _shared,
    colimit,
    tensor,
    tensor_map,
    wide_pushout,
)
from .phi_epi import (
    PairObject,
    PlusObject,
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


def _shape_diagram(d: LaxDiagram, n: int, classical: bool):
    """The level-n latching shape with its nodes over d and its arrows.  The
    shape reads levels below n."""
    if n < 2 or n > d.level + 1:
        raise ValueError("level out of range for the given diagram")
    shape = latching_shape(n, classical=classical)
    arrows = [(arr.src, arr.tgt, _shape_arrow_map(d, shape, arr)) for arr in shape.arrows]
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


def delta_map(f, h, n: int) -> ChainMap:
    """The canonical comparison from the classical latching of f into the lax
    latching of h, sending each classical leg into the matching single-level
    leg; composing with the identity of f(p) checks that h(p) is f(p)."""
    lat = classical_latching(f, n)
    llegs = lax_latching(h, n).legs
    lshape = latching_shape(n, classical=False)
    return lat.induce([
        llegs[lshape.index(ob)] @ ChainMap.identity(f.objects[ob.p])
        for ob in latching_shape(n, classical=True).objects
    ])


# ---------------------------------------------------------------------------
# the free construction
# ---------------------------------------------------------------------------


def _joint_level(f: LaxDiagram, below: LaxDiagram, eta: dict, n: int):
    """The lax shape and the colimit whose object is free(n): the lax shape
    on `below` (the free diagram up to level n - 1), then one middle node
    f(p) per plus object (p, v), spanning f(n) <- f(p) -> below(p) along
    f(v) and eta_p, then f(n).

    No classical latching arrow is needed, because f is a functor: an arrow
    c : (p, v) -> (p', t) with c . t = v relates x to f(c)x, and both already
    equal f(v)x = f(t)f(c)x in f(n).  The relation span, and so its unique
    reduced echelon form, proj, free, legs and object, stay the classical ones.
    """
    lshape, nodes, arrows = _shape_diagram(below, n, classical=False)
    plus = [(k, ob) for k, ob in enumerate(lshape.objects) if isinstance(ob, PlusObject)]
    fnode = len(nodes) + len(plus)
    for mid, (k, ob) in enumerate(plus, start=len(nodes)):
        nodes.append(f.objects[ob.p])
        arrows += [(mid, fnode, f.structure_map(ob.to_level)), (mid, k, eta[ob.p])]
    nodes.append(f.objects[n])
    return lshape, colimit(nodes, arrows)


_FREE_MEMO: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _free_levels(f: LaxDiagram) -> LaxDiagram:
    """The free diagram on f, shared while alive; privately it carries the unit
    f -> free (`_free_unit`) and per level n >= 2 the lax shape and the joint
    colimit whose object is free(n) (`_free_joints`)."""
    return _shared(_FREE_MEMO, _build_free, f)


def _build_free(f: LaxDiagram) -> LaxDiagram:
    """Each bijection pi acts on free(n) by reindexing the joint cocone: each
    node moves like its shape object (a middle node like its plus object),
    and f(n) by f(pi).  That is an automorphism of the joint diagram, so the
    reindexed legs descend and the action is read off without a check."""
    objects = {1: f.objects[1]}
    structure: dict = {}
    laxity: dict = {}
    eta = {1: ChainMap.identity(f.objects[1])}
    joints = {}
    for n in range(2, f.level + 1):
        below = LaxDiagram(n - 1, objects, structure, laxity)
        lshape, joint = _joint_level(f, below, eta, n)
        joints[n] = (lshape, joint)
        legs = joint.legs
        objects[n] = joint.obj
        eta[n] = legs[-1]
        for k, ob in enumerate(lshape.objects):
            if isinstance(ob, PlusObject):
                structure[ob.to_level] = legs[k]
            elif ob.p + ob.q == n and ob.to_sum.is_identity():
                laxity[(ob.p, ob.q)] = legs[k]
        # the middle nodes stand for the last `mids` shape objects
        mids = len(legs) - 1 - len(lshape.objects)
        for pi in enumerate_surjections(n, n):
            if pi.is_identity():
                continue
            moved = []
            for ob in lshape.objects:
                if isinstance(ob, PairObject):
                    ob = PairObject(ob.p, ob.q, compose(ob.to_sum, pi))
                else:
                    ob = PlusObject(ob.p, compose(ob.to_level, pi))
                moved.append(lshape.index(ob))
            moved += [k + mids for k in moved[-mids:]]
            cocone = [legs[k] for k in moved] + [eta[n] @ f.structure_map(pi)]
            structure[pi] = _read_off(joint, cocone)
    free = LaxDiagram(f.level, objects, structure, laxity)
    free._free_unit, free._free_joints = eta, joints
    return free


def gamma_na(f: LaxDiagram):
    """Free nonassociative lax diagram on f, with the unit transformation.

    f must be a functor (the CLI validates it): the level-n gluing relies on
    it.  The level-1 value is f(1) verbatim.  Each higher value is the
    pushout of the classical-latching map into f(n) along the comparison
    into the lax latching object; laxity maps and structure maps are colimit
    legs, and the action of the level-n bijections is induced by reindexing
    the legs.
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
    for n, (lshape, joint) in free._free_joints.items():
        cocone, mids = [], []
        for ob in lshape.objects:
            if isinstance(ob, PairObject):
                pq = (ob.p, ob.q)
                if pq not in lax_ext:
                    lax_ext[pq] = g.laxity_map(*pq) @ tensor_map(ext[ob.p], ext[ob.q])
                cocone.append(g.structure_map(ob.to_sum) @ lax_ext[pq])
            else:
                cocone.append(g.structure_map(ob.to_level) @ ext[ob.p])
                mids.append(g.structure_map(ob.to_level) @ phi.component(ob.p))
        ext[n] = joint.induce(cocone + mids + [phi.component(n)])
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
