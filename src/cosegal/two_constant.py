"""Two-constant premonoids and their co-Segal replacement.

A 2-constant premonoid is constant above level 1: it is determined by a
strict commutative monoid (the base), an apex complex over level 1, a
comparison map h from the apex into the base, and a unit factorization.
Everything here works with that packaged form: every map F(1) -> F(n) of
the truncated premonoid is h, so the co-Segal and injectivity questions are
decided on h, and `expand_to_premonoid` (which proves its result valid)
runs only to write a `premonoid` document or build a `DiagramMorphism`.

The replacement functor factors h as a cofibration into the mapping
cylinder followed by a trivial fibration.  Over a field this produces, in
one deterministic step, an object whose level maps are trivial fibrations,
i.e. one that is injective against the whole localizing set; the usual
transfinite induction is never needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    ChainComplex,
    ChainMap,
    GeneratingCofibration,
    _read_off,
    colimit,
    cylinder_factorization,
    is_quasi_iso,
    is_trivial_fibration,
    unit_complex,
)
from .phi_epi import unique_to_one
from .premonoid import (
    DiagramMorphism,
    LaxDiagram,
    StrictMonoid,
    _constant_diagram,
    _require_valid,
    from_strict,
    h_star,
    to_strict,
    validate_strict,
)

__all__ = [
    "TwoConstantPremonoid",
    "K2Instruction",
    "localizing_set",
    "expand_to_premonoid",
    "package_two_constant",
    "reflect",
    "fundamental_factorization",
    "pushout_k2",
    "upsilon_morphism",
    "push_instruction_forward",
    "wide_pushout_two_constant",
    "cosegalify_two_constant",
    "is_k_injective",
]


@dataclass
class TwoConstantPremonoid:
    """Base monoid, apex over level 1, comparison h, and unit factorization."""

    base: StrictMonoid
    apex: ChainComplex
    h: ChainMap
    unit_map: ChainMap

    def __post_init__(self):
        if self.h.source != self.apex or self.h.target != self.base.obj:
            raise ValueError("h must run from the apex to the base object")
        if self.unit_map.source != unit_complex(self.apex.field) or self.unit_map.target != self.apex:
            raise ValueError("unit map must run from the unit into the apex")
        if self.h @ self.unit_map != self.base.e:
            raise ValueError("unit factorization h . unit = base unit fails")

    @property
    def field(self):
        return self.apex.field

    def validate(self):
        return validate_strict(self.base)

    def is_cosegal(self, level: int) -> bool:
        """Whether the expansion at `level` is co-Segal: its maps
        F(1) -> F(n) are all h, so this is whether h is a quasi-isomorphism."""
        return is_quasi_iso(_level_map(self, level))


@dataclass
class K2Instruction:
    """A level-2 attaching instruction: a generating cofibration together
    with maps q (sphere into the apex) and p (disc into the base) making the
    square against h commute."""

    alpha: GeneratingCofibration
    q: ChainMap
    p: ChainMap


@dataclass(frozen=True)
class LocalizingTemplate:
    """One localizing morphism shape: a generating cofibration degree and the
    level it attaches at; completed into an instruction by attaching maps."""

    degree: int
    level: int


def localizing_set(window: tuple[int, int], max_level: int) -> list[LocalizingTemplate]:
    """Templates for the localizing set: one per (disc degree meeting the
    window, level 2..N)."""
    if max_level < 2:
        raise ValueError("need at least level 2")
    lo, hi = window
    out = []
    for n in range(2, max_level + 1):
        for d in range(lo, hi + 2):
            out.append(LocalizingTemplate(d, n))
    return out


def expand_to_premonoid(f: TwoConstantPremonoid, level: int) -> LaxDiagram:
    """Materialise the truncated premonoid: the constant diagram of the base,
    rebased at level 1 along h.

    `validate` passes on it whenever `validate_strict(base)` holds and
    h.e~ = e, for the base (A, mu, e), h : M -> A and the unit e~ : I -> M.
    Let k_n be h at n = 1 and id_A above.  The expansion G has G(1) = M and
    G(n) = A above, G(v) = k_m for each non-identity v : n ->> m (so
    k_n.G(v) = k_m for every v), and phi_{p,q} = mu.(k_p (x) k_q).
      - functoriality: both sides of G(v).G(u) = G(u.v) are k_k;
      - laxity naturality: phi_{p',q'}.(G(a) (x) G(b)) = mu.(k_p (x) k_q),
        which is G(a + b).phi_{p,q} because G(a + b) is an identity;
      - associativity and symmetry: the two sides are those of the base
        axiom precomposed with k_p (x) k_q (x) k_r or k_p (x) k_q, moved
        past the associator or the braiding by naturality;
      - diag-unitality: phi_{1,1}.(e~ (x) id) = mu.(e (x) id).h = h = G(u_2).
    The constructor checks h.e~ = e, `_level_map` checks the base and the
    level, and `package_two_constant` matches a `premonoid` input entry
    by entry with this expansion; `cosegal validate` stays the full check.
    """
    _level_map(f, level)
    g, _ = h_star(_constant_diagram(f.base, level), f.h, f.unit_map)
    return g


def _level_map(f: TwoConstantPremonoid, level: int) -> ChainMap:
    """The map F(1) -> F(n) shared by every 2 <= n <= level of the expansion
    of f, which is h; refused where `expand_to_premonoid` refuses."""
    if f.validate():
        raise ValueError("invalid base monoid")
    if level < 2:
        raise ValueError("truncation level must be at least 2")
    return f.h


def package_two_constant(f: LaxDiagram) -> TwoConstantPremonoid:
    """Recover the packaged form from a 2-constant truncated premonoid.

    The base multiplication lives at the (2,2) laxity entry, so the
    truncation level must be at least 4; below that a premonoid document
    simply does not contain enough data to reconstruct the base monoid.
    """
    if f.level < 4:
        raise ValueError(
            "need level >= 4 to recover the base multiplication from a "
            "premonoid document; use a packaged two_constant document instead"
        )
    u2 = unique_to_one(2)
    h = f.structure_map(u2)
    a = f.objects[2]
    mu = f.laxity_map(2, 2)
    e = h @ f.unit
    base = StrictMonoid(a, mu, e)
    packaged = TwoConstantPremonoid(base, f.objects[1], h, f.unit)
    expanded = expand_to_premonoid(packaged, f.level)
    same = (
        expanded.objects == f.objects
        and expanded.laxity == f.laxity
        and expanded.structure == f.structure
        and expanded.unit == f.unit
    )
    if not same:
        raise ValueError("premonoid is not 2-constant (not a rebased constant diagram)")
    return packaged


def reflect(f) -> StrictMonoid:
    """The strict reflection on the shapes where it is explicit: the base of
    a 2-constant premonoid, or the underlying monoid of a constant one."""
    if isinstance(f, TwoConstantPremonoid):
        return f.base
    if isinstance(f, LaxDiagram):
        m = to_strict(f)
        if m is not None:
            return m
    raise ValueError("unsupported shape: reflection is only explicit for "
                     "constant and 2-constant premonoids")


def fundamental_factorization(
    f: TwoConstantPremonoid, level: int
) -> tuple[DiagramMorphism, DiagramMorphism]:
    """Factor the unit into the reflection as rho (identity at level 1)
    followed by eps (h at level 1, identities above).

    For an already 2-constant input the middle object is the input itself,
    so rho is the identity morphism; rho is always an easy weak equivalence.
    """
    eps = h_star(from_strict(f.base, level), f.h, f.unit_map)[1]
    return DiagramMorphism.identity(eps.source), eps


def pushout_k2(
    f: TwoConstantPremonoid, ins: K2Instruction
) -> tuple[TwoConstantPremonoid, ChainMap, ChainMap]:
    """Glue a generating cofibration onto the apex along an attaching square.

    Returns (e, eps, i_v): the new 2-constant premonoid e whose apex is the
    pushout of alpha along q; eps is the apex leg (level-1 component of the
    canonical morphism into e, identity at levels >= 2); i_v the disc leg.
    The base is untouched, so the reflection is preserved verbatim.  The
    square's check is gamma's descent check, so gamma is read off unchecked.
    """
    if f.h @ ins.q != ins.p @ ins.alpha.inclusion:
        raise ValueError("square does not commute")
    alpha = ins.alpha.inclusion
    c = colimit([alpha.source, alpha.target, f.apex], [(0, 1, alpha), (0, 2, ins.q)])
    i_v, eps = c.legs[1], c.legs[2]
    gamma = _read_off(c, [f.h @ ins.q, ins.p, f.h])
    e = TwoConstantPremonoid(f.base, c.obj, gamma, eps @ f.unit_map)
    return e, eps, i_v


def upsilon_morphism(f, e, eps: ChainMap, level: int) -> DiagramMorphism:
    """The canonical morphism expand(f) -> expand(e), eps at level 1 and the
    identity above; f and e may come expanded, at a level >= `level`, to be cut."""
    src, tgt = (x.truncated(level) if isinstance(x, LaxDiagram) else expand_to_premonoid(x, level)
                for x in (f, e))
    comps = {n: eps if n == 1 else ChainMap.identity(src.objects[n]) for n in src.objects}
    return DiagramMorphism(src, tgt, comps)


def push_instruction_forward(ins: K2Instruction, eps: ChainMap) -> K2Instruction:
    """Reattach an instruction along the apex leg of a previous pushout."""
    return K2Instruction(ins.alpha, eps @ ins.q, ins.p)


def wide_pushout_two_constant(
    f: TwoConstantPremonoid, instructions: list[K2Instruction]
):
    """Amalgamate several attaching instructions in one step.

    The apex is the wide pushout of the individual apex legs; the base is
    unchanged.  Returns (e_inf, source_leg, legs) with legs indexed like the
    instructions.  The arrows are the pushouts' apex legs eps, with h . eps =
    f.h for each pushout's h, so h_inf is read off unchecked.
    """
    if not instructions:
        return f, ChainMap.identity(f.apex), []
    pieces = [pushout_k2(f, ins) for ins in instructions]
    apex = colimit(
        [f.apex] + [piece.apex for piece, _, _ in pieces],
        [(0, k + 1, eps) for k, (_, eps, _) in enumerate(pieces)],
    )
    h_inf = _read_off(apex, [f.h] + [piece.h for piece, _, _ in pieces])
    src_leg = apex.legs[0]
    e_inf = TwoConstantPremonoid(f.base, apex.obj, h_inf, src_leg @ f.unit_map)
    return e_inf, src_leg, apex.legs[1:]


def cosegalify_two_constant(
    f: TwoConstantPremonoid,
) -> tuple[TwoConstantPremonoid, ChainMap]:
    """Replace f by a 2-constant premonoid satisfying the co-Segal
    conditions: factor h through its mapping cylinder.

    Returns (s, i): the new apex is Cyl(h); the new comparison is the
    trivial fibration part of the factorization, which is exactly
    injectivity against the level-2 localizing instructions; i is the
    cylinder cofibration.  The base, hence the reflection, is preserved.
    The premonoid morphism tau (i at level 1, identities above) at a level
    N is `upsilon_morphism(f, s, i, N)`.
    """
    i, p = cylinder_factorization(f.h)
    s = TwoConstantPremonoid(f.base, p.source, p, i @ f.unit_map)
    return s, i


def is_k_injective(f, level: int | None = None) -> bool:
    """Whether every map from level 1 up to level n is a trivial fibration.

    Accepts a LaxDiagram, which is validated first, or a
    TwoConstantPremonoid with a level, whose maps F(1) -> F(n) are all h:
    only h is checked, on the package (see `expand_to_premonoid` for why
    its expansion is valid).
    """
    if isinstance(f, TwoConstantPremonoid):
        if level is None:
            raise ValueError("level required for a packaged 2-constant premonoid")
        return is_trivial_fibration(_level_map(f, level))
    _require_valid(f)
    maps = (f.structure_map(unique_to_one(n)) for n in range(2, f.level + 1))
    return all(is_trivial_fibration(g) for g in maps)
