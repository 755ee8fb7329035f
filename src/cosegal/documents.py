"""Canonical JSON documents for every object the CLI consumes or emits.

Serialization is canonical: sorted keys, minimal separators, a trailing
newline, and each matrix written from its stored form (its numerators when
its denominator is 1, else each entry in lowest terms, an integer or an
"a/b" string), so equal objects serialize byte-identically.  The reader
hands JSON integers to `Matrix.from_rows` as they are and parses only Q's
"a/b" strings; the matrix constructor is the one numeric check.

Schema problems raise DocumentError (CLI exit 2); mathematically broken but
well-formed content (a differential that does not square to zero, a map
that is not a chain map, a failed premonoid axiom) raises ValidationFailure
carrying the named violations (CLI exit 1).  Every loader reads the shape of
its document through four helpers and nothing else: `_object` (a JSON
object), `_int` (an integer, optionally bounded below), `_entries` (an
object's items with parsed keys) and `_degreewise` (matrices keyed by
degree, for differentials and chain-map components).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial

from .chain import ChainComplex, ChainMap, GeneratingCofibration, tensor, unit_complex
from .field_linalg import Field, Matrix
from .phi_epi import Surjection
from .premonoid import (
    DiagramMorphism,
    LaxDiagram,
    StrictMonoid,
    Violation,
)
from .two_constant import K2Instruction, TwoConstantPremonoid

__all__ = [
    "MAX_LEVEL",
    "DocumentError",
    "ValidationFailure",
    "canonical_dumps",
    "dump_document",
    "load_document",
    "complex_to_dict",
    "complex_from_dict",
    "map_to_dict",
    "map_from_dict",
    "diagram_to_dict",
    "diagram_from_dict",
    "morphism_to_dict",
    "two_constant_to_dict",
    "two_constant_from_dict",
    "instruction_to_dict",
    "instruction_from_dict",
]


# deepest truncation level accepted: level 6 has 5,310 structure maps to cover,
# while enumerating them near level 8 no longer finishes
MAX_LEVEL = 6


class DocumentError(Exception):
    """Malformed document: schema or shape problems."""


class ValidationFailure(Exception):
    """Well-formed document with broken mathematics."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _decode_entry(field: Field, x):
    """A matrix entry that is not a JSON integer: over Q a string "-a/b" in
    decimal digits with b > 0 ("-" and "/b" optional); anything else is refused."""
    if field.is_rational and isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # b = 0, or past int()'s digit limit
            pass
    raise DocumentError(f"bad matrix entry {x!r}")


def _matrix_to_rows(m: Matrix) -> list:
    """m's numerators if den is 1, else each num / den as an integer or "a/b"."""
    rows, den = m.num.tolist(), m.den
    if den == 1:
        return rows
    return [[str(q) if (q := Fraction(x, den)).denominator > 1 else q.numerator for x in r]
            for r in rows]


def _components_to_dict(f: ChainMap) -> dict:
    return {str(n): _matrix_to_rows(m) for n, m in f.components.items()}


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise DocumentError(f"{what} must be an object")
    return x


def _int(x, what: str, low: int | None = None) -> int:
    if isinstance(x, int) and not isinstance(x, bool) and (low is None or x >= low):
        return x
    bound = "" if low is None else f" >= {low}"
    raise DocumentError(f"{what} must be an integer{bound}")


def _entries(raw, key, what: str) -> list:
    """The items of the object raw, each key parsed by key (a ValueError
    from the parser is a schema problem)."""
    out = []
    for k, v in _object(raw, what).items():
        try:
            out.append((key(k), v))
        except ValueError as exc:
            raise DocumentError(f"bad key {k!r} in {what}: {exc}") from exc
    return out


def _degreewise(field: Field, raw, shape, what: str) -> dict:
    """{degree: Matrix} from an object of row lists keyed by degree, where
    shape(degree) is the (rows, columns) the matrix must have."""
    return {
        n: _matrix_from_rows(field, rows, *shape(n)) for n, rows in _entries(raw, int, what)
    }


def _matrix_from_rows(field: Field, rows, nrows: int, ncols: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise DocumentError("matrix has wrong row count")
    if any(not isinstance(r, list) or len(r) != ncols for r in rows):
        raise DocumentError("matrix has ragged or wrong-length rows")
    return Matrix.from_rows(
        field, [[x if type(x) is int else _decode_entry(field, x) for x in r] for r in rows],
        cols=ncols,
    )


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# complexes and maps
# ---------------------------------------------------------------------------


def complex_to_dict(c: ChainComplex, kind: bool = True) -> dict:
    lo, hi = c.window
    out = {
        "field": c.field.characteristic,
        "window": [lo, hi],
        "dims": {str(n): c.dim(n) for n in c.dims},
        "diff": {str(n): _matrix_to_rows(m) for n, m in c.diff.items()},
    }
    if kind:
        out["kind"] = "complex"
    return out


def complex_from_dict(d: dict, max_dim: int | None = None) -> ChainComplex:
    d = _object(d, "complex")
    try:
        field = Field(_int(d.get("field"), "field"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    dims = {}
    for n, v in _entries(d.get("dims", {}), int, "dims"):
        dims[n] = _int(v, f"dimension at degree {n}", 0)
        if max_dim is not None and v > max_dim:
            raise DocumentError(
                f"dimension {v} at degree {n} exceeds the safety cap {max_dim}"
            )
    diff = _degreewise(
        field, d.get("diff", {}), lambda n: (dims.get(n - 1, 0), dims.get(n, 0)), "diff"
    )
    try:
        return ChainComplex(field, dims, diff)
    except ValueError as exc:
        raise ValidationFailure([Violation("complex", (str(exc),))]) from exc


def map_to_dict(f: ChainMap, kind: bool = True) -> dict:
    out = {
        "source": complex_to_dict(f.source, kind=False),
        "target": complex_to_dict(f.target, kind=False),
        "components": _components_to_dict(f),
    }
    if kind:
        out["kind"] = "map"
    return out


def _components_from(
    field: Field, raw, source: ChainComplex, target: ChainComplex, where: tuple
) -> ChainMap:
    comps = _degreewise(
        field, raw, lambda n: (target.dim(n), source.dim(n)), f"components at {where}"
    )
    try:
        return ChainMap(source, target, comps)
    except ValueError as exc:
        raise ValidationFailure([Violation("chain-map", where, str(exc))]) from exc


def map_from_dict(d: dict, max_dim: int | None = None) -> ChainMap:
    src = complex_from_dict(d.get("source", {}), max_dim)
    tgt = complex_from_dict(d.get("target", {}), max_dim)
    if src.field != tgt.field:
        raise DocumentError("source/target field mismatch")
    return _components_from(src.field, d.get("components", {}), src, tgt, ("map",))


# ---------------------------------------------------------------------------
# diagrams and premonoids
# ---------------------------------------------------------------------------


def _surjection_key(v: Surjection) -> str:
    return ",".join(str(x) for x in v.map)


def _surjection_from_key(key: str) -> Surjection:
    arr = [int(x) for x in key.split(",")]
    return Surjection(len(arr), max(arr) + 1, tuple(arr))


def _pair_from_key(key: str) -> tuple[int, int]:
    p, q = (int(x) for x in key.split(","))
    return p, q


def _level_objects(d: dict, max_dim: int | None) -> tuple[int, dict]:
    level = _int(d.get("level"), "level", 2)
    if level > MAX_LEVEL:
        raise DocumentError(f"level must be at most {MAX_LEVEL}, got {level}")
    raw = dict(_entries(d.get("objects"), int, "objects"))
    if set(raw) != set(range(1, level + 1)):
        raise DocumentError("objects must cover levels 1..N")
    return level, {n: complex_from_dict(c, max_dim) for n, c in raw.items()}


def _structure_from(d: dict, level: int, objects: dict) -> dict:
    structure = {}
    for v, comps in _entries(d.get("structure"), _surjection_from_key, "structure"):
        key = _surjection_key(v)
        if v.source_size > level:
            raise DocumentError(f"structure key {key!r} beyond the truncation level")
        structure[v] = _components_from(
            objects[1].field, comps, objects[v.target_size], objects[v.source_size],
            ("structure", key),
        )
    return structure


# the optional sections each diagram kind writes and requires
_SECTIONS = {
    "diagram": (),
    "na_diagram": ("laxity",),
    "premonoid": ("laxity", "unit"),
}


def diagram_to_dict(f: LaxDiagram, kind: str = "diagram") -> dict:
    """The document of f as a `diagram`, `na_diagram` or `premonoid`; the
    kind names which of the laxity and unit sections are written."""
    sections = _SECTIONS[kind]
    out = {
        "kind": kind,
        "level": f.level,
        "objects": {str(n): complex_to_dict(c, kind=False) for n, c in f.objects.items()},
        "structure": {
            _surjection_key(v): _components_to_dict(g) for v, g in f.structure.items()
        },
    }
    if "laxity" in sections:
        out["laxity"] = {
            f"{p},{q}": _components_to_dict(g) for (p, q), g in f.laxity.items()
        }
    if "unit" in sections:
        out["unit"] = _components_to_dict(f.unit)
    return out


def _laxity_from(d: dict, level: int, objects: dict) -> dict:
    laxity = {}
    for (p, q), comps in _entries(d.get("laxity"), _pair_from_key, "laxity"):
        key = f"{p},{q}"
        if p < 1 or q < 1 or p + q > level:
            raise DocumentError(f"laxity key {key!r} out of range")
        laxity[(p, q)] = _components_from(
            objects[1].field, comps, tensor(objects[p], objects[q]), objects[p + q],
            ("laxity", key),
        )
    return laxity


def diagram_from_dict(
    d: dict, max_dim: int | None = None, kind: str = "diagram"
) -> LaxDiagram:
    """Load a `diagram`, `na_diagram` or `premonoid` document; the kind names
    which of the laxity and unit sections are read, and they are required."""
    sections = _SECTIONS[kind]
    level, objects = _level_objects(_object(d, kind), max_dim)
    structure = _structure_from(d, level, objects)
    laxity = _laxity_from(d, level, objects) if "laxity" in sections else None
    unit = None
    if "unit" in sections:
        field = objects[1].field
        unit = _components_from(
            field, d.get("unit", {}), unit_complex(field), objects[1], ("unit",)
        )
    try:
        return LaxDiagram(level, objects, structure, laxity, unit)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def morphism_to_dict(s: DiagramMorphism) -> dict:
    return {
        "kind": "morphism",
        "source": diagram_to_dict(s.source, "premonoid"),
        "target": diagram_to_dict(s.target, "premonoid"),
        "components": {str(n): _components_to_dict(f) for n, f in s.components.items()},
    }


def morphism_from_dict(d: dict, max_dim: int | None = None) -> DiagramMorphism:
    src = diagram_from_dict(d.get("source", {}), max_dim, "premonoid")
    tgt = diagram_from_dict(d.get("target", {}), max_dim, "premonoid")
    comps = {}
    for n, comp in _entries(d.get("components"), int, "components"):
        if n not in src.objects or n not in tgt.objects:
            raise DocumentError(f"component level {n} out of range")
        comps[n] = _components_from(
            src.field, comp, src.objects[n], tgt.objects[n], ("component", str(n))
        )
    try:
        return DiagramMorphism(src, tgt, comps)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# ---------------------------------------------------------------------------
# packaged 2-constant premonoids and instructions
# ---------------------------------------------------------------------------


def two_constant_to_dict(f: TwoConstantPremonoid) -> dict:
    return {
        "kind": "two_constant",
        "base": {
            "object": complex_to_dict(f.base.obj, kind=False),
            "mu": _components_to_dict(f.base.mu),
            "e": _components_to_dict(f.base.e),
        },
        "apex": complex_to_dict(f.apex, kind=False),
        "h": _components_to_dict(f.h),
        "unit": _components_to_dict(f.unit_map),
    }


def two_constant_from_dict(d: dict, max_dim: int | None = None) -> TwoConstantPremonoid:
    base_raw = _object(d.get("base"), "base")
    a = complex_from_dict(base_raw.get("object", {}), max_dim)
    fld = a.field
    mu = _components_from(fld, base_raw.get("mu", {}), tensor(a, a), a, ("base", "mu"))
    e = _components_from(fld, base_raw.get("e", {}), unit_complex(fld), a, ("base", "e"))
    try:
        base = StrictMonoid(a, mu, e)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    apex = complex_from_dict(d.get("apex", {}), max_dim)
    h = _components_from(fld, d.get("h", {}), apex, a, ("h",))
    unit = _components_from(fld, d.get("unit", {}), unit_complex(fld), apex, ("unit",))
    try:
        return TwoConstantPremonoid(base, apex, h, unit)
    except ValueError as exc:
        raise ValidationFailure([Violation("two-constant", (str(exc),))]) from exc


def instruction_to_dict(ins: K2Instruction) -> dict:
    return {
        "kind": "instruction",
        "alpha_degree": ins.alpha.degree,
        "q": _components_to_dict(ins.q),
        "p": _components_to_dict(ins.p),
    }


def _raw_instruction(d: dict, max_dim: int | None = None) -> dict:
    """d, with what needs no premonoid checked: alpha_degree, q and p."""
    _int(_object(d, "instruction").get("alpha_degree"), "alpha_degree")
    for key in ("q", "p"):
        _object(d.get(key, {}), key)
    return d


def instruction_from_dict(d: dict, f: TwoConstantPremonoid) -> K2Instruction:
    deg = _raw_instruction(d)["alpha_degree"]
    gen = GeneratingCofibration(deg, f.field)
    q = _components_from(f.field, d.get("q", {}), gen.sphere, f.apex, ("q",))
    p = _components_from(f.field, d.get("p", {}), gen.disc, f.base.obj, ("p",))
    ins = K2Instruction(gen, q, p)
    if f.h @ q != p @ gen.inclusion:
        raise ValidationFailure(
            [Violation("attaching-square", (deg,), "square does not commute")]
        )
    return ins


# ---------------------------------------------------------------------------
# kind-tagged dispatch
# ---------------------------------------------------------------------------

_TO = {
    "complex": complex_to_dict,
    "map": map_to_dict,
    **{kind: partial(diagram_to_dict, kind=kind) for kind in _SECTIONS},
    "morphism": morphism_to_dict,
    "two_constant": two_constant_to_dict,
    "instruction": instruction_to_dict,
}

_FROM = {
    "complex": complex_from_dict,
    "map": map_from_dict,
    **{kind: partial(diagram_from_dict, kind=kind) for kind in _SECTIONS},
    "morphism": morphism_from_dict,
    "two_constant": two_constant_from_dict,
    "instruction": _raw_instruction,
}


def dump_document(obj, kind: str) -> str:
    if kind not in _TO:
        raise DocumentError(f"unknown document kind {kind!r}")
    return canonical_dumps(_TO[kind](obj))


def load_document(d: dict, max_dim: int | None = None):
    """Load a kind-tagged document; returns (kind, object).

    Instructions are returned raw once checked (they need a premonoid for context).
    """
    if not isinstance(d, dict):
        raise DocumentError("document must be a JSON object")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _FROM:
        raise DocumentError(f"unknown document kind {kind!r}")
    return kind, _FROM[kind](d, max_dim)
