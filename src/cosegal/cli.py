"""Batch command-line interface.

Exit codes: 0 success, 1 semantic failure (an axiom or postcondition does
not hold), 2 input error (unreadable file, malformed JSON, schema problem).
Reports are byte-reproducible given the same inputs and --seed; the safety
cap COSEGAL_MAX_DIM (a positive integer, default 512) bounds per-degree
dimensions of loaded complexes.  A failed internal consistency check
(InvariantError) is reported as a semantic failure, never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from random import Random

from . import documents as docs
from .charp_lab import MAX_EXPONENT, demo_char_p
from .chain import ChainMap, homology_dims, is_cofibration
from .documents import DocumentError, ValidationFailure, canonical_dumps
from .field_linalg import Field, InvariantError
from .free_gamma import gamma_na
from .phi_epi import enumerate_surjections
from .premonoid import LaxDiagram, validate, validate_morphism, validate_strict
from .sampling import random_k2_instruction
from .two_constant import (
    TwoConstantPremonoid,
    cosegalify_two_constant,
    expand_to_premonoid,
    is_k_injective,
    package_two_constant,
    pushout_k2,
    reflect,
    upsilon_morphism,
)

PARSE_ERROR = 2
SEMANTIC_ERROR = 1
# `surjections M N` walks all N^M maps; 7^7 is under a million
MAX_SURJECTION_SOURCE = 7
# `gamma` glues every level as one colimit; at level 5 it has 2,373 nodes and
# 96,302 arrows, and building their maps on the point tower exceeds 3 GB
MAX_GAMMA_LEVEL = 4


def _max_dim() -> int:
    raw = os.environ.get("COSEGAL_MAX_DIM", "512")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DocumentError(f"COSEGAL_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def _characteristic(raw: str) -> int:
    """argparse type for --field: 0 for Q or a supported prime."""
    try:
        return Field(int(raw)).characteristic
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _unique_members(pairs: list) -> dict:
    """One JSON object, refusing a repeated key (`json.load` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {key!r}")
    return obj


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_members)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # an undecodable file, or nesting beyond the parser's recursion limit
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # a syntax error, a repeated key, or an integer past int's digit limit
        raise DocumentError(f"malformed JSON in {path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(lines_or_obj, as_json: bool, out: str | None):
    if as_json:
        _emit(canonical_dumps(lines_or_obj), out)
    else:
        text = "\n".join(_render_lines(lines_or_obj)) + "\n"
        _emit(text, out)


def _render_lines(obj, prefix="") -> list[str]:
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_render_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
        return lines
    if isinstance(obj, list):
        return [f"{prefix}- {item}" for item in obj]
    return [f"{prefix}{obj}"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    worst = 0
    for path in args.paths:
        try:
            kind, obj = docs.load_document(_read_json(path), args.max_dim)
            violations = []
            if kind in ("diagram", "na_diagram", "premonoid"):
                violations = validate(obj)
            elif kind == "morphism":
                violations = validate_morphism(obj)
            elif kind == "two_constant":
                violations = validate_strict(obj.base)
        except ValidationFailure as exc:
            violations = exc.violations
        except DocumentError as exc:
            print(f"ERROR {path}: {exc}")
            worst = PARSE_ERROR
            continue
        if violations:
            print(f"INVALID {path}")
            for v in violations:
                print(f"  {v}")
            worst = max(worst, SEMANTIC_ERROR)
        else:
            print(f"OK {path}")
    return worst


def cmd_surjections(args) -> int:
    if args.m > MAX_SURJECTION_SOURCE:
        raise DocumentError(
            f"surjections: M is at most {MAX_SURJECTION_SOURCE}, got {args.m}"
        )
    surjs = enumerate_surjections(args.m, args.n)
    if args.json:
        _report(
            {"m": args.m, "n": args.n, "count": len(surjs),
             "surjections": [list(s.map) for s in surjs]},
            True,
            args.out,
        )
    else:
        lines = [" ".join(str(x) for x in s.map) for s in surjs]
        _emit("\n".join(lines + [f"count {len(surjs)}"]) + "\n", args.out)
    return 0


def _load_two_constant(path: str, max_dim: int) -> tuple[TwoConstantPremonoid, LaxDiagram | None]:
    """The package and, from a premonoid document, its (proved) expansion."""
    payload = _read_json(path)
    kind, obj = docs.load_document(payload, max_dim)
    if kind == "two_constant":
        return obj, None
    if kind == "premonoid":
        try:
            return package_two_constant(obj), obj
        except ValueError as exc:
            raise ValidationFailure(
                [docs.Violation("two-constant", (), str(exc))]
            ) from exc
    raise DocumentError(f"expected a two_constant or premonoid document, got {kind!r}")


def _emit_like_input(result: TwoConstantPremonoid, expansion: LaxDiagram | None, out: str):
    """Write the result's expansion after a premonoid input, else the package."""
    kind = "two_constant" if expansion is None else "premonoid"
    _emit(docs.dump_document(result if expansion is None else expansion, kind), out)


def _check_level(level: int):
    if not 2 <= level <= docs.MAX_LEVEL:
        bound = "at least 2" if level < 2 else f"at most {docs.MAX_LEVEL}"
        raise DocumentError(f"--level must be {bound}, got {level}")


def cmd_cosegalify(args) -> int:
    _check_level(args.level)
    f, loaded = _load_two_constant(args.input, args.max_dim)
    level = args.level
    s, i = cosegalify_two_constant(f)
    report = {
        "command": "cosegalify",
        "level": level,
        "apex_dims": {str(k): v for k, v in sorted(s.apex.dims.items())},
        "apex_homology": {str(k): v for k, v in sorted(homology_dims(s.apex).items())},
        "is_cosegal": bool(s.is_cosegal(level)),
        "is_k_injective": bool(is_k_injective(s, level)),
        "tau_level1_cofibration": bool(is_cofibration(i)),
        "reflection_preserved": reflect(s) == reflect(f),
    }
    if args.out:
        _emit_like_input(s, None if loaded is None else expand_to_premonoid(s, level), args.out)
    _report(report, args.json, None)
    ok = (
        report["is_cosegal"]
        and report["is_k_injective"]
        and report["tau_level1_cofibration"]
        and report["reflection_preserved"]
    )
    return 0 if ok else SEMANTIC_ERROR


def cmd_pushout_k2(args) -> int:
    _check_level(args.level)
    f, loaded = _load_two_constant(args.input, args.max_dim)
    if args.instruction:
        ins = docs.instruction_from_dict(_read_json(args.instruction), f)
    else:
        rng = Random(args.seed)
        if args.degree is not None:
            degree = args.degree
        else:
            lo, hi = args.window
            if lo > hi:
                raise DocumentError(f"--window {lo} {hi} is empty: LO must be at most HI")
            # a level-2 localizing template over the window: disc degree lo..hi + 1
            degree = rng.choice(range(lo, hi + 2))
        ins = random_k2_instruction(rng, f, degree)
    e, eps, i_v = pushout_k2(f, ins)
    # f's expansion is the loaded document; e's is built once (level >= 4 for --out)
    grown = None if loaded is None else expand_to_premonoid(e, max(args.level, 4))
    top = loaded if loaded is not None and loaded.level >= args.level else f
    ups = upsilon_morphism(top, e if grown is None else grown, eps, args.level)
    morphism_ok = validate_morphism(ups) == []
    upper_identity = all(
        ups.component(n) == ChainMap.identity(ups.component(n).source)
        for n in range(2, args.level + 1)
    )
    report = {
        "command": "pushout-k2",
        "alpha_degree": ins.alpha.degree,
        "apex_dims": {str(k): v for k, v in sorted(e.apex.dims.items())},
        "apex_homology": {str(k): v for k, v in sorted(homology_dims(e.apex).items())},
        "upsilon_validates": morphism_ok,
        "upsilon_upper_identity": upper_identity,
        "reflection_preserved": reflect(e) == reflect(f),
        "leg_cofibration": bool(is_cofibration(eps)),
    }
    if args.out:
        _emit_like_input(e, grown, args.out)
    _report(report, args.json, None)
    ok = morphism_ok and upper_identity and report["reflection_preserved"]
    return 0 if ok else SEMANTIC_ERROR


def _shape_adjacency(n: int) -> dict:
    from .phi_epi import PairObject, latching_shape

    shape = latching_shape(n)
    objects = []
    for ob in shape.objects:
        if isinstance(ob, PairObject):
            objects.append(["pair", ob.p, ob.q, list(ob.to_sum.map)])
        else:
            objects.append(["plus", ob.p, list(ob.to_level.map)])
    return {
        "objects": objects,
        "arrows": [[arr.src, arr.tgt] for arr in shape.arrows],
    }


def cmd_gamma(args) -> int:
    payload = _read_json(args.input)
    kind, diagram = docs.load_document(payload, args.max_dim)
    if kind != "diagram":
        raise DocumentError(f"expected a diagram document, got {kind!r}")
    if diagram.level > MAX_GAMMA_LEVEL:
        raise DocumentError(f"gamma: level is at most {MAX_GAMMA_LEVEL}, got {diagram.level}")
    bad = validate(diagram)
    if bad:
        raise ValidationFailure(bad)
    g, eta = gamma_na(diagram)
    report = {
        "command": "gamma",
        "level": g.level,
        "dims": {
            str(n): {str(k): v for k, v in sorted(g.objects[n].dims.items())}
            for n in g.objects
        },
        "homology": {
            str(n): {str(k): v for k, v in sorted(homology_dims(g.objects[n]).items())}
            for n in g.objects
        },
        "latching_shapes": {
            str(n): _shape_adjacency(n) for n in range(2, g.level + 1)
        },
        "level1_unchanged": g.objects[1] == diagram.objects[1],
        "unit_natural": validate_morphism(eta) == [],
    }
    if args.out:
        _emit(docs.dump_document(g, "na_diagram"), args.out)
    _report(report, args.json, None)
    return 0 if report["level1_unchanged"] and report["unit_natural"] else SEMANTIC_ERROR


def cmd_demo_charp(args) -> int:
    report = demo_char_p(args.field, exponent=args.exponent, degree=args.degree)
    report["command"] = "demo-charp"
    _report(report, args.json, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use; `main` parses with it."""
    ap = argparse.ArgumentParser(
        prog="cosegal",
        description="Exact computations with truncated co-Segal commutative premonoids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate documents against their axioms")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("surjections", help="enumerate surjections m ->> n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_surjections)

    p = sub.add_parser("gamma", help="free lax diagram on a functorial diagram")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the resulting na_diagram document here")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("cosegalify", help="co-Segal replacement of a 2-constant premonoid")
    p.add_argument("input")
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the replaced two_constant document here")
    p.set_defaults(func=cmd_cosegalify)

    p = sub.add_parser("pushout-k2", help="attach a generating cofibration at level 2")
    p.add_argument("input")
    p.add_argument("--instruction", help="instruction document; omit to sample one")
    p.add_argument("--degree", type=int, default=None, help="disc degree when sampling")
    p.add_argument(
        "--window",
        type=int,
        nargs=2,
        default=(0, 1),
        metavar=("LO", "HI"),
        help="sample the disc degree from the localizing templates over this window",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the pushout two_constant document here")
    p.set_defaults(func=cmd_pushout_k2)

    p = sub.add_parser("demo-charp", help="symmetric power of an acyclic disc")
    p.add_argument(
        "--field", type=_characteristic, default=2, help="0 for Q, else a prime below 2^31"
    )
    p.add_argument("--exponent", type=int, default=2, choices=range(1, MAX_EXPONENT + 1))
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo_charp)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.max_dim = _max_dim()
        return args.func(args)
    except ValidationFailure as exc:
        for v in exc.violations:
            print(f"INVALID: {v}", file=sys.stderr)
        return SEMANTIC_ERROR
    except DocumentError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, InvariantError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
