"""The benchmark's three workloads: seeded inputs, one job per input, and the
exact checks and canonical outputs of every job.

Every library call goes through a module attribute (``chain.tensor``, not a
name bound here at import time), so the tracer's wrappers see it.

A job returns its result or raises; a failed exact check raises
``CheckFailed``.  Inputs are conditioned on their shape (see NOTES.md): a draw
that does not fit is discarded, the next draw is taken from the same seeded
stream, and the discarded draws are counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from random import Random

from cosegal import chain, cli, documents, free_gamma, sampling
from cosegal.field_linalg import GF2, GF3, GF5, QQ

class CheckFailed(Exception):
    """A job's output failed one of its exact checks."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Inputs:
    """A workload's generated inputs, their sizes, and the discarded draws."""

    items: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    redraws: int = 0


# ---------------------------------------------------------------------------
# free: gamma_na then universal_extension on seeded N = 3 towers
# ---------------------------------------------------------------------------

# per-degree dimensions of the tower's three levels: every input has the
# same shape, so job times differ only by content.  Level-1 total dimension 2
# gives level-3 colimits of about 120 dimensions; at 4 they reach about 800
# and 5 s per job (see NOTES.md)
FREE_DIMS = ({0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1})


def _draw(out: Inputs, make, accept):
    """Draw from the seeded stream until `accept` holds; count the discards."""
    while True:
        x = make()
        if accept(x):
            return x
        out.redraws += 1


def _free_inputs(rng: Random, count: int) -> Inputs:
    # random_tower_diagram(rng, F, 3, 0, 1, 2) conditioned on FREE_DIMS
    out = Inputs()
    for k in range(count):
        fld = GF2 if k % 2 == 0 else GF3
        objs = [
            _draw(out, lambda: sampling.random_complex(rng, fld, 0, 1, 2), lambda c: c.dims == dims)
            for dims in FREE_DIMS
        ]
        maps = [sampling.random_chain_map(rng, objs[i], objs[i + 1]) for i in range(len(objs) - 1)]
        out.items.append(sampling.tower_diagram(maps))
        out.sizes.append([c.total_dim() for c in objs])
    return out


def _free_job(f):
    g, eta = free_gamma.gamma_na(f)
    ext = free_gamma.universal_extension(f, g, eta)
    ident = chain.ChainMap.identity
    _require(g.objects[1] == f.objects[1], "level 1 not verbatim")
    _require(eta.components[1] == ident(f.objects[1]), "unit not the identity at level 1")
    for n in range(1, f.level + 1):
        _require(ext.components[n] == ident(g.objects[n]), f"extension not the identity at level {n}")
    return g


def _free_output(g) -> bytes:
    return documents.dump_document(g, "na_diagram").encode()


# ---------------------------------------------------------------------------
# cosegalify: the in-process CLI chain on level-4 premonoid documents
# ---------------------------------------------------------------------------

# base monoid and apex shapes (per degree), by surjective_h: the cylinder
# apex then has total dimension 10 or 8, inside the band of at most 16 where
# a job stays under 5 s and 200 MB (see NOTES.md for the memory cliff above)
COSEGAL_BASE_DIMS = {0: 2}
COSEGAL_APEX_DIMS = {True: {0: 3, 1: 1}, False: {0: 2, 1: 1}}
COSEGAL_LEVEL = 4

_COSEGALIFY_FLAGS = ("is_cosegal", "is_k_injective", "tau_level1_cofibration", "reflection_preserved")
_PUSHOUT_FLAGS = ("upsilon_validates", "upsilon_upper_identity", "reflection_preserved", "leg_cofibration")


def _cosegalify_inputs(rng: Random, count: int) -> Inputs:
    # random_two_constant(rng, F_2, surjective_h) conditioned on the shapes
    from cosegal.two_constant import expand_to_premonoid

    out = Inputs()
    for k in range(count):
        surjective = k % 2 == 0
        base = _draw(
            out, lambda: sampling.random_strict_monoid(rng, GF2), lambda m: m.obj.dims == COSEGAL_BASE_DIMS
        )
        f = _draw(
            out,
            lambda: sampling.random_two_constant(rng, GF2, surjective_h=surjective, base=base),
            lambda f: f.apex.dims == COSEGAL_APEX_DIMS[surjective],
        )
        doc = documents.dump_document(expand_to_premonoid(f, COSEGAL_LEVEL), "premonoid")
        out.items.append(doc)
        out.sizes.append(chain.cylinder_factorization(f.h)[1].source.total_dim())
    return out


def _write_documents(items: list, workdir: str, prefix: str) -> list[str]:
    """Write each premonoid document into workdir; returns the file names."""
    names = []
    for k, doc in enumerate(items):
        name = f"{prefix}-{k:03d}.json"
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(doc)
        names.append(name)
    return names


def _as_is(items: list, workdir: str, prefix: str) -> list:
    return items


def _run_cli(argv: list[str], report: io.StringIO) -> int:
    with contextlib.redirect_stdout(report):
        return cli.main(argv)


def _flags_true(text: str, keys) -> bool:
    values = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return all(values.get(k) == "True" for k in keys)


def _cosegalify_job(name: str) -> bytes:
    """Run the chain on one document inside the current directory."""
    steps = [
        ["validate", name],
        ["cosegalify", name, "--level", str(COSEGAL_LEVEL), "--json", "--out", "s.json"],
        ["validate", "s.json"],
        ["pushout-k2", "s.json", "--degree", "1", "--out", "e.json"],
        ["validate", "e.json"],
    ]
    reports = []
    for argv in steps:
        buf = io.StringIO()
        code = _run_cli(argv, buf)
        _require(code == 0, f"{argv[0]} exited {code}")
        reports.append(buf.getvalue())
    for k in (0, 2, 4):
        _require(reports[k].startswith("OK "), f"validate report {reports[k]!r}")
    report = json.loads(reports[1])
    _require(all(report[k] is True for k in _COSEGALIFY_FLAGS), "cosegalify report flag false")
    _require(_flags_true(reports[3], _PUSHOUT_FLAGS), "pushout-k2 report flag false")
    out = [r.encode() for r in reports]
    for doc in ("s.json", "e.json"):
        with open(doc, "rb") as fh:
            out.append(fh.read())
    return b"\0".join(out)


# ---------------------------------------------------------------------------
# lifting: model-category predicates on seeded maps over Q and F_5
# ---------------------------------------------------------------------------

LIFT_WINDOW = (-2, 3)
LIFT_MAX_DIM = 4
# bins on sum_n t_n * t_(n-1), t = dims of source (x) target: the size of the
# Kunneth elimination, which sets the job time over Q.  Every run of 12 slots
# has the same field and trivial-fibration pattern; general maps take the
# bins in turn, trivial fibrations (costly to draw) take the whole band.
LIFT_WORK_BINS = ((1500, 2000), (2000, 2500), (2500, 3000))


def kunneth_work(source, target) -> int:
    t: dict = {}
    for i, a in source.dims.items():
        for j, b in target.dims.items():
            t[i + j] = t.get(i + j, 0) + a * b
    return sum(v * t.get(n - 1, 0) for n, v in t.items())


def _lifting_inputs(rng: Random, count: int) -> Inputs:
    out = Inputs()
    lo, hi = LIFT_WINDOW
    for k in range(count):
        fld = GF5 if k % 4 == 3 else QQ
        trivial = k % 3 == 0
        if trivial:
            wlo, whi = LIFT_WORK_BINS[0][0], LIFT_WORK_BINS[-1][1]
            g = _draw(
                out,
                lambda: sampling.random_trivial_fibration(rng, fld, lo, hi, LIFT_MAX_DIM),
                lambda g: wlo <= kunneth_work(g.source, g.target) < whi,
            )
        else:
            # the bin is tested before the (costly) map is drawn
            wlo, whi = LIFT_WORK_BINS[(k // 12) % len(LIFT_WORK_BINS)]
            x, y = _draw(
                out,
                lambda: (
                    sampling.random_complex(rng, fld, lo, hi, LIFT_MAX_DIM),
                    sampling.random_complex(rng, fld, lo, hi, LIFT_MAX_DIM),
                ),
                lambda xy: wlo <= kunneth_work(*xy) < whi,
            )
            g = sampling.random_chain_map(rng, x, y)
        out.items.append((g, trivial))
        out.sizes.append(kunneth_work(g.source, g.target))
    return out


def _lifting_job(item):
    g, trivial = item
    direct = chain.is_trivial_fibration(g)
    lo, hi = chain.rlp_window(g)
    gens = chain.generating_cofibrations(g.field, lo, hi)
    lifts = [chain.has_rlp(gen.inclusion, g) for gen in gens]
    _require(direct == all(lifts), "trivial fibration predicate disagrees with lifting")
    _require(direct or not trivial, "sampled trivial fibration not recognised")
    i, p = chain.cylinder_factorization(g)
    _require(p @ i == g, "cylinder factorization does not compose to g")
    _require(chain.is_trivial_fibration(p), "cylinder projection not a trivial fibration")
    hc = chain.homology_dims(g.source)
    hd = chain.homology_dims(g.target)
    ht = chain.homology_dims(chain.tensor(g.source, g.target))
    for k in set(ht) | {a + b for a in hc for b in hd}:
        expected = sum(hc[a] * hd.get(k - a, 0) for a in hc)
        _require(ht.get(k, 0) == expected, f"Kunneth fails in degree {k}")
    return {"direct": direct, "lifts": lifts, "homology": [hc, hd, ht], "i": i, "p": p}


def _lifting_output(res) -> bytes:
    report = {
        "direct": res["direct"],
        "lifts": res["lifts"],
        "homology": [{str(k): v for k, v in sorted(h.items())} for h in res["homology"]],
        "i": documents.map_to_dict(res["i"]),
        "p": documents.map_to_dict(res["p"]),
    }
    return documents.canonical_dumps(report).encode()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: object  # (rng, count) -> Inputs
    prepare: object  # (items, workdir, file prefix) -> job arguments
    job: object  # job argument -> result; raises on failure
    output: object  # result -> canonical bytes
    pool: int  # inputs generated per run; the timed loop cycles through them
    reference_jobs: int  # recorded-seed jobs whose outputs are digested


WORKLOADS = {
    "free": Workload(_free_inputs, _as_is, _free_job, _free_output, 96, 6),
    "cosegalify": Workload(_cosegalify_inputs, _write_documents, _cosegalify_job, bytes, 20, 1),
    "lifting": Workload(_lifting_inputs, _as_is, _lifting_job, _lifting_output, 72, 2),
}
NAMES = tuple(WORKLOADS)


def make_inputs(name: str, seed: int, count: int) -> Inputs:
    """The first `count` inputs of workload `name` for `seed`; a prefix of a
    longer draw with the same seed."""
    return WORKLOADS[name].make(Random(f"{name}:{seed}"), count)
