"""Outside-in tracer: wraps the package's public functions from the outside
and records one span per call, without any change to the package.

A function is rebound on the class or module that defines it and on every
``cosegal`` module that imported it by name (``free_gamma.colimit`` and
``chain.colimit`` are two bindings of one function), so no call path escapes.
Spans stay in memory as flat arrays (job, name, start, end, parent) and are
written out once, after the run.  Self time is derived afterwards from the
parent links: a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced boundary: `attr` on `owner` ("module" or "module:Class")."""

    name: str
    owner: str
    attr: str
    span: bool = True  # False: count calls only (too frequent for a span each)


TARGETS = [
    Target("field_linalg.rref", "cosegal.field_linalg:Matrix", "rref"),
    Target("field_linalg.solve", "cosegal.field_linalg:Matrix", "solve"),
    Target("field_linalg.quotient", "cosegal.field_linalg", "quotient"),
    Target("field_linalg.matmul", "cosegal.field_linalg:Matrix", "__matmul__"),
    Target("field_linalg.kron", "cosegal.field_linalg:Matrix", "kron"),
    Target("field_linalg.matrix_init", "cosegal.field_linalg:Matrix", "__init__", span=False),
    Target("chain.map_init", "cosegal.chain:ChainMap", "__init__"),
    Target("chain.complex_init", "cosegal.chain:ChainComplex", "__init__"),
    Target("chain.tensor", "cosegal.chain", "tensor"),
    Target("chain.tensor_map", "cosegal.chain", "tensor_map"),
    Target("chain.associator", "cosegal.chain", "associator"),
    Target("chain.colimit", "cosegal.chain", "colimit"),
    Target("chain.induced_matrix", "cosegal.chain", "induced_matrix"),
    Target("chain.solve_lifting", "cosegal.chain", "solve_lifting"),
    Target("chain.homology_dims", "cosegal.chain", "homology_dims"),
    Target("chain.cylinder_factorization", "cosegal.chain", "cylinder_factorization"),
    Target("phi_epi.latching_shape", "cosegal.phi_epi", "latching_shape"),
    Target("phi_epi.enumerate_surjections", "cosegal.phi_epi", "enumerate_surjections"),
    Target("premonoid.validate", "cosegal.premonoid", "validate"),
    Target("premonoid.validate_morphism", "cosegal.premonoid", "validate_morphism"),
    Target("premonoid.is_cosegal", "cosegal.premonoid", "is_cosegal"),
    Target("free_gamma.gamma_na", "cosegal.free_gamma", "gamma_na"),
    Target("free_gamma.universal_extension", "cosegal.free_gamma", "universal_extension"),
    Target("two_constant.cosegalify_two_constant", "cosegal.two_constant", "cosegalify_two_constant"),
    Target("two_constant.expand_to_premonoid", "cosegal.two_constant", "expand_to_premonoid"),
    Target("two_constant.is_k_injective", "cosegal.two_constant", "is_k_injective"),
    Target("two_constant.pushout_k2", "cosegal.two_constant", "pushout_k2"),
    Target("documents.load_document", "cosegal.documents", "load_document"),
    Target("documents.dump_document", "cosegal.documents", "dump_document"),
    Target("documents.read_file", "cosegal.cli", "_read_json", span=False),
    Target("cli.main", "cosegal.cli", "main"),
]


def _complex_key(c) -> int:
    """Content hash of a chain complex (equal complexes hash equal)."""
    diff = tuple(
        (n, m.data.tobytes() if m.data.dtype != object else tuple(m.data.flat))
        for n, m in sorted(c.diff.items())
    )
    return hash((c.field.characteristic, tuple(sorted(c.dims.items())), diff))


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = [t.name for t in TARGETS]
        self.job = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_id = -1
        self.jobs = 0
        self.counters: dict[str, float] = dict.fromkeys(
            ["field_linalg.rref.cells", "chain.colimit.relation_rows", "chain.colimit.rank",
             "documents.bytes_read", "documents.bytes_written"],
            0,
        )
        # distinct argument keys of the current job, and their per-job sums
        self._distinct: dict[str, set] = {"chain.tensor": set(), "phi_epi.latching_shape": set()}
        self._distinct_sum = dict.fromkeys(self._distinct, 0)
        self._stack: list[int] = []
        self._patches: list = []
        self._colimit = self.names.index("chain.colimit")

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every target on its owner and on each importing module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cosegal") and m]
        for nid, target in enumerate(TARGETS):
            modname, _, cls = target.owner.partition(":")
            owner = importlib.import_module(modname)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, target.attr)
            wrapper = self._wrap(nid, target, original)
            self._rebind(owner, target.attr, original, wrapper)
            if not cls:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def begin_job(self, job_id: int):
        self._end_job()
        self.job_id = job_id
        self.jobs += 1

    def _end_job(self):
        for name, keys in self._distinct.items():
            self._distinct_sum[name] += len(keys)
            keys.clear()

    def _count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, nid: int, target: Target, fn):
        before, after = _HOOKS.get(target.name, (None, None))
        if not target.span:
            key = target.name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._count(key)
                if before:
                    before(self, args, kwargs)
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if before:
                before(self, args, kwargs)
            idx = len(self.start)
            self.job.append(self.job_id)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after:
                after(self, args, result)
            return result

        return spanned

    def inside(self, nid: int) -> bool:
        return any(self.name[i] == nid for i in self._stack)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-job means of every call count, self time and counter."""
        self._end_job()
        jobs = max(self.jobs, 1)
        names = np.array(self.name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=dur - child, minlength=len(self.names))
        out = {key: value / jobs for key, value in self.counters.items()}
        for nid, name in enumerate(self.names):
            if TARGETS[nid].span:  # count-only targets are in the counters
                out[f"{name}.calls"] = float(calls[nid]) / jobs
                out[f"{name}.self_s"] = float(self_s[nid]) / jobs
        for name, distinct in self._distinct_sum.items():
            total = calls[self.names.index(name)]
            out[f"{name}.distinct_ratio"] = distinct / total if total else 0.0
        rows = self.counters["chain.colimit.relation_rows"]
        out["chain.colimit.rank_ratio"] = self.counters["chain.colimit.rank"] / rows if rows else 0.0
        return out

    def write(self, path: str):
        """Write every span, with the name table, as gzipped JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["job", "name", "start", "end", "parent"],
            "job": self.job.tolist(),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- per-target hooks: (before(tracer, args, kwargs), after(tracer, args, result)) --


def _rref_cells(tr: Tracer, args, kwargs):
    tr._count("field_linalg.rref.cells", args[0].rows * args[0].cols)


def _tensor_pair(tr: Tracer, args, kwargs):
    tr._distinct["chain.tensor"].add((_complex_key(args[0]), _complex_key(args[1])))


def _shape_args(tr: Tracer, args, kwargs):
    tr._distinct["phi_epi.latching_shape"].add((args, tuple(sorted(kwargs.items()))))


def _quotient_rank(tr: Tracer, args, result):
    # quotient(field, dim, relations) -> (quotient dim, projection)
    if tr.inside(tr._colimit):
        relations = args[2]
        rows = relations.rows if hasattr(relations, "rows") else len(relations)
        tr._count("chain.colimit.relation_rows", rows)
        tr._count("chain.colimit.rank", args[1] - result[0])


def _bytes_written(tr: Tracer, args, result):
    tr._count("documents.bytes_written", len(result.encode()))


def _bytes_read(tr: Tracer, args, kwargs):
    tr._count("documents.bytes_read", os.path.getsize(args[0]))


_HOOKS = {
    "field_linalg.rref": (_rref_cells, None),
    "field_linalg.quotient": (None, _quotient_rank),
    "chain.tensor": (_tensor_pair, None),
    "phi_epi.latching_shape": (_shape_args, None),
    "documents.dump_document": (None, _bytes_written),
    "documents.read_file": (_bytes_read, None),
}
