"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into the library's layers by patching
each function at the name where its caller looks it up (for example
``tautres.assemble.iterated_residue``, which ``evaluate`` calls, and
``tautres.residue.iterated_residue``, which the CLI imports at call
time).  A span is ``[name, start, end, parent, item, attrs]``: times from
``time.perf_counter`` (system-wide monotonic on Linux, so spans from
child processes nest under the parent's item spans), ``parent`` the
index of the enclosing span or None, ``item`` the id of the benchmark
item being run, ``attrs`` a dict of counts or None.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

NAME, START, END, PARENT, ITEM, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("span %d closed out of order" % idx)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under parent."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] is None else s[PARENT] + base
            self.spans.append(s)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item", "attrs")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _problem_counts(out):
    problems = [p for _, p in out] if isinstance(out, list) else [out]
    return {
        "num_terms": sum(len(p.numerator.terms) for p in problems),
        "forms": sum(len(p.denominator) for p in problems),
    }


# layer name per (module, function) at the caller's lookup site
PATCHES = {
    "tautres.cli": {
        "assemble_severi": "assemble",
        "assemble_ghilb": "assemble",
        "load_config": "config",
        "build_problem": "config",
        "pair_integral": "chern.pair",
        "bell_transform": "diagrams",
        "severi_count": "diagrams",
        "format_poly": "poly.format",
    },
    "tautres.assemble": {
        "assemble_punctual": "assemble",
        "assemble_geometric": "assemble",
        "assemble_ghilb": "assemble",
        "assemble_severi": "assemble",
        "iterated_residue": "residue",
        "select_top_degree": "chern.select",
        "segre_factor": "chern.segre",
        "parse_poly": "poly.parse",
        "set_partitions": "diagrams",
        "weight_map": "diagrams",
        "degree_filtration": "diagrams",
        "curvilinear_sum": "diagrams",
    },
    "tautres.residue": {
        "iterated_residue": "residue",
        "expand_inverse_at_infinity": "residue.expand",
    },
    "tautres.config": {"parse_poly": "poly.parse", "segre_factor": "chern.segre"},
    "tautres.chern": {"parse_poly": "poly.parse", "format_poly": "poly.format"},
    "tautres.poly": {"parse_poly": "poly.parse", "format_poly": "poly.format"},
}

COUNTS = {
    "assemble": _problem_counts,
    "residue": lambda out: {"out": len(out.terms)},
    "residue.expand": lambda out: {"out": len(out.poly.terms)},
    "poly.format": lambda out: {"bytes": len(out.encode())},
}


def _wrap(tracer: Tracer, name: str, fn):
    counts = COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            tracer.spans[idx][ATTRS] = counts(out)
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the library's layer entry points to record into tracer."""
    saved = []
    for modname, names in PATCHES.items():
        mod = importlib.import_module(modname)
        for fname, layer in names.items():
            fn = getattr(mod, fname)
            saved.append((mod, fname, fn))
            setattr(mod, fname, _wrap(tracer, layer, fn))
    MPoly = importlib.import_module("tautres.poly").MPoly
    mul, coefficient_of = MPoly.__mul__, MPoly.coefficient_of

    def traced_mul(self, other):
        if not isinstance(other, MPoly):
            return mul(self, other)
        idx = tracer.open("poly.mul")
        try:
            out = mul(self, other)
        finally:
            tracer.close(idx)
        tracer.spans[idx][ATTRS] = {
            "pairs": len(self.terms) * len(other.terms),
            "out": len(out.terms),
        }
        return out

    def traced_coefficient_of(self, i, exp):
        idx = tracer.open("poly.coeff")
        try:
            return coefficient_of(self, i, exp)
        finally:
            tracer.close(idx)
            tracer.spans[idx][ATTRS] = {"in": len(self.terms)}

    saved += [(MPoly, "__mul__", mul), (MPoly, "coefficient_of", coefficient_of)]
    MPoly.__mul__ = traced_mul
    MPoly.coefficient_of = traced_coefficient_of
    try:
        yield tracer
    finally:
        for owner, fname, fn in reversed(saved):
            setattr(owner, fname, fn)


# -- aggregation ------------------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ancestors(spans: list, i: int):
    p = spans[i][PARENT]
    while p is not None:
        yield p
        p = spans[p][PARENT]


def outermost(spans: list, name: str) -> list:
    """Spans of a layer that do not sit inside another span of the same layer."""
    return [
        i
        for i, s in enumerate(spans)
        if s[NAME] == name and all(spans[a][NAME] != name for a in _ancestors(spans, i))
    ]


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts; see the README for what each should move."""
    selfs = self_times(spans)

    def dur(ids):
        return sum(spans[i][END] - spans[i][START] for i in ids)

    def attr(ids, key):
        return [spans[i][ATTRS][key] for i in ids]

    def under(i, name):
        return any(spans[a][NAME] == name for a in _ancestors(spans, i))

    muls = [i for i, s in enumerate(spans) if s[NAME] == "poly.mul"]
    asm_muls = [i for i in muls if under(i, "assemble")]
    fold = [i for i in muls if spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME] == "residue"]
    coeff = [i for i, s in enumerate(spans) if s[NAME] == "poly.coeff" and under(i, "residue")]
    expand = outermost(spans, "residue.expand")
    residue = outermost(spans, "residue")
    assemble = outermost(spans, "assemble")
    cli = outermost(spans, "cli")
    fmt = outermost(spans, "poly.format")
    config = outermost(spans, "config")
    pairs, out = sum(attr(muls, "pairs")), sum(attr(muls, "out"))
    return {
        "assemble.mul_s": dur(asm_muls),
        "assemble.mul_pairs": sum(attr(asm_muls, "pairs")),
        "assemble.mul_terms_out": sum(attr(asm_muls, "out")),
        "assemble.num_terms": sum(attr(assemble, "num_terms")),
        "residue.fold_s": dur(fold),
        "residue.fold_pairs": sum(attr(fold, "pairs")),
        "residue.fold_peak_terms": max(attr(fold, "out"), default=0),
        "residue.elim_s": dur(residue) - dur(fold) - dur(expand),
        "residue.elim_terms_in": sum(attr(coeff, "in")),
        "residue.elim_peak_terms": max(attr(coeff, "in"), default=0),
        "residue.expand_calls": len(expand),
        "residue.expand_s": dur(expand),
        "residue.expand_terms": sum(attr(expand, "out")),
        "residue.calls": len(residue),
        "residue.s": dur(residue),
        "residue.out_terms": sum(attr(residue, "out")),
        "cli.calls": len(cli),
        "cli.self_s": sum(selfs[i] for i in cli),
        "poly.format_s": dur(fmt),
        "poly.format_bytes": sum(attr(fmt, "bytes")),
        "config.calls": len(config),
        "config.s": dur(config),
        "poly.parse_s": dur(outermost(spans, "poly.parse")),
        "assemble.calls": len(assemble),
        "assemble.s": dur(assemble),
        "assemble.self_s": sum(selfs[i] for i in assemble),
        "assemble.forms": sum(attr(assemble, "forms")),
        "diagrams.s": dur(outermost(spans, "diagrams")),
        "chern.segre_s": dur(outermost(spans, "chern.segre")),
        "chern.select_s": dur(outermost(spans, "chern.select")),
        "chern.pair_s": dur(outermost(spans, "chern.pair")),
        "poly.mul_calls": len(muls),
        "poly.mul_yield": out / pairs if pairs else 0.0,
    }
