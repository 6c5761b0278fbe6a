"""Span recording for the traced run.

The traced run replaces public coxlat functions at the bindings their
callers use (``coxlat.verify.char_poly``, ``coxlat.cli.char_poly``, ...)
with wrappers that record one span per call: layer name, start, end,
parent span and subject id.  Spans stay in memory and are written as JSONL
when the run ends.  Nothing here is installed in an untraced run, and
``Tracer.uninstall`` puts every original binding back.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import coxlat.cli
import coxlat.lattice
import coxlat.series
import coxlat.verify


def _matrix_key(m, *_):
    return hash(tuple(map(tuple, m)))


def _gram_key(lat, *rest):
    return hash((lat.gram, rest))


def bindings(callers) -> list:
    """Every binding the traced run wraps, as (module or class, attribute,
    layer, key function for the waste counters or None).

    ``callers`` is the benchmark's own module, whose ``build``,
    ``lattices_from_minus``, ``verify_lattices`` and ``cli_main`` names are
    the entry points it calls.
    """
    v, s, c = coxlat.verify, coxlat.series, coxlat.cli
    out = [
        (callers, "build", "star.build", None),
        (callers, "lattices_from_minus", "star.build", None),
        (callers, "verify_lattices", "verify.lattices", None),
        (callers, "cli_main", "cli", None),
        (c, "build", "star.build", None),
        (coxlat.lattice.RadicalQuotient, "induced", "lattice.induced", None),
        (coxlat.lattice.RadicalQuotient, "project", "lattice.induced", None),
        (v, "quotient_by_radical", "lattice.quotient", None),
        (v, "radical_basis", "lattice.quotient", None),
        (v, "series_equal", "exact.compare", None),
    ]
    for mod in (v, c):
        out.append((mod, "char_poly", "lattice.charpoly", _matrix_key))
        out.append((mod, "series_from_rational", "exact.rational", None))
        out.append((mod, "poincare_direct", "series.direct", None))
        out.append((mod, "hilbert_P", "series.hilbert", None))
        out.append((mod, "hilbert_Q", "series.hilbert", None))
    for mod, name in ((v, "coxeter_matrix"), (v, "coxeter_inverse_matrix"),
                      (v, "reflection_product"), (v, "reflection_matrix"),
                      (s, "coxeter_matrix"), (s, "coxeter_inverse_matrix"),
                      (c, "coxeter_matrix")):
        out.append((mod, name, "lattice.coxeter", _gram_key))
    for mod, name in ((v, "asym_form_matrix"), (v, "coxeter_via_form"), (v, "mat_det"),
                      (s, "asym_form_matrix")):
        out.append((mod, name, "lattice.form", None))
    for name in ("mat_mul", "mat_transpose", "identity_matrix"):
        out.append((v, name, "lattice.matmul", None))
    out.append((v, "divisor_degree", "series.direct", None))
    return out


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, subject]
        self.stack = []
        self.subject = None
        self.keys = defaultdict(set)
        self._saved = []

    def wrap(self, fn, layer: str, key=None, fn_name: str = ""):
        spans, stack, keys = self.spans, self.stack, self.keys
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = f"cli.{args[0][0]}" if layer == "cli" else layer
            if key is not None:
                keys[layer].add((fn_name, key(*args, **kwargs)))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.subject]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self, callers):
        for owner, attr, layer, key in bindings(callers):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, key, attr))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple:
        """Hand over the spans and distinct-input sets recorded so far and start afresh."""
        spans, keys = self.spans[:], dict(self.keys)
        self.spans.clear()
        self.keys.clear()
        return spans, keys


def layer_times(spans: list) -> tuple:
    """Self time, inclusive time (s) and call count per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time, inclusive, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] += end - start - child[i]
        inclusive[name] += end - start
        calls[name] += 1
    return self_time, inclusive, calls


def write_jsonl(path, passes: list):
    """One line per span: pass, id, name, start, end, parent, subject."""
    with open(path, "w", encoding="utf-8") as handle:
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, subject) in enumerate(spans):
                handle.write(json.dumps({"pass": p, "id": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "subject": subject}) + "\n")
