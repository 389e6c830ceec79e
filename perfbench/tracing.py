"""Boundary tracing: timing wrappers around digenergy's public functions.

``Tracer.install()`` replaces each function in ``TRACED`` with a wrapper in
every loaded ``digenergy`` module that binds it, so calls made through
``from .digraph import walk_profile`` style imports are traced too.  Each
call records a span (name, start, end, parent span, digraph id); a span's
self time is its duration minus the time its child spans cover.  Spans stay
in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

from digenergy.errors import EigensolverError, PurelyImaginaryEigenvalueError

TRACED = {
    "kernels": ("walk_counts", "scc_ids", "charpoly_from_masks"),
    "digraph": ("parse_edge_list", "walk_profile", "cycle_arc_reduction",
                "strongly_connected_components", "adjacency_matrix",
                "geometric_symmetrization", "serialize_edge_list"),
    "spectrum": ("characteristic_polynomial", "eigenvalues", "coulson_energy"),
    "bounds": ("bound_chain_report",),
    "structure": ("equality_verdict_rho_lower", "equality_verdict_energy_upper"),
    "oracle": ("verify_all", "enumerate_digraphs", "random_digraph"),
    "cli": ("build_analysis_document",),
}

# Generator functions: their work happens in each resumption, so each
# ``next()`` is a span and the call count is the number of invocations.
_GENERATORS = {"oracle.enumerate_digraphs"}


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, digraph id)
        self.calls = Counter()
        self.self_s = Counter()
        self.digraph_id = 0
        self.charpolys = set()
        self.eigen_errors = 0
        self.pole_skips = 0
        self._stack = []         # [span id, child time] of open spans
        self._next_id = 0

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, 0.0])
        return self._next_id, parent, time.perf_counter()

    def _exit(self, name, span, parent, start):
        end = time.perf_counter()
        _, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((span, parent, name, start, end, self.digraph_id))

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of work that is not the program's (a metronome
        sample) out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, name, fn):
        if name in _GENERATORS:
            def traced_gen(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    span, parent, start = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, span, parent, start)
                    self.digraph_id += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            self.calls[name] += 1
            span, parent, start = self._enter()
            try:
                out = fn(*args, **kwargs)
            except EigensolverError:
                if name == "spectrum.eigenvalues":
                    self.eigen_errors += 1
                raise
            except PurelyImaginaryEigenvalueError:
                if name == "spectrum.coulson_energy":
                    self.pole_skips += 1
                raise
            finally:
                self._exit(name, span, parent, start)
            if name == "spectrum.characteristic_polynomial":
                self.charpolys.add(out.coeffs)
            elif name == "oracle.random_digraph":
                self.digraph_id += 1
            return out
        return traced

    def install(self) -> None:
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"digenergy.{mod}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").split(".")[0] != "digenergy":
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus the charpoly sharing
        and error counters; merged across processes by ``merge``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "charpolys": sorted(list(c) for c in self.charpolys),
            "eigen_errors": self.eigen_errors,
            "pole_skips": self.pole_skips,
        }

    def write_spans(self, path, request_id=None) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span, parent, name, start, end, did in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "name": name, "start": start,
                                     "end": end, "digraph": did, "request": request_id}) + "\n")


def merge(summaries) -> dict:
    calls, self_s, charpolys = Counter(), Counter(), set()
    eigen_errors = pole_skips = 0
    for s in summaries:
        calls.update(s["calls"])
        self_s.update(s["self_s"])
        charpolys.update(tuple(c) for c in s["charpolys"])
        eigen_errors += s["eigen_errors"]
        pole_skips += s["pole_skips"]
    return {"calls": calls, "self_s": self_s, "charpolys": charpolys,
            "eigen_errors": eigen_errors, "pole_skips": pole_skips}


def layer_metrics(merged: dict, digraphs: int, import_s: float) -> dict:
    """The per-layer metrics, as name -> (value, unit)."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = (merged["calls"][name], "count")
        out[f"{name}.self_s"] = (merged["self_s"][name], "s")
    cp_calls = merged["calls"]["spectrum.characteristic_polynomial"]
    out["spectrum.characteristic_polynomial.distinct"] = (len(merged["charpolys"]), "count")
    out["spectrum.characteristic_polynomial.distinct_ratio"] = (
        len(merged["charpolys"]) / cp_calls if cp_calls else 0.0, "ratio")
    out["spectrum.characteristic_polynomial.per_digraph"] = (cp_calls / digraphs, "ratio")
    out["spectrum.eigenvalues.per_digraph"] = (merged["calls"]["spectrum.eigenvalues"] / digraphs, "ratio")
    out["spectrum.eigenvalues.errors"] = (merged["eigen_errors"], "count")
    out["spectrum.coulson_energy.pole_skips"] = (merged["pole_skips"], "count")
    out["cli.import_s"] = (import_s, "s")
    return out
