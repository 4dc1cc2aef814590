"""Span tracing from outside the library.

The tracer replaces each layer's public functions with wrappers.  A
wrapper times its call and subtracts the time its wrapped children took,
so every function gets a self time; a layer's self time is the sum over
its functions.  Calls at the layer boundaries (checks, requests,
operator applications, kernels, serializers) are kept as spans: name,
start, end, parent span and the check or request they belong to.  The
spans stay in memory and are written out when the run ends.  Helpers
that run in about a microsecond (the lattice form and cocycle, vector
arithmetic, single-vector serializers) are timed and counted but not
kept as spans.

A module-level function is replaced under every name that refers to
it, so modules that imported it with ``from ... import`` see the
wrapper too.  Methods are replaced on their class.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from array import array

from supertoroidal import (fock_boson, fock_lattice, lattice, representation, serialize,
                           superalgebra, tables)

# Counts that repeat bit for bit on identical inputs; the traced run
# checks that two traced passes agree on every one of them.
DETERMINISTIC = (
    "verifier.checks",
    "serialize.terms",
    "serialize.bytes",
    "representation.apply_calls",
    "representation.window_calls",
    "representation.empty_window_ratio",
    "representation.peak_terms",
    "representation.cancel_ratio",
    "fock_lattice.vertex_calls",
    "fock_lattice.vertex_terms_in",
    "fock_lattice.vertex_terms_out",
    "fock_lattice.creation_hit_ratio",
    "fock_lattice.annihilation_hit_ratio",
    "fock_boson.calls",
    "superalgebra.bracket_calls",
    "lattice.cocycle_calls",
)

_MODE_SUMS = ("representation.DiagCurrent.apply", "representation.SOp.apply")
_COMMUTATOR = "representation.super_commutator"
_OPERATORS = ("VertexMode", "Current", "PhiMode", "PhiStarMode", "DiagCurrent", "SOp",
              "CentralImage", "NormalPairSum", "VertexProductSum", "OpProduct", "OpSum")
_STATE_CODECS = ("lattice_state", "boson_state", "tensor_state", "gl_element", "toroidal")


def cache_counts():
    """(hits, misses) of the creation and annihilation caches, or None if gone."""
    out = {}
    for key, name in (("creation", "_creation_level"), ("annihilation", "_exp_annihilation")):
        info = getattr(getattr(fock_lattice, name, None), "cache_info", None)
        out[key] = tuple(info()[:2]) if info else None
    return out


class Tracer:
    """Wrappers, their statistics and the kept spans of one process."""

    def __init__(self):
        self.on = True
        self.t0 = time.perf_counter()
        # a frame is [time in wrapped children, span id, name, extra]
        self.stack = [[0.0, -1, "", None]]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(
            ("serialize.terms", "serialize.bytes", "representation.apply_calls",
             "representation.window_calls", "representation.empty_windows",
             "representation.peak_terms", "representation.commutator_terms",
             "representation.ordering_terms", "representation.commutators",
             "fock_lattice.vertex_terms_in", "fock_lattice.vertex_terms_out"), 0)
        self.span_names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_context = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.contexts = []
        self.context_id = -1
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        gc.callbacks.append(self._on_gc)

    # -- recording

    def context(self, label):
        """Attribute the spans that follow to the check or request `label`."""
        self.contexts.append(label)
        self.context_id = len(self.contexts) - 1

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.on:
                self.gc_s += time.perf_counter() - self._gc_start
                self.gc_collections += 1
            self._gc_start = None

    def wrap(self, name, fn, keep=True, before=None, after=None):
        """`fn` timed under `name`; `keep` stores each call as a span.

        `before(frame, args)` runs before the call, `after(frame, parent,
        args, result)` after it returns; both run outside its timing.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        if keep and name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        name_id = self._name_ids.get(name, -1)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if keep:
                span = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent[1])
                tracer.span_context.append(tracer.context_id)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                span = parent[1]
            frame = [0.0, span, name, None]
            if before is not None:
                before(frame, args)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                parent[0] += elapsed
                if keep:
                    tracer.span_start[span] = start - tracer.t0
                    tracer.span_end[span] = end - tracer.t0
            if after is not None:
                after(frame, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self, layers=("lattice", "fock_lattice", "fock_boson", "superalgebra",
                              "tables", "serialize", "representation")):
        """Wrap the public functions of the named library layers."""
        functions = []  # (module, attribute, keep, before, after)
        methods = []  # (class, attribute, keep, after)
        if "lattice" in layers:
            for attr in ("bilinear", "parity", "cocycle", "pair_with_basis", "basis_support"):
                functions.append((lattice, attr, False, None, None))
            for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
                methods.append((lattice.LatticeVector, attr, False, None))
            for attr in ("zero", "e", "delta", "dgen", "root", "delta_sum", "basis_vector"):
                methods.append((lattice.LatticeConfig, attr, False, None))
        if "fock_lattice" in layers:
            functions.append((fock_lattice, "vertex_mode_apply", True, None, self._after_vertex))
            for attr in ("heisenberg_apply", "group_multiply", "vertex_product_sum",
                         "normal_ordered_pair_sum", "vanishing_bound", "effective_mode_bound",
                         "current_upper_bound"):
                functions.append((fock_lattice, attr, True, None, None))
            for attr in ("monomial_degree", "monomial_insert"):
                functions.append((fock_lattice, attr, False, None, None))
        if "fock_boson" in layers:
            for attr in ("phi_apply", "phi_star_apply", "depth"):
                functions.append((fock_boson, attr, True, None, None))
        if "superalgebra" in layers:
            functions.append((superalgebra, "d_cocycle", False, None, None))
            for attr in ("bracket_el", "bracket_toroidal", "jacobi_check"):
                methods.append((superalgebra.Superalgebra, attr, True, None))
            for attr in ("parity_symbol", "f_roots", "f_basis", "bracket", "form", "form_el",
                         "supertrace", "in_sl", "parity_toroidal"):
                methods.append((superalgebra.Superalgebra, attr, False, None))
        if "tables" in layers:
            functions.append((tables, "solve_pattern", False, None, None))
            for row in tables.R_ROWS + tables.ST_ROWS:
                object.__setattr__(row, "build", self.wrap("tables.Row.build", row.build))
        if "serialize" in layers:
            for attr in ("frac_to_str", "frac_from_str", "vector_to_obj", "vector_from_obj"):
                functions.append((serialize, attr, False, None, None))
            for codec in _STATE_CODECS:
                functions.append((serialize, f"{codec}_to_obj", True, None, self._after_encode))
                functions.append((serialize, f"{codec}_from_obj", True, None, self._after_decode))
            functions.append((serialize, "operator_to_obj", True, None, None))
            functions.append((serialize, "operator_from_obj", True, None, None))
            functions.append((serialize, "dumps", True, None, self._after_dumps))
        if "representation" in layers:
            for cls in _OPERATORS:
                methods.append((getattr(representation, cls), "apply", True, self._after_apply))
            for attr in ("apply", "rho", "s_mode_apply"):
                functions.append((representation, attr, True, None, None))
            functions.append((representation, "super_commutator", True, self._before_commutator,
                              self._after_commutator))

        for cls, attr, keep, after in methods:
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], keep, after=after))
        replacements = {}
        for module, attr, keep, before, after in functions:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            replacements[id(original)] = (original, self.wrap(name, original, keep, before, after))
        _replace_everywhere(replacements)

    def install_checks(self, verifier, log):
        """Keep each check as a span, labelled with the check `log` has in hand."""
        def label_check(frame, args):
            self.context("/".join(str(x) for x in log.current))

        for spec in verifier.FAMILIES.values():
            spec["evaluate"] = self.wrap("verifier.check", spec["evaluate"], before=label_check)
        verifier.run = self.wrap("verifier.run", verifier.run)

    # -- hooks

    def _after_vertex(self, frame, parent, args, result):
        self.counters["fock_lattice.vertex_terms_in"] += len(args[2].terms)
        self.counters["fock_lattice.vertex_terms_out"] += len(result.terms)

    def _after_encode(self, frame, parent, args, result):
        self.counters["serialize.terms"] += len(result)

    def _after_decode(self, frame, parent, args, result):
        self.counters["serialize.terms"] += len(args[0])

    def _after_dumps(self, frame, parent, args, result):
        self.counters["serialize.bytes"] += len(result.encode())

    def _after_apply(self, frame, parent, args, result):
        c = self.counters
        terms = len(result.terms)
        c["representation.apply_calls"] += 1
        if terms > c["representation.peak_terms"]:
            c["representation.peak_terms"] = terms
        if parent[2] in _MODE_SUMS:
            c["representation.window_calls"] += 1
            if not terms:
                c["representation.empty_windows"] += 1
        elif parent[2] == _COMMUTATOR and args[1] is not parent[3]:
            # an application to a state other than the commutator's input
            # is the outer factor of one of the two orderings
            c["representation.ordering_terms"] += terms

    def _before_commutator(self, frame, args):
        frame[3] = args[2]

    def _after_commutator(self, frame, parent, args, result):
        self.counters["representation.commutators"] += 1
        self.counters["representation.commutator_terms"] += len(result.terms)

    # -- results

    def layer_self_s(self):
        out = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, *names):
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def metrics(self, cache_before, cache_after):
        """The per-layer metrics this tracer can give (the verifier's come from its check log)."""
        c = self.counters
        layer = self.layer_self_s()
        stat = lambda name, k: self.stats.get(name, (0, 0.0, 0.0))[k]

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(key):
            if cache_before[key] is None or cache_after[key] is None:
                return 0.0
            hits = cache_after[key][0] - cache_before[key][0]
            misses = cache_after[key][1] - cache_before[key][1]
            return ratio(hits, hits + misses)

        prefix = lambda p: [n for n in self.stats if n.startswith(p)]
        return {
            "serialize.s": layer.get("serialize", 0.0),
            "serialize.terms": c["serialize.terms"],
            "serialize.bytes": c["serialize.bytes"],
            "representation.apply_calls": c["representation.apply_calls"],
            "representation.apply_s": layer.get("representation", 0.0),
            "representation.window_calls": c["representation.window_calls"],
            "representation.empty_window_ratio": ratio(c["representation.empty_windows"],
                                                       c["representation.window_calls"]),
            "representation.peak_terms": c["representation.peak_terms"],
            "representation.cancel_ratio": ratio(c["representation.commutator_terms"],
                                                 c["representation.ordering_terms"]),
            "fock_lattice.vertex_calls": stat("fock_lattice.vertex_mode_apply", 0),
            "fock_lattice.vertex_s": stat("fock_lattice.vertex_mode_apply", 1),
            "fock_lattice.vertex_terms_in": c["fock_lattice.vertex_terms_in"],
            "fock_lattice.vertex_terms_out": c["fock_lattice.vertex_terms_out"],
            "fock_lattice.pair_sum_s": stat("fock_lattice.normal_ordered_pair_sum", 2)
            + stat("fock_lattice.vertex_product_sum", 2),
            "fock_lattice.creation_hit_ratio": hit_ratio("creation"),
            "fock_lattice.annihilation_hit_ratio": hit_ratio("annihilation"),
            "fock_boson.calls": self.calls(*prefix("fock_boson.")),
            "fock_boson.s": layer.get("fock_boson", 0.0),
            "superalgebra.bracket_calls": self.calls("superalgebra.Superalgebra.bracket",
                                                     "superalgebra.Superalgebra.bracket_el",
                                                     "superalgebra.Superalgebra.bracket_toroidal"),
            "superalgebra.s": layer.get("superalgebra", 0.0),
            "tables.s": layer.get("tables", 0.0),
            "lattice.cocycle_calls": stat("lattice.cocycle", 0),
            "lattice.s": layer.get("lattice", 0.0),
            "python.gc_s": self.gc_s,
            "python.gc_collections": self.gc_collections,
        }

    def function_table(self):
        """Per wrapped function: calls, total and self seconds, heaviest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return {name: {"calls": n, "total_s": total, "self_s": self_s}
                for name, (n, total, self_s) in rows if n}

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON columns."""
        doc = {
            "names": self.span_names,
            "contexts": self.contexts,
            "columns": ["name", "parent", "context", "start_s", "end_s"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "context": self.span_context.tolist(),
            "start_s": [round(x, 7) for x in self.span_start],
            "end_s": [round(x, 7) for x in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _replace_everywhere(replacements):
    """Point every module attribute that names an original at its wrapper."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
