"""Outside-in spans around the public functions of every lgmf module.

``Tracer.install`` replaces each selected function by a wrapper in every lgmf
module namespace that holds it (``from .ideal import groebner`` makes a second
binding in ``residue``), and instruments classes through their methods, never
by replacing the class.  Each call opens a span (name, start, end, parent, item
id).  Self time is a span's duration minus the time its child spans cover;
``busy_s`` counts only outermost calls of a name (or of a layer or group), so
recursion and nesting are not counted twice.

Probes read sizes from arguments and results (matrix shapes, Groebner basis
sizes, distinct input tuples).  Probe time runs on a paused clock, so it is
excluded from every span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("ring", "ideal", "residue", "linalg", "polymat", "mf", "unit",
           "adjunction", "tft", "workspace", "cli")

# Per-term helpers called inside the inner loops of Buchberger and of the
# exponent maps.  A wrapper there costs more than the work it measures, so
# their time stays in the caller's self time.
SKIP = {
    "ring": {"primed_name", "grlex_key", "embed", "rename", "substitute",
             "partial_derivative", "exact_div_linear", "divided_difference",
             "divided_difference_ordered", "format_poly"},
    "ideal": {"leading_term"},
    "polymat": {"zeros", "identity", "mat_add", "mat_sub", "mat_scale",
                "mat_map", "transpose", "mat_eq", "is_zero_matrix"},
}

METHODS = {
    "ring": [("Poly", "__mul__")],
    "linalg": [("Span", "add")],
    "tft": [("JacobiRing", "__init__")],
}

# Span name -> the metric prefix used in BENCHMARK.json, where they differ.
ALIASES = {
    "ring.Poly.__mul__": "ring.mul",
    "linalg.Span.add": "linalg.span_add",
    "tft.JacobiRing.__init__": "tft.jacobi_ring",
    "workspace.load_workspace": "workspace.load",
}

GROUPS = {
    "unit.rho_inverse": "unit.sections",
    "unit.lambda_inverse": "unit.sections",
    "adjunction.coev_tilde": "adjunction.ev_coev",
    "adjunction.coev": "adjunction.ev_coev",
    "adjunction.ev_tilde": "adjunction.ev_coev",
    "adjunction.ev": "adjunction.ev_coev",
    "adjunction.ev_coev_maps": "adjunction.ev_coev",
}

# Spans too frequent to keep one record each; they are still aggregated.
UNRECORDED = {"ring.mul", "ring.parse_poly", "ideal.division",
              "linalg.span_add", "polymat.det"}


def _poly_key(p):
    return (p.ctx.names, frozenset(p.terms.items()))


def _nonzeros(matrix):
    return sum(1 for row in matrix for v in row if v)


class Stat:
    __slots__ = ("calls", "busy", "self_s", "keys", "counts", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.counts = {}
        self.active = 0

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value


# -- probes: (stat, args, kw) before a call, (stat, result, args, kw) after

def _in_groebner(st, args, kw):
    gens = args[0]
    order = args[1] if len(args) > 1 else kw.get("order")
    st.keys.add((tuple(_poly_key(g) for g in gens), repr(order)))


def _out_groebner(st, res, args, kw):
    st.add("basis_size", len(res.generators))


def _out_power(st, res, args, kw):
    st.add("exponent_sum", res[0])


def _in_residue(st, args, kw):
    q = args[0]
    st.keys.add((_poly_key(q.numerator),
                 tuple(_poly_key(d) for d in q.denominators),
                 tuple(q.integration_vars), tuple(q.parameter_vars)))


def _in_jacobi(st, args, kw):
    st.keys.add(_poly_key(args[1]))


def _nullspace_cols(args, kw):
    n = args[1] if len(args) > 1 else kw.get("n")
    if n is None:
        n = len(args[0][0]) if args[0] else 0
    return n


def _shape(st, matrix, cols):
    st.add("rows", len(matrix))
    st.add("cols", cols)
    st.add("cells", len(matrix) * cols)
    st.add("nonzeros", _nonzeros(matrix))


def _in_nullspace(st, args, kw):
    _shape(st, args[0], _nullspace_cols(args, kw))


def _out_nullspace(st, res, args, kw):
    st.add("rank", _nullspace_cols(args, kw) - len(res))


def _in_solve(st, args, kw):
    _shape(st, args[0], len(args[0][0]) if args[0] else 0)


def _out_span_add(st, res, args, kw):
    st.add("useful", 1 if res else 0)


def _out_homotopy(st, res, args, kw):
    st.add("found", 0 if res is None else 1)


def _out_load(st, res, args, kw):
    st.add("declarations", len(res.positions))


PROBES = {
    "ideal.groebner": (_in_groebner, _out_groebner),
    "ideal.power_membership": (None, _out_power),
    "residue.grothendieck_residue": (_in_residue, None),
    "tft.jacobi_ring": (_in_jacobi, None),
    "linalg.nullspace": (_in_nullspace, _out_nullspace),
    "linalg.solve": (_in_solve, None),
    "linalg.span_add": (None, _out_span_add),
    "mf.null_homotopy_search": (None, _out_homotopy),
    "workspace.load": (None, _out_load),
}


class Tracer:
    """Span recorder; wrappers are live between ``install`` and ``remove``."""

    def __init__(self):
        self.stats = {}         # span name, layer or group -> Stat
        self.spans = []         # (id, name, start, end, parent id, item)
        self.stack = []         # open spans: [child time, span id]
        self.item = None
        self.paused = 0.0       # probe time, taken out of every clock read
        self._next_id = 0
        self._patches = []      # (namespace, attribute, original)

    def stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, name, layer):
        tracer = self
        record = name not in UNRECORDED
        probe_in, probe_out = PROBES.get(name, (None, None))
        owners = [self.stat(name), self.stat(layer)]
        if name in GROUPS:
            owners.append(self.stat(GROUPS[name]))
        own = owners[0]
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kw):
            if probe_in is not None:
                t = clock()
                probe_in(own, args, kw)
                tracer.paused += clock() - t
            outer = [st for st in owners if not st.active]
            for st in owners:
                st.active += 1
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = clock() - tracer.paused
            try:
                result = fn(*args, **kw)
            finally:
                end = clock() - tracer.paused
                stack.pop()
                for st in owners:
                    st.active -= 1
                dur = end - start
                own.calls += 1
                own.self_s += dur - frame[0]
                for st in outer:
                    st.busy += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    tracer.spans.append(
                        (sid, name, start, end, parent, tracer.item))
            if probe_out is not None:
                t = clock()
                probe_out(own, result, args, kw)
                tracer.paused += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every selected function and method, in every namespace."""
        mods = {m: importlib.import_module(f"lgmf.{m}") for m in MODULES}
        wrapped = {}            # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and attr not in SKIP.get(layer, ())):
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped[id(obj)] = self._wrap(obj, name, layer)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                obj = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                wrapped[id(obj)] = self._wrap(obj, ALIASES.get(name, name),
                                              layer)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, obj, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if id(fn) in wrapped and inspect.isfunction(fn):
                            self._patch(obj, meth, fn, wrapped[id(fn)])
        return self

    def _patch(self, ns, attr, original, wrapper):
        setattr(ns, attr, wrapper)
        self._patches.append((ns, attr, original))

    def remove(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer metrics, named and with units as in BENCHMARK.json."""
        def st(name):
            return self.stats.get(name) or Stat()

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def calls(name):
            put(f"{name}.calls", st(name).calls, "count")

        def busy(name):
            put(f"{name}.busy_s", st(name).busy, "s")

        def self_s(name):
            put(f"{name}.self_s", st(name).self_s, "s")

        def distinct(name):
            s = st(name)
            put(f"{name}.distinct_ratio", ratio(len(s.keys), s.calls),
                "ratio")

        g = st("ideal.groebner")
        calls("ideal.groebner"); busy("ideal.groebner")
        self_s("ideal.groebner")
        put("ideal.groebner.basis_size",
            ratio(g.counts.get("basis_size", 0), g.calls), "count")
        distinct("ideal.groebner")
        calls("ideal.power_membership"); busy("ideal.power_membership")
        put("ideal.power_membership.exponent_sum",
            st("ideal.power_membership").counts.get("exponent_sum", 0),
            "count")
        calls("ideal.normal_form"); busy("ideal.normal_form")
        r = "residue.grothendieck_residue"
        calls(r); busy(r); self_s(r); distinct(r)
        busy("linalg")
        calls("linalg.nullspace"); calls("linalg.solve")
        calls("linalg.span_add")
        sa = st("linalg.span_add")
        put("linalg.span_add.useful_ratio",
            ratio(sa.counts.get("useful", 0), sa.calls), "ratio")
        ns, so = st("linalg.nullspace").counts, st("linalg.solve").counts
        for key in ("rows", "cols", "nonzeros"):
            put(f"linalg.{key}", ns.get(key, 0) + so.get(key, 0), "count")
        put("linalg.density",
            ratio(ns.get("nonzeros", 0) + so.get("nonzeros", 0),
                  ns.get("cells", 0) + so.get("cells", 0)), "ratio")
        put("linalg.nullspace.rank", ns.get("rank", 0), "count")
        calls("ring.mul"); busy("ring.mul"); calls("ring.parse_poly")
        calls("polymat.mat_mul"); busy("polymat.mat_mul")
        calls("polymat.det"); busy("polymat.det")
        calls("mf.tensor"); busy("mf.tensor")
        h = "mf.null_homotopy_search"
        calls(h); busy(h); self_s(h)
        put(f"{h}.found_ratio",
            ratio(st(h).counts.get("found", 0), st(h).calls), "ratio")
        calls("unit.koszul_unit"); busy("unit.koszul_unit")
        busy("unit.sections")
        busy("adjunction.ev_coev")
        busy("adjunction.zorro_composite")
        self_s("adjunction.zorro_composite")
        calls("adjunction.kernel_homotopy_search")
        calls("tft.hom_cohomology"); busy("tft.hom_cohomology")
        self_s("tft.hom_cohomology")
        calls("tft.jacobi_ring"); distinct("tft.jacobi_ring")
        calls("tft.bulk_pairing"); busy("tft.bulk_pairing")
        calls("workspace.load"); busy("workspace.load")
        put("workspace.load.declarations",
            st("workspace.load").counts.get("declarations", 0), "count")
        calls("cli.main"); busy("cli.main")
        return out

    def write_spans(self, path):
        """One JSON object per recorded span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")
