"""Spans and counters for the traced run, installed from outside the library.

The tracer wraps public functions of every so3five layer (one layer = one
module) and patches every ``so3five.*`` namespace that holds a wrapped
object, because modules such as cli.py and twistor.py import their
dependencies by name.  Spans (name, start, end, parent, request id, and the
tracer's own bookkeeping time) are kept in memory and written out when the
run ends.  Field operations are counted, not timed; their cost is
micro-timed afterwards on operand pairs captured during the run.

A span's self time is its duration minus the time covered by its direct
child spans, including the bookkeeping spent around those children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Functions timed with spans, by layer.  upsilon lists only the user path
# (identity suite, stabilizer, frame adaptation): E_matrices and
# standard_upsilon are constants that the connection, repr and twistor
# layers build on, so their cost stays in those callers' self time.
SPAN_TARGETS = {
    "scalar": ("rref", "rank", "nullspace", "solve", "det",
               "spectral_projector"),
    "exterior": ("CoframeModel.from_json", "CoframeModel.jacobi_residuals",
                 "wedge", "wedge_all", "ext_d", "hodge_star", "form_inner",
                 "form_norm_sq"),
    "connection": ("levi_civita", "nearly_integrable",
                   "characteristic_connection", "curvature", "bianchi_check",
                   "ricci", "weyl", "cartan_su3", "build_report"),
    "repr": ("decompose_curvature", "torsion_type", "split_connection",
             "upsilon_prime", "kappa_forms", "decompose_t2"),
    "spin": ("spinor_obstruction", "spin_lift", "det4"),
    "catalog": ("verify_expectations", "expected_properties", "build_entry",
                "resolve_params", "solve_flat_constraints", "flat_char_model",
                "six_dim_model", "tor23_model", "tor27_model",
                "torsion_free_model"),
    "twistor": ("twistor_coframe", "cr_residuals", "cr_residuals_sampled",
                "predicted_verdict", "g2_form", "quarter_identity",
                "gram_residual", "omega_normalization", "coframe_gram",
                "null_span_checks", "TwistorForm.wedge", "TwistorForm.d",
                "FiberFunction.reduce", "FiberFunction.d_z"),
    "upsilon": ("verify_so3_structure", "stabilizer", "adapt_frame",
                "rho_act", "char_poly", "sigma_embed", "sigma_inverse"),
    "cli": ("main",),
}

# Operators counted per call: metric name -> (module, class, method names).
COUNTED = {
    "scalar.Scalar.add": ("scalar", "Scalar", ("__add__", "__radd__")),
    "scalar.Scalar.mul": ("scalar", "Scalar", ("__mul__", "__rmul__")),
    "scalar.Scalar.div": ("scalar", "Scalar", ("__truediv__", "__rtruediv__")),
    "scalar.CScalar.add": ("scalar", "CScalar", ("__add__", "__radd__")),
    "scalar.CScalar.mul": ("scalar", "CScalar", ("__mul__", "__rmul__")),
    "twistor.FiberFunction.mul": ("twistor", "FiberFunction",
                                  ("__mul__", "__rmul__")),
}
MICRO_TIMED = ("scalar.Scalar.add", "scalar.Scalar.mul", "scalar.CScalar.mul")
SAMPLE_CAP = 2048

LAYERS = tuple(SPAN_TARGETS)

# Every per-layer metric the traced run prints, in BENCHMARK.json order.
PER_LAYER = (
    [("scalar.Scalar.add.calls", "count"), ("scalar.Scalar.mul.calls", "count"),
     ("scalar.Scalar.div.calls", "count"),
     ("scalar.CScalar.add.calls", "count"),
     ("scalar.CScalar.mul.calls", "count"), ("scalar.rref.calls", "count"),
     ("scalar.Scalar.add_us", "us"), ("scalar.Scalar.mul_us", "us"),
     ("scalar.CScalar.mul_us", "us"), ("scalar.est_s", "s")]
    + [(f"exterior.{f}.{k}", "count" if k == "calls" else "s")
       for f in ("CoframeModel.from_json", "wedge", "ext_d", "hodge_star")
       for k in ("calls", "self_s")]
    + [("connection.build_report.calls", "count"),
       ("connection.build_report.self_s", "s"),
       ("connection.build_report.dup_frac", "frac")]
    + [(f"connection.{f}.self_s", "s")
       for f in ("levi_civita", "characteristic_connection", "curvature",
                 "ricci", "bianchi_check")]
    + [("repr.decompose_curvature.self_s", "s"),
       ("repr.torsion_type.self_s", "s"),
       ("spin.spinor_obstruction.self_s", "s"),
       ("catalog.verify_expectations.self_s", "s"),
       ("catalog.verify_expectations.rows", "count"),
       ("twistor.twistor_coframe.self_s", "s"),
       ("twistor.TwistorForm.wedge.calls", "count"),
       ("twistor.TwistorForm.wedge.self_s", "s"),
       ("twistor.TwistorForm.wedge.terms_out", "count"),
       ("twistor.TwistorForm.wedge.dup_frac", "frac"),
       ("twistor.TwistorForm.d.calls", "count"),
       ("twistor.TwistorForm.d.self_s", "s"),
       ("twistor.TwistorForm.d.dup_frac", "frac"),
       ("twistor.FiberFunction.mul.calls", "count"),
       ("twistor.FiberFunction.reduce.self_s", "s"),
       ("twistor.FiberFunction.max_k", "count"),
       ("twistor.cr_residuals_sampled.self_s", "s"),
       ("twistor.predicted_verdict.self_s", "s")]
    + [(f"upsilon.{f}.self_s", "s")
       for f in ("adapt_frame", "verify_so3_structure", "stabilizer")]
    + [("cli.main.self_s", "s")]
    + [(f"{layer}.{k}", "count" if k == "calls" else "s")
       for layer in LAYERS for k in ("calls", "self_s")]
    + [("trace.requests", "count"), ("trace.spans", "count"),
       ("trace.requests_per_s", "1/s"),
       ("trace.untraced_requests_per_s", "1/s"),
       ("trace.overhead_frac", "frac")]
)


def _resolve(module, qualname):
    """(owner, attribute, object) for a dotted name inside a module."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    """Installs the wrappers, collects spans and counts, computes metrics."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.rid = -1
        self.cells = {}                       # counted op -> [calls, stride]
        self.samples = {n: [] for n in MICRO_TIMED}
        self.extra = defaultdict(int)         # terms_out, rows, max_k
        self.dups = defaultdict(int)
        self._seen = defaultdict(set)
        self._model_keys = {}
        self._patches = []
        self._originals = {}
        self._keyers = self._dup_keyers()

    # -- per-request state ---------------------------------------------------

    def begin_request(self, rid):
        """Start a request: duplicate detection is per request."""
        self.rid = rid
        for seen in self._seen.values():
            seen.clear()
        self._model_keys.clear()

    def _model_key(self, model):
        hit = self._model_keys.get(id(model))
        if hit is None:
            # keep the model alive so its id is not reused in this request
            hit = (model, json.dumps(model.to_json(), sort_keys=True))
            self._model_keys[id(model)] = hit
        return hit[1]

    def _content(self, x):
        """Canonical, hashable content of a form, fiber function or scalar."""
        terms = getattr(x, "terms", None)
        if isinstance(terms, dict):
            model = getattr(x, "model", None)
            return ("form", None if model is None else self._model_key(model),
                    getattr(x, "degree", None),
                    tuple(sorted((k, self._content(v))
                                 for k, v in terms.items())))
        num = getattr(x, "num", None)
        if isinstance(num, dict):
            return ("fiber", getattr(x, "k", 0),
                    tuple(sorted((k, self._content(v))
                                 for k, v in num.items())))
        if hasattr(x, "re") and hasattr(x, "im"):
            return (self._content(x.re), self._content(x.im))
        to_string = getattr(x, "to_string", None)
        return to_string() if to_string is not None else repr(x)

    def _dup_keyers(self):
        return {
            "connection.build_report": lambda a, kw: (
                self._model_key(a[0]), a[1] if len(a) > 1 else kw.get("tol")),
            "twistor.TwistorForm.wedge": lambda a, kw: (
                self._content(a[0]), self._content(a[1])),
            "twistor.TwistorForm.d": lambda a, kw: self._content(a[0]),
        }

    def _afters(self):
        extra = self.extra

        def terms_out(res):
            extra["twistor.TwistorForm.wedge.terms_out"] += len(res.terms)

        def rows(res):
            extra["catalog.verify_expectations.rows"] += len(res)

        def max_k(res):
            k = getattr(res, "k", 0)
            if k > extra["twistor.FiberFunction.max_k"]:
                extra["twistor.FiberFunction.max_k"] = k

        return {"twistor.TwistorForm.wedge": terms_out,
                "catalog.verify_expectations": rows,
                "twistor.FiberFunction.reduce": max_k,
                "twistor.FiberFunction.mul": max_k}

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name, keyer, after):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        seen = self._seen[name]
        dups = self.dups

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = perf()
            if keyer is not None:
                key = keyer(args, kw)
                if key in seen:
                    dups[name] += 1
                else:
                    seen.add(key)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t1 = perf()
            try:
                res = fn(*args, **kw)
            except BaseException:
                t2 = perf()
                stack.pop()
                spans[me] = (idx, t1, t2, parent, self.rid, t1 - t0)
                raise
            t2 = perf()
            stack.pop()
            if after is not None:
                after(res)
            spans[me] = (idx, t1, t2, parent, self.rid,
                         (t1 - t0) + (perf() - t2))
            return res

        return wrapper

    def _count_wrapper(self, fn, cell, samples, after):
        def wrapper(a, b):
            cell[0] += 1
            if samples is not None and cell[0] % cell[1] == 0:
                samples.append((a, b))
                if len(samples) >= SAMPLE_CAP:
                    del samples[::2]      # keep multiples of twice the stride
                    cell[1] *= 2
            res = fn(a, b)
            if after is not None and res is not NotImplemented:
                after(res)
            return res

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; a target missing from the library is skipped
        (its metrics then read zero) and reported on stderr."""
        import importlib

        mods = {layer: importlib.import_module(f"so3five.{layer}")
                for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "so3five" or n.startswith("so3five."))
                      and m is not None]
        keyers, afters = self._keyers, self._afters()
        for layer, quals in SPAN_TARGETS.items():
            for qual in quals:
                name = f"{layer}.{qual}"
                try:
                    owner, attr, obj = _resolve(mods[layer], qual)
                except (AttributeError, KeyError):
                    print(f"tracing: {name} not found, skipped",
                          file=sys.stderr)
                    continue
                is_cm = isinstance(obj, classmethod)
                fn = obj.__func__ if is_cm else obj
                w = self._span_wrapper(fn, name, keyers.get(name),
                                       afters.get(name))
                if owner is not mods[layer]:          # a method
                    self._patch(owner, attr, classmethod(w) if is_cm else w)
                    continue
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, key, w)
        for name, (layer, cls_name, methods) in COUNTED.items():
            cls = getattr(mods[layer], cls_name, None)
            if cls is None:
                print(f"tracing: {name} not found, skipped", file=sys.stderr)
                continue
            cell = self.cells[name] = [0, 1]
            samples = self.samples.get(name)
            for meth in methods:
                fn = vars(cls).get(meth)
                if fn is None:
                    continue
                self._originals.setdefault(name, fn)
                self._patch(cls, meth, self._count_wrapper(
                    fn, cell, samples, afters.get(name)))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def _micro_us(self, name):
        """Median per-operation time, in microseconds, of the unwrapped
        operator over the operand pairs captured during the run."""
        fn, pairs = self._originals.get(name), self.samples.get(name)
        if fn is None or not pairs:
            return 0.0
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            reps.append((time.perf_counter() - t0) / len(pairs))
        return statistics.median(reps) * 1e6

    def metrics(self, n_requests, untraced_s, traced_s):
        calls = defaultdict(int)
        self_s = defaultdict(float)
        cover = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                cover[rec[3]] += rec[2] - rec[1] + rec[5]
        for i, (idx, t1, t2, _parent, _rid, _ovh) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += (t2 - t1) - cover[i]
        for name, cell in self.cells.items():
            calls[name] = cell[0]
        v = {}
        for name in set(calls) | set(self.names):
            v[f"{name}.calls"] = calls[name]
            v[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            prefix = layer + "."
            v[f"{layer}.calls"] = sum(c for n, c in calls.items()
                                      if n.startswith(prefix)
                                      and n not in self.cells)
            v[f"{layer}.self_s"] = sum(s for n, s in self_s.items()
                                       if n.startswith(prefix))
        for name in self._keyers:
            v[f"{name}.dup_frac"] = \
                self.dups[name] / calls[name] if calls[name] else 0.0
        v.update(self.extra)
        for name in MICRO_TIMED:
            v[f"{name}_us"] = self._micro_us(name)
        v["scalar.est_s"] = (calls["scalar.Scalar.add"]
                             * v["scalar.Scalar.add_us"]
                             + calls["scalar.Scalar.mul"]
                             * v["scalar.Scalar.mul_us"]) / 1e6
        v["trace.requests"] = n_requests
        v["trace.spans"] = len(self.spans)
        v["trace.requests_per_s"] = n_requests / traced_s
        v["trace.untraced_requests_per_s"] = n_requests / untraced_s
        v["trace.overhead_frac"] = 1 - untraced_s / traced_s
        return {name: {"value": v.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER}

    def write_spans(self, path):
        """Write the span table: one row [name, start, end, parent,
        request, bookkeeping] per span, times in seconds."""
        if not path:
            return
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "bookkeeping_s"],
                       "names": self.names,
                       "spans": self.spans}, fh)
