"""Request lists and output oracles for the four benchmark workloads.

A workload is one fixed list of requests.  Its shape (which request type
sits in which slot) does not depend on the seed; the seed only picks the
values of the seeded draws, so every seed measures the same mix.  Each
request loads its model file afresh, so per-model caches start cold on
every request, as they do for a CLI user.

The oracles are independent of the code under test: expected torsion
classes and CR verdicts come from the paper's classification (pure 3-class
on the t2 = 2 t1 line of the six-dimensional family, pure 7-class on the
t1 = -2 t2 line, j0 integrable exactly for pure 3-class torsion without the
9-dimensional curvature component).  The pinned classes of the flat-char
and six-dim-3 points are recorded from this code base and act as
regression oracles.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

STRUCTURES = ("j0", "j0m", "jm", "jmm")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must show."""

    argv: tuple
    kind: str          # "classify" | "cr" | "selftest"
    expect: dict       # oracle values for check()
    label: str

    def check(self, rc, stdout):
        """Return None when the output is correct, else the reason."""
        if rc != 0:
            return f"exit code {rc}"
        if self.kind == "selftest":
            m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.M)
            if not m:
                return "no summary line"
            if m.group(1) != m.group(2):
                return f"summary {m.group(0)!r}"
            return None
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        if self.kind == "classify":
            return _check_classify(out, self.expect)
        return _check_cr(out, self.expect)


def _check_classify(out, expect):
    if not out.get("nearly_integrable"):
        return "not nearly integrable"
    cat = out.get("catalog")
    if not cat or not cat.get("all_ok"):
        return "catalog rows failed"
    cls = out.get("torsion_class")
    want = expect["torsion_class"]
    if want == "nonzero":
        if cls == "zero" or cls is None:
            return f"torsion class {cls!r}, expected nonzero"
    elif cls != want:
        return f"torsion class {cls!r}, expected {want!r}"
    return None


def _check_cr(out, expect):
    s = expect["structure"]
    if out.get("structure") != s:
        return f"structure {out.get('structure')!r}"
    want = expect["j0"] if s == "j0" else False
    if out.get("integrable") is not want:
        return f"{s} integrable={out.get('integrable')!r}, expected {want!r}"
    if s == "j0" and out.get("prediction_matches") is not True:
        return "j0 prediction does not match the residuals"
    return None


# -- model generation -------------------------------------------------------


def _frac_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def _small_rational(rng, positive=False):
    while True:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if q and (q > 0 or not positive):
            return q


def _six2_params(rng, kind):
    """(t1, t2) for six-dim-2: on the t3 or t7 line, or generic."""
    t1 = _small_rational(rng)
    if kind == "t3":
        return {"t1": _frac_str(t1), "t2": _frac_str(2 * t1)}, "t3"
    if kind == "t7":
        return {"t1": _frac_str(-2 * t1), "t2": _frac_str(t1)}, "t7"
    while True:
        t2 = _small_rational(rng)
        if t2 != 2 * t1 and t1 != -2 * t2:
            return {"t1": _frac_str(t1), "t2": _frac_str(t2)}, "mixed"


def _flat_params(rng):
    """A flat-solver tuple: seven free integers, the first three solved."""
    t4, t5, t6, t7, t8, t9 = (rng.randint(-3, 3) for _ in range(6))
    t10 = rng.randint(1, 4)
    t = [Fraction(t4 * t8 - t5 * t7, t10), Fraction(t4 * t9 - t6 * t7, t10),
         Fraction(t5 * t9 - t6 * t8, t10), t4, t5, t6, t7, t8, t9, t10]
    return {f"t{i + 1}": _frac_str(v) for i, v in enumerate(t)}


def _tor23_params(rng):
    return {"rho": _frac_str(_small_rational(rng, positive=True)),
            "eps": rng.choice((1, -1)), "delta": rng.randint(0, 1)}


class _Files:
    """Writes catalog model files into a work directory, once per model."""

    def __init__(self, workdir):
        from so3five.catalog import entry_json
        self._entry_json = entry_json
        self.workdir = workdir
        self._paths = {}

    def path(self, entry, params):
        key = (entry, json.dumps(params, sort_keys=True))
        if key not in self._paths:
            p = os.path.join(self.workdir, f"m{len(self._paths):03d}.json")
            with open(p, "w", encoding="utf-8") as fh:
                json.dump(self._entry_json(entry, params), fh)
            self._paths[key] = p
        return self._paths[key]


def _classify(files, entry, params, cls):
    return Request(("classify", files.path(entry, params), "--json"),
                   "classify", {"torsion_class": cls},
                   f"classify {entry} {params}")


def _cr(files, entry, params, structure, j0):
    return Request(("cr", files.path(entry, params), "--structure", structure,
                    "--json"),
                   "cr", {"structure": structure, "j0": j0},
                   f"cr {structure} {entry} {params}")


# -- classify-exact ---------------------------------------------------------

CLASSIFY_PINNED = (
    ("tor23", {"rho": "1", "delta": 0}, "t3"),
    ("tor23", {"rho": "1", "delta": 1}, "t3"),
    ("tor27", {"rho": "1"}, "t7"),
    ("six-dim-2", {"t1": "1", "t2": "1"}, "mixed"),
    ("six-dim-2", {"t1": "1", "t2": "2"}, "t3"),
    ("friedrich", {}, "mixed"),
    ("six-dim-3", {"t1": "1", "t2": "3"}, "mixed"),
    ("six-dim-1", {"a": "1"}, "zero"),
    ("torsion-free", {"r115": "1"}, "zero"),
    ("torsion-free", {"r115": "-1"}, "zero"),
    ("torsion-free", {"r115": "0"}, "zero"),
    ("flat-char", {}, "mixed"),
)


def classify_exact(rng, files):
    pinned = [_classify(files, *spec) for spec in CLASSIFY_PINNED]
    six, cls = _six2_params(rng, "generic")
    draws = [_classify(files, "flat-char", _flat_params(rng), "nonzero"),
             _classify(files, "six-dim-2", six, cls),
             _classify(files, "six-dim-2", *_six2_params(rng, "t3")),
             _classify(files, "six-dim-2", *_six2_params(rng, "t7")),
             _classify(files, "tor23", _tor23_params(rng), "t3")]
    # pinned and seeded requests interleaved: a draw after every 2-3 pinned
    return [req for i in range(5)
            for req in pinned[12 * i // 5:12 * (i + 1) // 5] + [draws[i]]]


# -- cr-exact ---------------------------------------------------------------

CR_ROSTER = (
    ("tor23", {"rho": "1", "eps": 1, "delta": 0}, True),
    ("tor23", {"rho": "1", "eps": 1, "delta": 1}, True),
    ("six-dim-2", {"t1": "1", "t2": "2"}, True),
    ("tor27", {"rho": "1"}, False),
    ("six-dim-2", {"t1": "1", "t2": "1"}, False),
    ("flat-char", {}, False),
)
CR_TORSION_FREE = ("torsion-free", {"r115": "1"}, True)


def cr_exact(rng, files):
    """The torsion-free model, the roster and one seeded six-dim-2 draw (on
    the t3 line, on the t7 line or off both), with the structure cycling
    through all four, so each structure is asked twice."""
    params, cls = _six2_params(rng, rng.choice(("t3", "t7", "generic")))
    draw = ("six-dim-2", params, cls == "t3")
    models = [CR_TORSION_FREE, *CR_ROSTER, draw]
    return [_cr(files, entry, params, STRUCTURES[i % 4], j0)
            for i, (entry, params, j0) in enumerate(models)]


# -- float-mixed ------------------------------------------------------------


def _decimal(rng):
    return f"{rng.uniform(0.2, 1.5):.3f}"


def float_mixed(rng, files):
    """Float-input models at the default tolerance: classify, cr j0 and one
    alternative structure on each."""
    d = _decimal(rng)
    while True:
        a, b = _decimal(rng), _decimal(rng)
        if abs(float(b) - 2 * float(a)) > 0.05 \
                and abs(float(a) + 2 * float(b)) > 0.05:
            break
    models = (
        ("tor23", {"rho": "1", "phi": rng.uniform(0.1, 6.1), "eps": 1,
                   "delta": rng.randint(0, 1)}, "t3", True),
        ("tor27", {"rho": "1", "phi": rng.uniform(0.1, 6.1)}, "t7", False),
        ("six-dim-2", {"t1": d, "t2": repr(2 * float(d))}, "t3", True),
        ("six-dim-2", {"t1": a, "t2": b}, "mixed", False),
    )
    out = []
    for i, (entry, params, cls, j0) in enumerate(models):
        out += [_classify(files, entry, params, cls),
                _cr(files, entry, params, "j0", j0),
                _cr(files, entry, params, STRUCTURES[1 + i % 3], j0)]
    return out


# -- selftest ---------------------------------------------------------------


def selftest(rng, files):
    return [Request(("selftest", "--seed", str(rng.randrange(1, 10 ** 6))),
                    "selftest", {}, "selftest") for _ in range(3)]


WORKLOADS = {
    "classify-exact": classify_exact,
    "cr-exact": cr_exact,
    "float-mixed": float_mixed,
    "selftest": selftest,
}


def build(name, seed, workdir):
    """Write the model files for one workload; return (requests, warmup).

    The warm-up request is the same small exact classify for every
    workload: it fills the process-level caches (projectors, spin basis)
    that every command shares.
    """
    files = _Files(workdir)
    requests = WORKLOADS[name](random.Random(f"{name}:{seed}"), files)
    warmup = _classify(files, "six-dim-2", {"t1": "1", "t2": "2"}, "t3")
    return requests, warmup
