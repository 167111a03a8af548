"""Command-line front end.

Subcommands: classify a coframe model file, emit catalog models as JSON,
check CR integrability on the sphere bundle, decompose the characteristic
torsion, and run the deterministic self-test battery.

Exit codes are stable: 0 on success, 1 on input or schema errors, 2 when
the structure exists but is not nearly integrable.  The SO3FIVE_TOL
environment variable overrides the default tolerance; --tol overrides
both for a single invocation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .catalog import (
    CATALOG,
    build_entry,
    entry_json,
    expected_properties,
    flat_char_model,
    flat_constraint_residuals,
    resolve_params,
    six_dim_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
    torsion_free_model,
    verify_expectations,
)
from .connection import (
    Analysis,
    StructureError,
    build_report,
    cartan_su3,
    characteristic_connection,
    curvature,
)
from .exterior import CoframeModel, ModelError, ext_d, hodge_star
from .repr import (
    Tensor2,
    kappa_forms,
    kernel_basis,
    projector_matrices,
    upsilon_prime_matrix,
)
from .scalar import Scalar, cscalar, get_tol, rank, scalar, sqrt3
from .spin import det4, mat_add, mat_scale, spin_basis, spinor_obstruction, zero4
from .twistor import (
    cr_residuals,
    cr_residuals_sampled,
    g2_form,
    gram_residual,
    omega_normalization,
    predicted_verdict,
    quarter_identity,
)
from .upsilon import (
    E_matrices,
    adapt_frame,
    stabilizer,
    standard_upsilon,
    verify_so3_structure,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_NI = 2

TORSION_CLASS_NAMES = {
    "zero": "zero",
    "t3": "pure 3-class",
    "t7": "pure 7-class",
    "mixed": "mixed",
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# -- serialization helpers --------------------------------------------------


def _form_json(form, tol):
    """Coefficients by leg tuple, leaving out those that are zero at tol."""
    if form is None:
        return None
    return {",".join(str(i) for i in legs): coeff.to_string()
            for legs, coeff in sorted(form.terms.items())
            if not coeff.is_zero(tol)}


def _t2_json(t2):
    if t2 is None:
        return None
    return [[v.to_string() for v in row] for row in t2.m]


def _form_str(form, tol):
    if form is None:
        return "-"
    if form.is_zero(tol):
        return "0"
    parts = []
    for legs, coeff in sorted(form.terms.items()):
        if coeff.is_zero(tol):
            continue
        legs_s = "^".join(str(i) for i in legs)
        parts.append(f"({coeff.to_string()}) e{legs_s}")
    return " + ".join(parts)


def _form_str_from_json(fj):
    if fj is None:
        return "-"
    if not fj:
        return "0"
    return " + ".join(f"({c}) e{legs.replace(',', '^')}"
                      for legs, c in fj.items())


def _json_mat_lines(rows, indent="    "):
    if rows is None:
        return [indent + "-"]
    return [indent + "[" + "  ".join(row) + "]" for row in rows]


def _read_model(path, tol=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ModelError(f"{path} is not valid JSON: {e}") from None
    return CoframeModel.from_json(data, tol=tol), data


def _torsion_class(report, tol):
    if report.torsion is None or report.torsion.is_zero(tol):
        return "zero"
    t3_zero = report.torsion_t3.is_zero(tol)
    t7_zero = report.torsion_t7.is_zero(tol)
    if t7_zero and not t3_zero:
        return "t3"
    if t3_zero and not t7_zero:
        return "t7"
    return "mixed"


def _einstein(report, tol):
    ric = report.ric_lc
    if ric is None:
        return None, None
    diff = ric - Tensor2.metric().scale(ric.trace() / 5)
    residual = diff.max_mag()
    ok = residual == 0.0 if diff.is_exact else residual <= tol
    return ok, residual


# -- classify ---------------------------------------------------------------


def _catalog_rows(model, stanza, tol):
    name = stanza.get("entry")
    if name not in CATALOG:
        raise ModelError(f"unknown catalog entry {name!r} in catalog stanza")
    resolved = resolve_params(CATALOG[name], stanza.get("params") or {})
    expect = expected_properties(name, resolved, model)
    return verify_expectations(model, expect, tol)


def classify_data(model: CoframeModel, data=None, tol=None) -> dict:
    """Everything cmd_classify reports, as one JSON-ready dictionary."""
    analysis = Analysis(model, tol)  # held, so every stage below runs once
    tol = analysis.tol
    report = build_report(model, tol)
    out = {
        "model": model.name,
        "dimension": model.dim,
        "tolerance": tol,
        "nearly_integrable": report.nearly_integrable,
        "ni_residual": report.ni_residual,
    }
    if not report.nearly_integrable:
        out["failure"] = report.failure
        return out
    einstein_ok, einstein_res = _einstein(report, tol)
    out.update({
        "torsion": _form_json(report.torsion, tol),
        "torsion_class": _torsion_class(report, tol),
        "torsion_3_part": _form_json(report.torsion_t3, tol),
        "torsion_7_part": _form_json(report.torsion_t7, tol),
        "curvature_forms": [_form_json(f, tol) for f in report.r_forms],
        "curvature_present": {
            k: bool(v) for k, v in
            report.curvature_components["present"].items()},
        "curvature_norms": {
            k: float(v) for k, v in
            report.curvature_components["norms"].items()},
        "ricci_metric": _t2_json(report.ric_lc),
        "ricci_characteristic": _t2_json(report.ric_gamma),
        "ricci_relation_residual": report.ricci_relation_residual,
        "einstein": einstein_ok,
        "einstein_residual": einstein_res,
        "bianchi_residuals": report.bianchi_residuals,
        "codifferential_zero": report.codifferential_zero,
        "ricci_characteristic_symmetric": report.ric_gamma_symmetric,
    })
    spin = spinor_obstruction(model, tol)
    out["spinor"] = {
        "flat": spin["flat"],
        "solution_dim": spin["solution_dim"],
        "det_residual": spin["det_residual"],
    }
    if isinstance(data, dict) and "catalog" in data:
        rows = _catalog_rows(model, data["catalog"], tol)
        out["catalog"] = {
            "entry": data["catalog"].get("entry"),
            "checks": rows,
            "all_ok": all(r["ok"] for r in rows),
        }
    return out


def _print_classification(out):
    say = print
    say(f"model: {out['model']} (dimension {out['dimension']})")
    say(f"tolerance: {out['tolerance']:g}")
    ni = out["nearly_integrable"]
    say(f"nearly integrable: {'yes' if ni else 'NO'} "
        f"(residual {out['ni_residual']:g})")
    if not ni:
        say("no characteristic connection exists; stopping")
        return
    say(f"characteristic torsion: {_form_str_from_json(out['torsion'])}")
    say(f"torsion class: {TORSION_CLASS_NAMES[out['torsion_class']]}")
    present = [k for k, v in sorted(out["curvature_present"].items()) if v]
    say(f"curvature components present: "
        f"{', '.join(present) if present else 'none (flat)'}")
    for t, fj in enumerate(out["curvature_forms"]):
        say(f"curvature 2-form r^{t + 1}: {_form_str_from_json(fj)}")
    say("ricci (metric connection):")
    for line in _json_mat_lines(out["ricci_metric"]):
        say(line)
    say("ricci (characteristic connection):")
    for line in _json_mat_lines(out["ricci_characteristic"]):
        say(line)
    say(f"ricci relation residual: {out['ricci_relation_residual']:g}")
    say(f"einstein (metric ricci proportional to g): "
        f"{'yes' if out['einstein'] else 'no'}")
    say(f"bianchi residuals: first {out['bianchi_residuals']['first']:g}, "
        f"second {out['bianchi_residuals']['second']:g}")
    say(f"torsion coclosed (*d*T = 0): "
        f"{'yes' if out['codifferential_zero'] else 'no'}; "
        f"characteristic ricci symmetric: "
        f"{'yes' if out['ricci_characteristic_symmetric'] else 'no'}")
    sp = out["spinor"]
    say(f"constant spinors: dimension {sp['solution_dim']}"
        f"{' (flat characteristic curvature)' if sp['flat'] else ''}"
        f" [det identity residual {sp['det_residual']:g}]")
    if "catalog" in out:
        cat = out["catalog"]
        say(f"catalog entry: {cat['entry']} / expected-property checks:")
        for row in cat["checks"]:
            mark = "ok  " if row["ok"] else "FAIL"
            say(f"  {mark} {row['check']} (residual {row['residual']:g})")
            if not row["ok"]:
                say(f"        expected: {row['expected']}")
                say(f"        computed: {row['computed']}")
        say(f"catalog checks: "
            f"{'all passed' if cat['all_ok'] else 'FAILURES PRESENT'}")


def cmd_classify(args) -> int:
    model, data = _read_model(args.file, args.tol)
    out = classify_data(model, data, args.tol)
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        _print_classification(out)
    if not out["nearly_integrable"]:
        return EXIT_NOT_NI
    if "catalog" in out and not out["catalog"]["all_ok"]:
        return EXIT_INPUT
    return EXIT_OK


# -- catalog ----------------------------------------------------------------


def _default_str(p):
    if isinstance(p.default, Scalar):
        return p.default.to_string()
    return str(p.default)


def _catalog_listing() -> str:
    lines = []
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        if entry.params:
            schema = ", ".join(
                f"{p.name}={_default_str(p)} ({p.kind})"
                for p in entry.params)
        else:
            schema = "none"
        lines.append(f"{name}: {entry.summary}")
        lines.append(f"    parameters: {schema}")
    return "\n".join(lines)


def _parse_catalog_words(words):
    """Split catalog arguments into (name, params) or None for a listing."""
    if not words or words == ["list"]:
        return None
    if words[0] == "build":
        if len(words) < 2:
            raise ModelError("usage: catalog build NAME --param key=value ...")
        name, rest = words[1], words[2:]
        params = {}
        i = 0
        while i < len(rest):
            if rest[i] != "--param" or i + 1 >= len(rest) \
                    or "=" not in rest[i + 1]:
                raise ModelError(
                    "catalog build takes repeated --param key=value "
                    f"arguments; got {rest[i]!r}")
            key, val = rest[i + 1].split("=", 1)
            params[key] = val
            i += 2
        return name, params
    name, rest = words[0], words[1:]
    params = {}
    i = 0
    while i < len(rest):
        if not rest[i].startswith("--") or i + 1 >= len(rest):
            raise ModelError(
                f"expected --parameter value pairs, got {rest[i]!r}")
        params[rest[i][2:]] = rest[i + 1]
        i += 2
    return name, params


def cmd_catalog(words) -> int:
    parsed = _parse_catalog_words(words)
    if parsed is None:
        print(_catalog_listing())
        return EXIT_OK
    name, params = parsed
    print(json.dumps(entry_json(name, params), indent=2))
    return EXIT_OK


# -- cr ---------------------------------------------------------------------


def cmd_cr(args) -> int:
    model, _ = _read_model(args.file, args.tol)
    analysis = Analysis(model, args.tol)  # held across the calls below
    tol = analysis.tol
    report = build_report(model, tol)
    if not report.nearly_integrable:
        print(f"model: {model.name}")
        print(f"nearly integrable: NO (residual {report.ni_residual:g}); "
              "the sphere-bundle coframe needs the characteristic connection")
        return EXIT_NOT_NI
    cr_tol = max(tol, 1e-12)
    result = cr_residuals(model, args.structure, tol=cr_tol)
    sampled = cr_residuals_sampled(model, args.structure, seed=args.seed,
                                   tol=cr_tol)
    out = {
        "model": model.name,
        "structure": args.structure,
        "residuals": result["residuals"],
        "max_residual": result["max_residual"],
        "integrable": result["integrable"],
        "sampled_max_residual": sampled["max_sampled_residual"],
        "sampled_derivative_check": sampled["derivative_check"],
        "seed": args.seed,
    }
    if args.structure == "j0":
        verdict = predicted_verdict(model, tol)
        out["predicted_integrable"] = verdict["integrable"]
        out["prediction_matches"] = \
            verdict["integrable"] == result["integrable"]
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"model: {out['model']}")
        print(f"structure: {out['structure']}")
        for name, val in out["residuals"].items():
            print(f"residual ({name}): {val:g}")
        print(f"integrable: {'yes' if out['integrable'] else 'no'}")
        if "predicted_integrable" in out:
            agree = "matches" if out["prediction_matches"] else "MISMATCH"
            print(f"predicted from torsion and curvature type: "
                  f"{'yes' if out['predicted_integrable'] else 'no'} "
                  f"({agree})")
        print(f"sampled residual (seed {out['seed']}): "
              f"{out['sampled_max_residual']:g}; derivative check "
              f"{out['sampled_derivative_check']:g}")
    return EXIT_OK


# -- decompose-torsion ------------------------------------------------------


def cmd_decompose_torsion(args) -> int:
    model, _ = _read_model(args.file, args.tol)
    tol = args.tol if args.tol is not None else get_tol()
    report = build_report(model, tol)
    if not report.nearly_integrable:
        print(f"model: {model.name}")
        print(f"nearly integrable: NO (residual {report.ni_residual:g})")
        return EXIT_NOT_NI
    cls = _torsion_class(report, tol)
    out = {
        "model": model.name,
        "torsion": _form_json(report.torsion, tol),
        "torsion_class": cls,
        "torsion_3_part": _form_json(report.torsion_t3, tol),
        "torsion_7_part": _form_json(report.torsion_t7, tol),
        "coclosed": report.codifferential_zero,
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"model: {model.name}")
        print(f"torsion 3-form: {_form_str(report.torsion, tol)}")
        print(f"class: {TORSION_CLASS_NAMES[cls]}")
        print(f"3-class part (dual 2-form): {_form_str(report.torsion_t3, tol)}")
        print(f"7-class part (dual 2-form): {_form_str(report.torsion_t7, tol)}")
        print(f"coclosed (*d*T = 0): "
              f"{'yes' if report.codifferential_zero else 'no'}")
    return EXIT_OK


# -- selftest ---------------------------------------------------------------


def _det_identity_residual(c1, c2, c3):
    basis = spin_basis()
    W = zero4()
    for c, E in zip((c1, c2, c3), basis.E):
        W = mat_add(W, mat_scale(E, c))
    square_sum = c1 * c1 + c2 * c2 + c3 * c3
    predicted = (scalar(9) / 16) * square_sum * square_sum
    return (det4(W) - cscalar(predicted)).mag()


def _check(lines, results, name, ok, detail="", tolerance_limited=False):
    if ok:
        status = "ok  "
    elif tolerance_limited:
        status = "FAIL (tolerance)"
    else:
        status = "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    lines.append(f"{status} {name}{suffix}")
    results.append((name, bool(ok), tolerance_limited))


def _selftest_battery(lines, results, seed, tol):
    rng = random.Random(seed)

    # scalar field: arithmetic identities in the exact ring
    s3 = sqrt3()
    ok = (s3 * s3 == scalar(3)) and \
        ((scalar(2) + s3) * (scalar(2) - s3) == scalar(1))
    _check(lines, results, "scalar field arithmetic", ok)

    # exterior: d squared vanishes, star is an involution on 2-forms
    model = six_dim_model(2, t1=1, t2=1)
    dd_ok = all(ext_d(model.d_of(i)).is_zero() for i in range(1, 6))
    a = model.basis(1, 3) + model.basis(2, 4) * scalar(2)
    star_ok = (hodge_star(hodge_star(a)) - a).is_zero()
    _check(lines, results, "exterior derivative and star", dd_ok and star_ok)

    # ternary form: defining identities and stabilizer dimension
    rep = verify_so3_structure(standard_upsilon())
    stab = stabilizer(standard_upsilon())
    _check(lines, results, "ternary form identities",
           rep["valid"] and rep["max_residual"] == 0.0 and len(stab) == 3)

    # representation theory: projector traces and the rank of the prime map
    mats = projector_matrices()
    dims = {"c1": 1, "c3": 3, "c7": 7, "c5": 5, "c9": 9}
    tr_ok = all(sum((M[i][i] for i in range(25)), scalar(0)) == dims[n]
                for n, M in mats.items())
    rank_ok = rank([row[:] for row in upsilon_prime_matrix()]) == 25
    _check(lines, results, "projector traces and prime rank",
           tr_ok and rank_ok)

    # connection: the torsion-free model reproduces the invariant 2-forms
    tf = torsion_free_model(1)
    gamma, T = characteristic_connection(tf, tol)
    r_forms, _K = curvature(tf, gamma)
    kappas = kappa_forms(tf)
    tf_ok = T.is_zero() and all(
        (r_forms[t] - kappas[t]).is_zero() for t in range(3))
    tf_ok = tf_ok and cartan_su3(tf, gamma, tol)["omega_zero"]
    _check(lines, results, "torsion-free curvature forms", tf_ok)

    # catalog: expected-property rows on three entries, one with a float
    # angle parameter so a sub-machine tolerance shows up as such
    for entry_name, params in (
            ("six-dim-2", {"t1": "1", "t2": "1"}),
            ("tor23", {"rho": "1", "phi": 0.7, "eps": "1", "delta": "1"}),
            ("tor27", {"rho": "2"})):
        m, _entry, resolved = build_entry(entry_name, params)
        expect = expected_properties(entry_name, resolved, m)
        rows = verify_expectations(m, expect, tol)
        bad = [r for r in rows if not r["ok"]]
        _check(lines, results, f"catalog expectations: {entry_name}",
               not bad, detail=f"{len(rows)} rows",
               tolerance_limited=bool(bad) and not m.is_exact)

    # flat solver: seeded draws satisfy the constraints exactly
    flat_ok = True
    for _ in range(5):
        t = solve_flat_constraints(*[rng.randint(-3, 3) for _ in range(6)],
                                   rng.randint(1, 4))
        flat_ok = flat_ok and all(r.is_zero()
                                  for r in flat_constraint_residuals(t))
    _check(lines, results, "flat constraint solver", flat_ok)

    # spin: determinant identity on seeded triples
    worst = 0.0
    for _ in range(10):
        triple = [scalar(rng.randint(-4, 4)) for _ in range(3)]
        worst = max(worst, _det_identity_residual(*triple))
    _check(lines, results, "spinor determinant identity", worst == 0.0,
           detail=f"max residual {worst:g}")

    # twistor: normalization, orthonormal coframe, one verdict each way
    t23 = tor23_model(1, 0, 1, 0)
    t27 = tor27_model(1, 0)
    held = [Analysis(m, tol) for m in (t23, t27)]  # shared by the calls below
    tw_ok = omega_normalization(t23) == 5 and gram_residual(t23) == 0.0
    good = cr_residuals(t23, "j0")
    bad = cr_residuals(t27, "j0")
    tw_ok = tw_ok and good["integrable"] and not bad["integrable"]
    tw_ok = tw_ok and predicted_verdict(t23, tol)["integrable"] \
        and not predicted_verdict(t27, tol)["integrable"]
    _check(lines, results, "sphere-bundle coframe and verdicts", tw_ok)


def _selftest_acceptance(lines, results, seed, tol):
    rng = random.Random(seed + 1)

    # 1: defining identity suite
    rep = verify_so3_structure(standard_upsilon())
    _check(lines, results, "acceptance-01 defining identities",
           rep["valid"] and rep["max_residual"] == 0.0)

    # 2: spectrum of the projector family
    mats = projector_matrices()
    dims = {"c1": 1, "c3": 3, "c7": 7, "c5": 5, "c9": 9}
    ok = all(sum((M[i][i] for i in range(25)), scalar(0)) == dims[n]
             for n, M in mats.items())
    _check(lines, results, "acceptance-02 projector spectrum", ok)

    # 3: stabilizer is 3-dimensional and spanned by the standard generators
    stab = stabilizer(standard_upsilon())
    E1, E2, E3 = E_matrices()
    rows = [sum(X, []) for X in stab] + [sum(E, []) for E in (E1, E2, E3)]
    _check(lines, results, "acceptance-03 stabilizer",
           len(stab) == 3 and rank(rows) == 3)

    # 4: frame adaptation on seeded rotations (reduced draw count)
    import numpy as np
    gen = np.random.default_rng(seed + 2)
    worst = 0.0
    y = standard_upsilon()
    for trial in range(3):
        A = gen.normal(size=(5, 5))
        Q, _ = np.linalg.qr(A)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        rotated = y.transform([list(map(float, Q[i])) for i in range(5)])
        out = adapt_frame(rotated, seed=trial)
        worst = max(worst, out["max_residual"])
    _check(lines, results, "acceptance-04 frame adaptation", worst <= 1e-8,
           detail=f"max residual {worst:.2e}")

    # 5: rank and kernel dimensions of the prime map
    vecs = [b.to_vector() for b in kernel_basis()]
    ok = rank([row[:] for row in upsilon_prime_matrix()]) == 25 \
        and rank([v[:] for v in vecs]) == 25
    _check(lines, results, "acceptance-05 kernel dimensions", ok)

    # 6: torsion-free family facts
    ok = True
    for r in (-1, 0, 1):
        m = torsion_free_model(r)
        g, T = characteristic_connection(m, tol)
        rf, _ = curvature(m, g)
        kap = kappa_forms(m)
        ok = ok and T.is_zero() and all(
            (rf[t] - kap[t] * scalar(r)).is_zero() for t in range(3))
    m1 = torsion_free_model(1)
    g1, _ = characteristic_connection(m1, tol)
    ok = ok and cartan_su3(m1, g1, tol)["omega_zero"]
    _check(lines, results, "acceptance-06 torsion-free family", ok)

    # 7: torsion class lines and curvature component content
    def present(m):
        repm = build_report(m, tol)
        return {k for k, v in repm.curvature_components["present"].items()
                if v}

    t1 = rng.randint(1, 3)
    ok = _torsion_class(build_report(six_dim_model(2, t1=t1, t2=2 * t1), tol),
                        tol) == "t3"
    ok = ok and _torsion_class(
        build_report(six_dim_model(2, t1=-2 * t1, t2=t1), tol), tol) == "t7"
    ok = ok and present(six_dim_model(2, t1=1, t2=1)) == {"c1", "c5", "c15"}
    ok = ok and present(six_dim_model(3, t1=t1, t2=3 * t1)) == \
        {"c1", "c5", "c9", "c15"}
    ok = ok and present(six_dim_model(3, t1=t1, t2=2 * t1)) == \
        {"c1", "c5", "c15"}
    ok = ok and "c15" not in present(six_dim_model(3, t1=2, t2=3))
    _check(lines, results, "acceptance-07 type table", ok)

    # 8: ricci tables through the catalog expectation rows
    ok = True
    for name, params in (("six-dim-2", {"t1": "2", "t2": "-1"}),
                         ("tor23", {"rho": "1", "eps": "1", "delta": "0"}),
                         ("friedrich", {})):
        m, _entry, resolved = build_entry(name, params)
        expect = expected_properties(name, resolved, m)
        rows = verify_expectations(m, expect, tol)
        ok = ok and all(r["ok"] for r in rows)
    _check(lines, results, "acceptance-08 ricci tables", ok)

    # 9: flat-family draws solve the constraints and kill the curvature
    ok = True
    for _ in range(3):
        t = solve_flat_constraints(*[rng.randint(-3, 3) for _ in range(6)],
                                   rng.randint(1, 4))
        m = flat_char_model(t)
        analysis = Analysis(m, tol)  # held: the spinor check reads its curvature
        rf, _ = analysis.curvature
        sp = spinor_obstruction(m, tol)
        ok = ok and all(f.is_zero() for f in rf) and sp["solution_dim"] == 4
    _check(lines, results, "acceptance-09 flat solver", ok)

    # 10: spinor determinant identity on seeded exact triples
    worst = 0.0
    for _ in range(20):
        triple = [scalar(rng.randint(-6, 6)) +
                  sqrt3() * scalar(rng.randint(-2, 2)) for _ in range(3)]
        worst = max(worst, _det_identity_residual(*triple))
    _check(lines, results, "acceptance-10 spinor determinant", worst == 0.0)

    # 11: sphere-bundle verdicts on a reduced roster
    ok = True
    roster = [(tor23_model(1, 0, 1, 0), True),
              (six_dim_model(2, t1=1, t2=2), True),
              (tor27_model(1, 0), False),
              (flat_char_model([1] + [0] * 9), False)]
    held = [Analysis(m, tol) for m, _ in roster]  # shared by the calls below
    for m, want in roster:
        got = cr_residuals(m, "j0")["integrable"]
        pred = predicted_verdict(m, tol)["integrable"]
        ok = ok and got == want and pred == want
    m0 = roster[0][0]
    ok = ok and gram_residual(m0) == 0.0 and omega_normalization(m0) == 5
    ok = ok and g2_form(m0)["match"] and quarter_identity(m0)["consistent"]
    _check(lines, results, "acceptance-11 sphere-bundle verdicts", ok)

    # 12: out-of-scope claims are excluded by design, not silently skipped
    _check(lines, results, "acceptance-12 exclusions documented", True,
           detail="global isometry and exhaustiveness statements are not "
                  "checkable from structure constants; the property suites "
                  "cover everything desk-computable")


def cmd_selftest(args) -> int:
    tol = args.tol if args.tol is not None else get_tol()
    lines = []
    results = []
    lines.append(f"selftest seed={args.seed} tolerance={tol:g}")
    lines.append("-- module invariants --")
    _selftest_battery(lines, results, args.seed, tol)
    lines.append("-- acceptance table (condensed; pytest runs the full "
                 "gate) --")
    _selftest_acceptance(lines, results, args.seed, tol)
    failed = [r for r in results if not r[1]]
    tol_limited = [r for r in failed if r[2]]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed"
    if tol_limited:
        summary += f" ({len(tol_limited)} tolerance-limited)"
    lines.append(summary)
    print("\n".join(lines))
    return EXIT_OK if not failed else EXIT_INPUT


# -- entry point ------------------------------------------------------------


def _build_parser():
    p = _Parser(prog="so3five",
                description="irreducible rotation-group structures on "
                            "5-dimensional geometries")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a model file")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.add_argument("--tol", type=float, default=None)
    c.set_defaults(func=cmd_classify)

    cat = sub.add_parser("catalog", help="list or emit catalog models")
    cat.add_argument("words", nargs=argparse.REMAINDER)
    cat.set_defaults(func=lambda a: cmd_catalog(a.words))

    cr = sub.add_parser("cr", help="CR integrability on the sphere bundle")
    cr.add_argument("file")
    cr.add_argument("--structure", choices=["j0", "j0m", "jm", "jmm"],
                    default="j0")
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--tol", type=float, default=None)
    cr.add_argument("--json", action="store_true")
    cr.set_defaults(func=cmd_cr)

    dt = sub.add_parser("decompose-torsion",
                        help="characteristic torsion and its class split")
    dt.add_argument("file")
    dt.add_argument("--tol", type=float, default=None)
    dt.add_argument("--json", action="store_true")
    dt.set_defaults(func=cmd_decompose_torsion)

    st = sub.add_parser("selftest", help="deterministic invariant battery")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--tol", type=float, default=None)
    st.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except StructureError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_NI
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
