"""Command-line front end.

Subcommands: classify a coframe model file, emit catalog models as JSON,
check CR integrability on the sphere bundle, decompose the characteristic
torsion, and run the deterministic self-test battery.

Exit codes are stable: 0 on success, 1 on input or schema errors, 2 when
the structure exists but is not nearly integrable.

The tolerance is read once, in main: --tol, else the SO3FIVE_TOL
environment variable, else 1e-9, and must be a finite number >= 0.  Every
command passes it down as an argument, so the variable and the flag are
the same setting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .scalar import DEFAULT_TOL, Scalar, get_tol, rank, scalar, sqrt3
from .spin import det_identity, spinor_obstruction
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


def _form_str_from_json(fj):
    """A form as text, from its _form_json output."""
    if fj is None:
        return "-"
    if not fj:
        return "0"
    return " + ".join(f"({c}) e{legs.replace(',', '^')}"
                      for legs, c in fj.items())


def _json_mat_lines(rows):
    if rows is None:
        return ["    -"]
    return ["    [" + "  ".join(row) + "]" for row in rows]


def _read_model(path, tol):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ModelError(f"{path} is not valid JSON: {e}") from None
    return CoframeModel.from_json(data, tol=tol), data


def _torsion_json(report, tol):
    """The characteristic torsion, its class and its 3- and 7-class parts;
    a form that is zero at tol has no coefficients here."""
    T, t3, t7 = (_form_json(f, tol) for f in
                 (report.torsion, report.torsion_t3, report.torsion_t7))
    return {"torsion": T, "torsion_class": report.torsion_class,
            "torsion_3_part": t3, "torsion_7_part": t7}


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
    """The expected-property rows of the file's catalog stanza."""
    if not isinstance(stanza, dict):
        raise ModelError("catalog must be an object (at /catalog)")
    name = stanza.get("entry")
    if not isinstance(name, str) or name not in CATALOG:
        raise ModelError(f"unknown catalog entry {name!r} (at /catalog/entry)")
    params = stanza.get("params") or {}
    if not isinstance(params, dict):
        raise ModelError("catalog params must be an object (at /catalog/params)")
    resolved = resolve_params(CATALOG[name], params, where="/catalog/params")
    expect = expected_properties(name, resolved, model)
    return verify_expectations(model, expect, tol)


def classify_data(model: CoframeModel, data=None, tol=DEFAULT_TOL) -> dict:
    """Everything cmd_classify reports, as one JSON-ready dictionary."""
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
    out.update(_torsion_json(report, tol))
    out.update({
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
    out["spinor"] = {k: spin[k]
                     for k in ("flat", "solution_dim", "det_residual")}
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
    tol = args.tol
    model, _ = _read_model(args.file, tol)
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
    tol = args.tol
    model, _ = _read_model(args.file, tol)
    report = build_report(model, tol)
    if not report.nearly_integrable:
        print(f"model: {model.name}")
        print(f"nearly integrable: NO (residual {report.ni_residual:g})")
        return EXIT_NOT_NI
    out = {"model": model.name, **_torsion_json(report, tol),
           "coclosed": report.codifferential_zero}
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"model: {model.name}")
        print(f"torsion 3-form: {_form_str_from_json(out['torsion'])}")
        print(f"class: {TORSION_CLASS_NAMES[out['torsion_class']]}")
        for k in (3, 7):
            print(f"{k}-class part (dual 2-form): "
                  f"{_form_str_from_json(out[f'torsion_{k}_part'])}")
        print(f"coclosed (*d*T = 0): "
              f"{'yes' if report.codifferential_zero else 'no'}")
    return EXIT_OK


# -- selftest ---------------------------------------------------------------


def _selftest_table(seed, tol):
    """The self-test rows, (name, check, tolerance_limited), in print order.

    A check returns ok or (ok, detail).  The rows run in order, because
    the seeded draws of each half share one generator.  Values that two
    rows read are computed once, here.
    """
    rng, acc_rng = random.Random(seed), random.Random(seed + 1)
    cr_tol = max(tol, 1e-12)
    y = standard_upsilon()
    rep, stab = verify_so3_structure(y), stabilizer(y)
    identities_ok = rep["valid"] and rep["max_residual"] == 0.0
    # the projector onto c<k> has trace k
    traces_ok = all(sum((M[i][i] for i in range(25)), scalar(0)) == int(n[1:])
                    for n, M in projector_matrices().items())
    prime_rank_ok = rank(upsilon_prime_matrix()) == 25

    # the torsion-free models have T = 0 and curvature r kappa; for r = 1
    # the complex Cartan connection of SU(3)/SO(3) is flat as well
    tf_ok = {}
    for r in (-1, 0, 1):
        m = torsion_free_model(r)
        gamma, T = characteristic_connection(m, tol)
        r_forms, _K = curvature(m, gamma)
        kappas = kappa_forms(m)
        tf_ok[r] = T.is_zero() and all(
            (r_forms[t] - kappas[t] * scalar(r)).is_zero() for t in range(3))
    tf_ok[1] = tf_ok[1] and cartan_su3(m, gamma, tol)["omega_zero"]

    def j0_right(m, want):
        """Whether the j0 residuals and the forecast both say `want`."""
        return cr_residuals(m, "j0", tol=cr_tol)["integrable"] == want \
            and predicted_verdict(m, tol)["integrable"] == want

    # tor23(1,0,1,0) is j0-integrable, tor27(1,0) is not; the first serves
    # both sphere-bundle rows
    t23 = tor23_model(1, 0, 1, 0)
    sphere_ok = omega_normalization(t23) == 5 \
        and gram_residual(t23, tol=cr_tol) == 0.0 \
        and j0_right(t23, True) \
        and j0_right(tor27_model(1, 0), False)

    def exterior_ok():
        # d squared vanishes, star is an involution on 2-forms
        model = six_dim_model(2, t1=1, t2=1)
        a = model.basis(1, 3) + model.basis(2, 4) * scalar(2)
        return all(ext_d(model.d_of(i)).is_zero() for i in range(1, 6)) \
            and (hodge_star(hodge_star(a)) - a).is_zero()

    def expectations(name, params):
        m, _entry, resolved = build_entry(name, params)
        rows = verify_expectations(m, expected_properties(name, resolved, m),
                                   tol)
        return all(r["ok"] for r in rows), f"{len(rows)} rows"

    def flat_draw(gen):
        return solve_flat_constraints(*[gen.randint(-3, 3) for _ in range(6)],
                                      gen.randint(1, 4))

    def det_identity_ok(draw, count):
        """The identity on `count` coefficient triples of draw()."""
        worst = max([0.0] + [det_identity([draw() for _ in range(3)])[3]
                             for _ in range(count)])
        return worst == 0.0, f"max residual {worst:g}"

    def frame_adaptation():
        # seeded rotations, a reduced draw count
        import numpy as np
        gen = np.random.default_rng(seed + 2)
        worst = 0.0
        for trial in range(3):
            Q, _ = np.linalg.qr(gen.normal(size=(5, 5)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            rotated = y.transform([list(map(float, Q[i])) for i in range(5)])
            worst = max(worst, adapt_frame(rotated, seed=trial)["max_residual"])
        return worst <= 1e-8, f"max residual {worst:.2e}"

    def type_table_ok():
        def types(case, t1, t2):
            """Torsion class and curvature components present."""
            rep = build_report(six_dim_model(case, t1=t1, t2=t2), tol)
            comps = rep.curvature_components["present"]
            return rep.torsion_class, {k for k, v in comps.items() if v}

        t1 = acc_rng.randint(1, 3)
        return types(2, t1, 2 * t1)[0] == "t3" \
            and types(2, -2 * t1, t1)[0] == "t7" \
            and types(2, 1, 1)[1] == {"c1", "c5", "c15"} \
            and types(3, t1, 3 * t1)[1] == {"c1", "c5", "c9", "c15"} \
            and types(3, t1, 2 * t1)[1] == {"c1", "c5", "c15"} \
            and "c15" not in types(3, 2, 3)[1]

    return [
        ("scalar field arithmetic", lambda: sqrt3() * sqrt3() == scalar(3)
         and (scalar(2) + sqrt3()) * (scalar(2) - sqrt3()) == scalar(1),
         False),
        ("exterior derivative and star", exterior_ok, False),
        ("ternary form identities",
         lambda: identities_ok and len(stab) == 3, False),
        ("projector traces and prime rank",
         lambda: traces_ok and prime_rank_ok, False),
        ("torsion-free curvature forms", lambda: tf_ok[1], False),
        ("catalog expectations: six-dim-2",
         lambda: expectations("six-dim-2", {"t1": "1", "t2": "1"}), False),
        # a float angle, so that a sub-machine tolerance shows up as such
        ("catalog expectations: tor23", lambda: expectations(
            "tor23", {"rho": "1", "phi": 0.7, "eps": "1", "delta": "1"}),
         True),
        ("catalog expectations: tor27",
         lambda: expectations("tor27", {"rho": "2"}), False),
        ("flat constraint solver", lambda: all(
            r.is_zero() for t in [flat_draw(rng) for _ in range(5)]
            for r in flat_constraint_residuals(t)), False),
        ("spinor determinant identity",
         lambda: det_identity_ok(lambda: scalar(rng.randint(-4, 4)), 10),
         False),
        ("sphere-bundle coframe and verdicts", lambda: sphere_ok, False),
        ("acceptance-01 defining identities", lambda: identities_ok, False),
        ("acceptance-02 projector spectrum", lambda: traces_ok, False),
        ("acceptance-03 stabilizer", lambda: len(stab) == 3 and rank(
            [sum(X, []) for X in stab] + [sum(E, []) for E in E_matrices()])
         == 3, False),
        ("acceptance-04 frame adaptation", frame_adaptation, False),
        ("acceptance-05 kernel dimensions", lambda: prime_rank_ok and rank(
            [b.to_vector() for b in kernel_basis()]) == 25, False),
        ("acceptance-06 torsion-free family",
         lambda: all(tf_ok.values()), False),
        ("acceptance-07 type table", type_table_ok, False),
        ("acceptance-08 ricci tables", lambda: all(
            expectations(name, params)[0] for name, params in (
                ("six-dim-2", {"t1": "2", "t2": "-1"}),
                ("tor23", {"rho": "1", "eps": "1", "delta": "0"}),
                ("friedrich", {}))), False),
        # flat draws: every spinor is constant, so the curvature vanishes
        ("acceptance-09 flat solver", lambda: [spinor_obstruction(
            flat_char_model(flat_draw(acc_rng)), tol)["solution_dim"]
            for _ in range(3)] == [4] * 3, False),
        ("acceptance-10 spinor determinant", lambda: det_identity_ok(
            lambda: scalar(acc_rng.randint(-6, 6))
            + sqrt3() * scalar(acc_rng.randint(-2, 2)), 20)[0], False),
        ("acceptance-11 sphere-bundle verdicts", lambda: sphere_ok
         and j0_right(six_dim_model(2, t1=1, t2=2), True)
         and j0_right(flat_char_model([1] + [0] * 9), False)
         and g2_form(t23, tol=cr_tol)["match"]
         and quarter_identity(t23, tol=cr_tol)["consistent"],
         False),
        # out-of-scope claims are excluded by design, not silently skipped
        ("acceptance-12 exclusions documented", lambda: (
            True, "global isometry and exhaustiveness statements are not "
                  "checkable from structure constants; the property suites "
                  "cover everything desk-computable"), False),
    ]


def cmd_selftest(args) -> int:
    table = _selftest_table(args.seed, args.tol)
    print(f"selftest seed={args.seed} tolerance={args.tol:g}")
    print("-- module invariants --")
    failed = []  # tolerance_limited of each failed row
    for name, check, tolerance_limited in table:
        if name.startswith("acceptance-01"):
            print("-- acceptance table (condensed; pytest runs the full "
                  "gate) --")
        out = check()
        ok, detail = out if isinstance(out, tuple) else (out, "")
        if not ok:
            failed.append(tolerance_limited)
        status = "ok  " if ok else \
            "FAIL (tolerance)" if tolerance_limited else "FAIL"
        print(f"{status} {name}" + (f"  [{detail}]" if detail else ""))
    summary = f"{len(table) - len(failed)}/{len(table)} checks passed"
    if any(failed):
        summary += f" ({sum(failed)} tolerance-limited)"
    print(summary)
    return EXIT_OK if not failed else EXIT_INPUT


# -- entry point ------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The command-line parser, built on the first call to main and kept."""
    p = _Parser(prog="so3five",
                description="irreducible rotation-group structures on "
                            "5-dimensional geometries")
    sub = p.add_subparsers(dest="command", required=True)
    # None means "not given"; main resolves it
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument("--tol", type=float, default=None)

    c = sub.add_parser("classify", help="classify a model file",
                       parents=[tol_flag])
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    cat = sub.add_parser("catalog", help="list or emit catalog models")
    cat.add_argument("words", nargs=argparse.REMAINDER)
    cat.set_defaults(func=lambda a: cmd_catalog(a.words))

    cr = sub.add_parser("cr", help="CR integrability on the sphere bundle",
                        parents=[tol_flag])
    cr.add_argument("file")
    cr.add_argument("--structure", choices=["j0", "j0m", "jm", "jmm"],
                    default="j0")
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--json", action="store_true")
    cr.set_defaults(func=cmd_cr)

    dt = sub.add_parser("decompose-torsion",
                        help="characteristic torsion and its class split",
                        parents=[tol_flag])
    dt.add_argument("file")
    dt.add_argument("--json", action="store_true")
    dt.set_defaults(func=cmd_decompose_torsion)

    st = sub.add_parser("selftest", help="deterministic invariant battery",
                        parents=[tol_flag])
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)
    return p


def _checked_tol(flag):
    """--tol, else SO3FIVE_TOL, else 1e-9; None, after one line on stderr,
    when that is not a finite number >= 0."""
    try:
        tol = get_tol() if flag is None else flag
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(
                f"--tol must be a finite number >= 0, not {flag!r}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    return tol


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if hasattr(args, "tol"):  # catalog takes no --tol
        args.tol = _checked_tol(args.tol)
        if args.tol is None:
            return EXIT_INPUT
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
