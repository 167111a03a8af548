"""End-to-end checks of the command-line interface.

Every invocation goes through main(argv) in-process so the exit code and
the captured output are both visible to the assertions.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from so3five.cli import main

DATA = Path(__file__).parent / "data"

# acceptance-04's residual comes from LAPACK's QR, so the pinned selftest
# text matches it by format only
ACCEPTANCE_04 = re.compile(
    r"(acceptance-04 frame adaptation  \[max residual )"
    r"\d\.\d\de[-+]\d\d+\]")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perturbed_tor23(tmp_path, amount):
    """tor23 (rho=1, eps=1, delta=1) with a float amount of e2^e3 added to
    d(e1): a d^2 residual and a prime residual of order amount."""
    from so3five.catalog import entry_json
    model = entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"})
    model.pop("catalog")
    model["d"]["e1"].append([amount, "e2", "e3"])
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(model))
    return str(path)


@pytest.fixture(scope="module")
def tor23_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "tor23.json"
    from so3five.catalog import entry_json
    path.write_text(json.dumps(entry_json(
        "tor23", {"rho": "1", "eps": "1", "delta": "1"})))
    return str(path)


@pytest.fixture(scope="module")
def tor27_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "tor27.json"
    from so3five.catalog import entry_json
    path.write_text(json.dumps(entry_json("tor27", {"rho": "1"})))
    return str(path)


@pytest.fixture(scope="module")
def broken_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "broken.json"
    path.write_text(json.dumps({
        "name": "broken",
        "labels": ["e1", "e2", "e3", "e4", "e5"],
        "d": {"e1": [["1", "e2", "e3"]], "e3": [["1", "e4", "e5"]]},
    }))
    return str(path)


@pytest.fixture(scope="module")
def not_ni_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "notni.json"
    path.write_text(json.dumps({
        "name": "notni",
        "labels": ["e1", "e2", "e3", "e4", "e5"],
        "d": {"e1": [["1", "e2", "e3"]]},
    }))
    return str(path)


class TestClassify:
    def test_catalog_file_passes_all_checks(self, capsys, tor23_file):
        code, out, _ = run(capsys, "classify", tor23_file)
        assert code == 0
        assert "nearly integrable: yes" in out
        assert "torsion class: pure 3-class" in out
        assert "catalog checks: all passed" in out

    def test_json_output_shape(self, capsys, tor23_file):
        code, out, _ = run(capsys, "classify", tor23_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["nearly_integrable"] is True
        assert d["torsion_class"] == "t3"
        assert d["curvature_present"]["c15"] is True
        assert d["curvature_present"]["c9"] is False
        assert d["spinor"]["solution_dim"] == 0
        assert d["ricci_relation_residual"] == 0.0
        assert d["catalog"]["all_ok"] is True
        assert len(d["catalog"]["checks"]) == 8

    def test_tor27_content(self, capsys, tor27_file):
        code, out, _ = run(capsys, "classify", tor27_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["torsion_class"] == "t7"
        assert d["codifferential_zero"] is True
        assert d["einstein"] is False

    def test_broken_jacobi_exits_1_with_diagnostic(self, capsys,
                                                   broken_file):
        code, _, err = run(capsys, "classify", broken_file)
        assert code == 1
        assert "d^2 != 0" in err

    def test_not_nearly_integrable_exits_2(self, capsys, not_ni_file):
        code, out, _ = run(capsys, "classify", not_ni_file)
        assert code == 2
        assert "nearly integrable: NO" in out

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/model.json")
        assert code == 1
        assert "cannot read" in err

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_schema_error_reports_json_pointer(self, capsys, tmp_path):
        path = tmp_path / "badschema.json"
        path.write_text(json.dumps({
            "name": "bad",
            "labels": ["e1", "e2", "e3", "e4", "e5"],
            "d": {"e1": [["1", "e2", "nolabel"]]},
        }))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "/d/" in err

    def test_tol_flag_is_honored(self, capsys, tor23_file):
        code, out, _ = run(capsys, "classify", tor23_file, "--tol", "1e-4",
                           "--json")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-4

    @pytest.mark.parametrize("patch,pointer", [
        ({"d": {"e1": [["1/0", "e2", "e3"]]}}, "/d/e1/0/0"),
        ({"d": {"e1": [[1, "e2", "e3"]]}}, "/d/e1/0/0"),
        ({"d": {"e1": [["nan", "e2", "e3"]]}}, "/d/e1/0/0"),
        ({"d": {"e1": [["1e400", "e2", "e3"]]}}, "/d/e1/0/0"),
        ({"d": {"e1": "e2"}}, "/d/e1"),
        ({"d": []}, "/d"),
        ({"connection": "bad"}, "/connection"),
        ({"connection": {"g1": 5}}, "/connection/g1"),
    ], ids=["zero-denominator", "numeric-coefficient", "nan", "overflow",
            "entries-not-a-list", "d-not-an-object", "connection-not-an-object",
            "connection-entries-not-a-list"])
    def test_malformed_model_exits_1_with_pointer(self, capsys, tmp_path,
                                                  patch, pointer):
        model = {"name": "bad", "labels": ["e1", "e2", "e3", "e4", "e5"],
                 "d": {"e1": [["1", "e2", "e3"]]}}
        model.update(patch)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(model))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert f"(at {pointer})" in err
        assert "Traceback" not in err

    def test_tol_flag_reaches_the_load_time_jacobi_check(self, capsys,
                                                         tmp_path):
        # a float perturbation leaves a d^2 residual of 1e-7: inside a
        # 1e-5 tolerance, outside the default one
        from so3five.catalog import entry_json
        model = entry_json("tor23", {"rho": "1", "eps": "1", "delta": "1"})
        model.pop("catalog")
        model["d"]["e1"].append(["5e-8", "e2", "e3"])
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(capsys, "classify", str(path), "--tol", "1e-5",
                           "--json")
        assert code == 0
        assert json.loads(out)["nearly_integrable"] is True
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "d^2 != 0" in err

    def test_printed_forms_drop_what_is_zero_at_tol(self, capsys, tmp_path):
        # the verdict is t3 at --tol 1e-5; the 7-class part printed next to
        # it must not list the 1e-8 float residue the verdict ignored
        path = perturbed_tor23(tmp_path, "1e-7")
        code, out, _ = run(capsys, "classify", path, "--tol", "1e-5",
                           "--json")
        assert code == 0
        d = json.loads(out)
        assert d["torsion_class"] == "t3"
        assert d["torsion_7_part"] == {}
        assert d["torsion"] == {"1,2,4": "-2/3*sqrt3", "1,3,5": "-4/3*sqrt3"}


class TestCatalog:
    def test_list_names_every_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        for name in ("torsion-free", "six-dim-1", "six-dim-2", "six-dim-3",
                     "flat-char", "tor23", "tor27", "friedrich"):
            assert name + ":" in out

    def test_bare_catalog_lists_too(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "friedrich:" in out

    def test_direct_form_with_negative_value(self, capsys):
        code, out, _ = run(capsys, "catalog", "torsion-free", "--r115", "-1")
        assert code == 0
        d = json.loads(out)
        assert d["name"] == "torsion-free(-1)"
        assert d["catalog"]["params"]["r115"] == "-1"

    def test_build_form(self, capsys):
        code, out, _ = run(capsys, "catalog", "build", "tor23",
                           "--param", "rho=2", "--param", "delta=1")
        assert code == 0
        d = json.loads(out)
        assert d["catalog"]["entry"] == "tor23"
        assert d["catalog"]["params"]["rho"] == "2"

    def test_no_param_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "friedrich")
        assert code == 0
        assert json.loads(out)["catalog"]["entry"] == "friedrich"

    def test_unknown_entry_lists_valid_names(self, capsys):
        code, _, err = run(capsys, "catalog", "nosuch")
        assert code == 1
        assert "unknown catalog entry" in err
        assert "friedrich" in err and "tor27" in err

    def test_dangling_flag_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "catalog", "tor23", "--rho")
        assert code == 1
        assert "pairs" in err

    def test_bad_build_syntax(self, capsys):
        code, _, err = run(capsys, "catalog", "build", "tor23", "rho=2")
        assert code == 1
        assert "--param" in err

    def test_emitted_model_round_trips_through_classify(self, capsys,
                                                        tmp_path):
        code, out, _ = run(capsys, "catalog", "six-dim-2",
                           "--t1", "1", "--t2", "2")
        assert code == 0
        path = tmp_path / "six22.json"
        path.write_text(out)
        code, out, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["catalog"]["all_ok"] is True

    def test_unknown_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "catalog", "tor23", "--bogus", "1")
        assert code == 1
        assert "bogus" in err


class TestCr:
    def test_integrable_model(self, capsys, tor23_file):
        code, out, _ = run(capsys, "cr", tor23_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["integrable"] is True
        assert d["max_residual"] == 0.0
        assert d["predicted_integrable"] is True
        assert d["prediction_matches"] is True
        assert d["sampled_max_residual"] < 1e-9

    def test_non_integrable_model(self, capsys, tor27_file):
        code, out, _ = run(capsys, "cr", tor27_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["integrable"] is False
        assert d["max_residual"] > 0.5
        assert d["prediction_matches"] is True

    def test_alternate_structure(self, capsys, tor23_file):
        code, out, _ = run(capsys, "cr", tor23_file,
                           "--structure", "jm", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["structure"] == "jm"
        assert d["integrable"] is False
        assert "predicted_integrable" not in d

    def test_seed_changes_sample_but_not_verdict(self, capsys, tor23_file):
        _, out_a, _ = run(capsys, "cr", tor23_file, "--seed", "1", "--json")
        _, out_b, _ = run(capsys, "cr", tor23_file, "--seed", "2", "--json")
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["integrable"] == b["integrable"] is True
        assert a["seed"] != b["seed"]

    def test_not_nearly_integrable_exits_2(self, capsys, not_ni_file):
        code, _, _ = run(capsys, "cr", not_ni_file)
        assert code == 2

    def test_tol_flag_reaches_the_twistor_coframe(self, capsys, tmp_path):
        # classify accepts this model at --tol 1e-5; cr must check the
        # characteristic connection at the same tolerance
        path = perturbed_tor23(tmp_path, "5e-8")
        code, out, _ = run(capsys, "classify", path, "--tol", "1e-5",
                           "--json")
        assert code == 0
        assert json.loads(out)["nearly_integrable"] is True
        code, out, err = run(capsys, "cr", path, "--tol", "1e-5", "--json")
        assert code == 0, err
        d = json.loads(out)
        assert d["integrable"] is True
        assert d["prediction_matches"] is True

    def test_bad_structure_name_exits_1(self, capsys, tor23_file):
        code, _, _ = run(capsys, "cr", tor23_file, "--structure", "j5")
        assert code == 1

    def test_j0_request_builds_one_report(self, capsys, count_calls,
                                          tor23_file):
        # the forecast reuses the connection that the residuals computed
        import so3five.connection as connection

        stages = ("levi_civita", "split_connection", "curvature",
                  "torsion_type", "decompose_curvature")
        calls = count_calls(connection, stages)
        code, out, _ = run(capsys, "cr", tor23_file, "--json")
        assert code == 0
        assert json.loads(out)["prediction_matches"] is True
        assert calls == dict.fromkeys(stages, 1)

    @pytest.mark.parametrize("structure, computed", [
        ("jm", {}), ("j0", {"decompose_curvature": 1})])
    def test_cr_computes_only_what_it_prints(self, capsys, count_calls,
                                             tor23_file, structure, computed):
        import so3five.connection as connection

        calls = count_calls(connection, ("ricci", "_lc_riemann",
                                         "bianchi_check",
                                         "decompose_curvature"))
        code, _, _ = run(capsys, "cr", tor23_file, "--structure", structure)
        assert code == 0
        assert calls == computed


    def test_sub_machine_tolerance_builds_the_coframe_once(
            self, capsys, count_calls, tor23_file):
        # the residuals and the sampled check run at the clamped tolerance
        # 1e-12, not at the 1e-16 of the command line
        import so3five.twistor as twistor

        calls = count_calls(twistor, ("_connection_terms",))
        code, _, _ = run(capsys, "cr", tor23_file, "--structure", "jm",
                         "--tol", "1e-16")
        assert code == 0
        assert calls == {"_connection_terms": 1}


class TestOneAnalysis:
    """A command derives each geometry stage once, and the output of
    classify --json is pinned byte for byte."""

    def test_classify_runs_each_stage_once(self, capsys, count_calls,
                                           tor23_file):
        import so3five.connection as connection

        stages = ("levi_civita", "split_connection", "curvature",
                  "_lc_riemann", "bianchi_check", "decompose_curvature")
        calls = count_calls(connection, stages)
        code, out, _ = run(capsys, "classify", tor23_file, "--json")
        assert code == 0
        assert json.loads(out)["catalog"]["all_ok"]
        assert calls == dict.fromkeys(stages, 1)

    @pytest.mark.parametrize("pinned, entry, params", [
        ("tor23_rho1", "tor23", {"rho": "1", "eps": "1", "delta": "1"}),
        ("six_dim_2_t1_1_t2_1", "six-dim-2", {"t1": "1", "t2": "1"}),
        ("torsion_free_r115_1", "torsion-free", {"r115": "1"}),
        # float input: the coefficients of tor27 at phi = 0.7 are inexact
        ("tor27_rho1_phi0.7", "tor27", {"rho": "1", "phi": "0.7"}),
    ])
    def test_classify_json_is_pinned(self, capsys, tmp_path, pinned, entry,
                                     params):
        from so3five.catalog import entry_json
        path = tmp_path / "model.json"
        path.write_text(json.dumps(entry_json(entry, params)))
        code, out, _ = run(capsys, "classify", str(path), "--json",
                           "--tol", "1e-9")
        assert code == 0
        assert out == (DATA / f"classify_{pinned}.json").read_text()

    @pytest.mark.parametrize("structure", ["j0", "j0m", "jm", "jmm"])
    @pytest.mark.parametrize("pinned, entry, params", [
        ("tor23_rho1", "tor23", {"rho": "1", "eps": "1", "delta": "1"}),
        ("torsion_free_r115_1", "torsion-free", {"r115": "1"}),
    ])
    def test_cr_json_is_pinned(self, capsys, tmp_path, pinned, entry, params,
                               structure):
        # the sampled residuals are float sums over the monomials of each
        # fiber function, so the pins also fix the order of that sum
        from so3five.catalog import entry_json
        path = tmp_path / "model.json"
        path.write_text(json.dumps(entry_json(entry, params)))
        code, out, _ = run(capsys, "cr", str(path), "--structure", structure,
                           "--json", "--tol", "1e-9")
        assert code == 0
        assert out == (DATA / f"cr_{structure}_{pinned}.json").read_text()

    def test_cr_json_on_float_input_is_pinned(self, capsys, tmp_path):
        from so3five.catalog import entry_json
        path = tmp_path / "model.json"
        path.write_text(json.dumps(entry_json("tor27", {"rho": "1",
                                                        "phi": "0.7"})))
        code, out, _ = run(capsys, "cr", str(path), "--structure", "j0",
                           "--json", "--tol", "1e-9")
        assert code == 0
        assert out == (DATA / "cr_j0_tor27_rho1_phi0.7.json").read_text()


class TestDecomposeTorsion:
    def test_pure_7_class(self, capsys, tor27_file):
        code, out, _ = run(capsys, "decompose-torsion", tor27_file)
        assert code == 0
        assert "class: pure 7-class" in out
        assert "3-class part (dual 2-form): 0" in out

    def test_json_shape(self, capsys, tor23_file):
        code, out, _ = run(capsys, "decompose-torsion", tor23_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["torsion_class"] == "t3"
        assert d["torsion_7_part"] == {}
        assert d["coclosed"] is True

    def test_zero_torsion(self, capsys, tmp_path):
        from so3five.catalog import entry_json
        path = tmp_path / "tf.json"
        path.write_text(json.dumps(entry_json("torsion-free",
                                              {"r115": "1"})))
        code, out, _ = run(capsys, "decompose-torsion", str(path))
        assert code == 0
        assert "class: zero" in out

    def test_not_ni_exits_2(self, capsys, not_ni_file):
        code, _, _ = run(capsys, "decompose-torsion", not_ni_file)
        assert code == 2

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    @pytest.mark.parametrize("pinned", ["tor23_rho1", "perturbed_tor23"])
    def test_output_is_pinned(self, capsys, tmp_path, tor23_file, pinned,
                              fmt):
        # tor23 (rho=1, eps=1, delta=1), and the same with 1e-7 e2^e3 added
        # to d(e1), read at --tol 1e-5
        argv = [tor23_file] if pinned == "tor23_rho1" else \
            [perturbed_tor23(tmp_path, "1e-7"), "--tol", "1e-5"]
        if fmt == "json":
            argv.append("--json")
        code, out, _ = run(capsys, "decompose-torsion", *argv)
        assert code == 0
        assert out == (DATA / f"decompose_torsion_{pinned}.{fmt}").read_text()


def assert_pinned_selftest(out, pinned):
    want = (DATA / pinned).read_text()
    got, found = ACCEPTANCE_04.subn(r"\1]", out)
    assert found == 1
    assert got == ACCEPTANCE_04.sub(r"\1]", want)


def count_coframe_builds(monkeypatch):
    """Record each twistor_coframe call that misses the coframe kept in
    the analysis."""
    import so3five.twistor as twistor
    from so3five.connection import Analysis

    real = twistor.twistor_coframe
    signature = inspect.signature(real)
    builds = []

    def counting(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        model, at = call.arguments["model"], call.arguments["tol"]
        if ("twistor_coframe",) not in Analysis(model, at).stages:
            builds.append(model.name)
        return real(*args, **kwargs)

    monkeypatch.setattr(twistor, "twistor_coframe", counting)
    return builds


class TestSelftest:
    def test_deterministic_pass_with_all_rows(self, capsys, monkeypatch):
        # tor23, tor27, six-dim-2 and flat-char: every twistor check of a
        # model reads the sphere-bundle coframe kept at the row's tolerance
        builds = count_coframe_builds(monkeypatch)
        code_a, out_a, _ = run(capsys, "selftest", "--seed", "7")
        assert len(builds) == 4, builds
        code_b, out_b, _ = run(capsys, "selftest", "--seed", "7")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "23/23 checks passed" in out_a
        assert "FAIL" not in out_a
        for k in range(1, 13):
            assert f"acceptance-{k:02d}" in out_a
        assert_pinned_selftest(out_a, "selftest_seed_7.txt")

    def test_seed_10_is_pinned_with_its_residual(self, capsys):
        # all of it, the acceptance-04 residual too: the last digit there
        # moves with the order in which the rotated frame's terms are
        # summed (at seeds 0 and 7 it does not)
        code, out, _ = run(capsys, "selftest", "--seed", "10")
        assert code == 0
        assert out == (DATA / "selftest_seed_10.txt").read_text()

    def test_type_table_reads_only_types(self, count_calls):
        # the torsion class and the curvature components, not the Ricci
        # tensors or the Bianchi residuals
        import so3five.connection as connection

        from so3five.cli import _selftest_table
        table = {name: check for name, check, _ in _selftest_table(0, 1e-9)}
        calls = count_calls(connection, ("ricci", "_lc_riemann",
                                         "bianchi_check",
                                         "decompose_curvature"))
        assert table["acceptance-07 type table"]() is True
        assert calls == {"decompose_curvature": 6}

    def test_sub_machine_tolerance_flagged(self, capsys):
        code, out, _ = run(capsys, "selftest", "--tol", "1e-16")
        assert code == 1
        assert "FAIL (tolerance)" in out
        assert "tolerance-limited" in out
        assert_pinned_selftest(out, "selftest_tol_1e-16.txt")

    def test_twistor_rows_use_the_tolerance(self, capsys, monkeypatch):
        # cli imports cr_residuals by name, so the wrapper goes into both
        # namespaces
        import so3five.cli as cli
        import so3five.twistor as twistor

        real = twistor.cr_residuals
        signature = inspect.signature(real)
        tols = []

        def recording(*args, **kwargs):
            tols.append(signature.bind(*args, **kwargs).arguments.get("tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(twistor, "cr_residuals", recording)
        monkeypatch.setattr(cli, "cr_residuals", recording)
        builds = count_coframe_builds(monkeypatch)
        code, out, _ = run(capsys, "selftest", "--tol", "1e-10")
        assert code == 0
        assert "23/23 checks passed" in out
        assert tols and all(t == 1e-10 for t in tols)
        assert len(builds) == 4, builds


class TestToleranceSource:
    """SO3FIVE_TOL, read when main runs, and --tol are one setting."""

    @pytest.mark.parametrize("command", ["classify", "cr",
                                         "decompose-torsion"])
    def test_global_and_flag_print_the_same(self, capsys, monkeypatch,
                                            tmp_path, command):
        path = perturbed_tor23(tmp_path, "1e-7")
        monkeypatch.setenv("SO3FIVE_TOL", "1e-5")
        by_env = run(capsys, command, path, "--json")
        monkeypatch.delenv("SO3FIVE_TOL")
        by_flag = run(capsys, command, path, "--json", "--tol", "1e-5")
        assert by_env == by_flag
        assert by_flag[0] == 0

    def test_selftest_at_the_global_prints_the_flag_pin(self, capsys,
                                                        monkeypatch):
        # the pin is `selftest --tol 1e-16`, as in TestSelftest
        monkeypatch.setenv("SO3FIVE_TOL", "1e-16")
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert_pinned_selftest(out, "selftest_tol_1e-16.txt")

    @pytest.mark.parametrize("env, flag", [
        ("abc", None), ("nan", None), ("-1", None), ("inf", None),
        (None, "nan"), (None, "-1"), (None, "inf"), ("abc", "-1e-9")])
    def test_a_bad_tolerance_exits_1_with_one_line(self, capsys, monkeypatch,
                                                   tor23_file, env, flag):
        monkeypatch.delenv("SO3FIVE_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("SO3FIVE_TOL", env)
        argv = ["classify", tor23_file]
        if flag is not None:
            argv.append(f"--tol={flag}")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert ("--tol" if flag is not None else "SO3FIVE_TOL") in err

    def test_a_good_flag_wins_over_a_bad_variable(self, capsys, monkeypatch,
                                                  tor23_file):
        monkeypatch.setenv("SO3FIVE_TOL", "abc")
        code, _, err = run(capsys, "classify", tor23_file, "--tol", "1e-9")
        assert code == 0, err


class TestParser:
    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "nosuch-command")
        assert code == 1

    def test_no_arguments_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "classify" in out and "selftest" in out

    def test_the_kept_parser_carries_nothing_between_calls(self, capsys,
                                                           tor23_file):
        # main builds its parser on the first call and keeps it: a usage
        # error, a classify and a catalog listing in one process print what
        # three fresh processes print
        import so3five
        from so3five import cli
        requests = [("classify", tor23_file, "--no-such-flag"),
                    ("classify", tor23_file, "--json"), ("catalog",)]
        cli._build_parser.cache_clear()
        here = [run(capsys, *argv) for argv in requests]
        assert cli._build_parser.cache_info().misses == 1
        pkg_root = os.path.dirname(os.path.dirname(so3five.__file__))
        env = dict(os.environ, PYTHONPATH=pkg_root,
                   PYTHONDONTWRITEBYTECODE="1")
        fresh = []
        for argv in requests:
            p = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from so3five.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            fresh.append((p.returncode, p.stdout, p.stderr))
        assert [code for code, _, _ in here] == [1, 0, 0]
        assert here == fresh


def test_importing_the_cli_loads_no_numpy():
    # only frame adaptation (selftest) uses numpy, and it imports it there
    import so3five

    pkg_root = os.path.dirname(os.path.dirname(so3five.__file__))
    env = dict(os.environ, PYTHONPATH=pkg_root)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, so3five.cli; print(sorted(m for m in sys.modules "
         "if m == 'numpy' or m.startswith('numpy.')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
