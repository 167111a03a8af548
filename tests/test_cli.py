"""End-to-end checks of the command-line interface.

Every invocation goes through main(argv) in-process so the exit code and
the captured output are both visible to the assertions.
"""

import json

import pytest

from so3five.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_structure_name_exits_1(self, capsys, tor23_file):
        code, _, _ = run(capsys, "cr", tor23_file, "--structure", "j5")
        assert code == 1

    def test_j0_request_builds_one_report(self, capsys, monkeypatch,
                                          tor23_file):
        import so3five.cli as cli
        import so3five.twistor as twistor

        calls = []

        def counting(build):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_report", counting(cli.build_report))
        monkeypatch.setattr(twistor, "build_report",
                            counting(twistor.build_report))
        code, out, _ = run(capsys, "cr", tor23_file, "--json")
        assert code == 0
        assert json.loads(out)["prediction_matches"] is True
        assert len(calls) == 1


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


class TestSelftest:
    def test_deterministic_pass_with_all_rows(self, capsys):
        code_a, out_a, _ = run(capsys, "selftest", "--seed", "7")
        code_b, out_b, _ = run(capsys, "selftest", "--seed", "7")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "23/23 checks passed" in out_a
        assert "FAIL" not in out_a
        for k in range(1, 13):
            assert f"acceptance-{k:02d}" in out_a

    def test_sub_machine_tolerance_flagged(self, capsys):
        code, out, _ = run(capsys, "selftest", "--tol", "1e-16")
        assert code == 1
        assert "FAIL (tolerance)" in out
        assert "tolerance-limited" in out


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
