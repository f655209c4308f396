import json
import os
import pathlib
import subprocess
import sys

import pytest

from bellbox.cli import main
from bellbox.models import get_fixture
from bellbox.report import build_report, render_machine
from bellbox.tables import SettingPair

FIXTURES = ("animal-acts", "vessels", "vessels-separated")

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_animal_acts_report(self, tmp_path, capsys):
        path = tmp_path / "aa.json"
        assert main(["export", "animal-acts", str(path)]) == 0
        code, out, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(float(doc["chsh"]["reference_combination"]) - 2.4197) <= 2e-3
        assert doc["zoo_class"] == "NonlocalNonMarginalBox1"

    def test_vessels_report(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        main(["export", "vessels", str(path)])
        capsys.readouterr()
        code, out, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["chsh"]["reference_combination"] == "4.000000"
        assert doc["zoo_class"] == "NonlocalNonMarginalBox2"
        assert doc["marginal_law"]["holds"] is False

    def test_uniform_tables(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
            "settings": ["AB", "AB'", "A'B", "A'B'"],
            "tables": {
                pair.label: {label: "0.25" for label in pair.outcome_labels}
                for pair in SettingPair
            },
            "metadata": {},
        }
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["chsh"]["reference_combination"] == "0.000000"
        assert parsed["zoo_class"] == "KolmogorovianCompatible"

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "line 1" in err

    def test_unnormalizable_table_exits_nonzero(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
            "settings": ["AB", "AB'", "A'B", "A'B'"],
            "tables": {
                pair.label: {label: "0.375" for label in pair.outcome_labels}
                for pair in SettingPair
            },
            "metadata": {},
        }
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "tables.AB" in err

    def test_extremal_box_reported_not_classified(self, tmp_path, capsys):
        tables = {
            "AB": {"A1B1": "0.0", "A1B2": "0.5", "A2B1": "0.5", "A2B2": "0.0"},
            "AB'": {"A1B'1": "0.5", "A1B'2": "0.0", "A2B'1": "0.0", "A2B'2": "0.5"},
            "A'B": {"A'1B1": "0.5", "A'1B2": "0.0", "A'2B1": "0.0", "A'2B2": "0.5"},
            "A'B'": {"A'1B'1": "0.5", "A'1B'2": "0.0", "A'2B'1": "0.0", "A'2B'2": "0.5"},
        }
        doc = {
            "version": 1,
            "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
            "settings": ["AB", "AB'", "A'B", "A'B'"],
            "tables": tables,
            "metadata": {},
        }
        path = tmp_path / "box.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["zoo_class"] is None
        assert "Tsirelson" in parsed["zoo_error"]


class TestModel:
    def test_vessels_text_report(self, capsys):
        code, out, _ = run(capsys, "model", "vessels")
        assert code == 0
        assert "verification (probabilities" in out
        assert "pass" in out
        assert out.count("entangled") >= 3

    def test_vessels_alt_flags(self, capsys):
        code, out, _ = run(capsys, "model", "vessels-alt", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        model = doc["model"]
        assert model["passed"] is True
        assert model["measurement_entangled"] == {
            "AB": True,
            "AB'": False,
            "A'B": False,
            "A'B'": False,
        }
        assert model["state_entangled"] is False
        assert model["chsh_from_model"] == "4.000000"

    def test_animal_acts_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "model", "animal-acts", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"]["residual_kind"] == "expectations"
        assert doc["model"]["passed"] is True
        assert doc["model"]["state_entangled"] is True

    def test_verification_failure_exits_nonzero(self, capsys):
        code, out, _ = run(
            capsys, "model", "animal-acts", "--tol", "1e-6", "--format", "machine"
        )
        assert code == 1
        assert json.loads(out)["model"]["passed"] is False

    def test_phases_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "model",
            "vessels",
            "--alpha", "1.25",
            "--beta", "-0.5",
            "--format", "machine",
        )
        assert code == 0
        assert json.loads(out)["model"]["chsh_from_model"] == "4.000000"

    def test_swapped_isomorphism(self, capsys):
        code, out, _ = run(
            capsys, "model", "vessels-alt", "--iso", "swapped", "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["model"]["iso"] == "swapped"
        assert doc["model"]["measurement_entangled"]["AB"] is True

    def test_separated_reports_data_only(self, capsys):
        code, out, _ = run(capsys, "model", "vessels-separated", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] is None
        assert doc["zoo_class"] == "KolmogorovianCompatible"
        assert doc["chsh"]["reference_combination"] == "2.000000"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol", "nan"),
            ("--tol", "-1"),
            ("--tol", "inf"),
            ("--normalize-tol", "nan"),
            ("--alpha", "nan"),
            ("--alpha", "inf"),
            ("--beta", "-inf"),
            ("--beta", "x"),
        ],
    )
    def test_invalid_number_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["model", "animal-acts", f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_unknown_model_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["model", "pr-box"])
        assert excinfo.value.code == 2


class TestExport:
    def test_vessels_file_contains_half(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        code, _, _ = run(capsys, "export", "vessels", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["tables"]["AB"]["A1B2"] == "0.5"

    def test_unwritable_destination(self, tmp_path, capsys):
        target = tmp_path / "is_a_dir"
        target.mkdir()
        code, _, err = run(capsys, "export", "vessels", str(target))
        assert code == 1
        assert "cannot write" in err

    @pytest.mark.parametrize("where", ["is_a_dir", "missing/v.json"])
    def test_cannot_write_message_is_that_of_open(self, tmp_path, capsys, where):
        target = tmp_path / where
        if where == "is_a_dir":
            target.mkdir()
        with pytest.raises(OSError) as opened:
            open(target, "w", encoding="utf-8")
        code, out, err = run(capsys, "export", "vessels", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: {opened.value}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_export_to_stdout_pipe_gives_the_file_bytes(self, tmp_path):
        path = tmp_path / "vs.json"
        assert main(["export", "vessels-separated", str(path)]) == 0
        # a fresh interpreter, its stdout a pipe
        piped = subprocess.run(
            [sys.executable, "-m", "bellbox.cli", "export", "vessels-separated", "/dev/stdout"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=False,
        )
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout == path.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_export_to_dev_null(self, capsys):
        assert run(capsys, "export", "vessels-separated", "/dev/null") == (0, "", "")

    def test_unknown_fixture_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "bell-state", "out.json"])
        assert excinfo.value.code == 2


class TestRoundTrip:
    def test_export_analyze_matches_direct_report(self, tmp_path, capsys):
        for name in FIXTURES:
            fixture = get_fixture(name)
            direct = render_machine(build_report(fixture.experiment))
            path = tmp_path / f"{name}.json"
            assert main(["export", name, str(path)]) == 0
            capsys.readouterr()
            code, out, _ = run(capsys, "analyze", "--format", "machine", str(path))
            assert code == 0
            assert out == direct, name

    def test_machine_output_is_deterministic(self, tmp_path, capsys):
        path = tmp_path / "aa.json"
        main(["export", "animal-acts", str(path)])
        capsys.readouterr()
        _, first, _ = run(capsys, "analyze", "--format", "machine", str(path))
        _, second, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert first == second


class TestSharedFlagPositions:
    def test_flags_accepted_before_subcommand(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        main(["export", "vessels", str(path)])
        capsys.readouterr()
        code, before, _ = run(capsys, "--format", "machine", "analyze", str(path))
        assert code == 0
        _, after, _ = run(capsys, "analyze", "--format", "machine", str(path))
        assert before == after

    def test_subcommand_flag_overrides_global(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        main(["export", "vessels", str(path)])
        capsys.readouterr()
        code, out, _ = run(
            capsys, "--format", "text", "analyze", "--format", "machine", str(path)
        )
        assert code == 0
        json.loads(out)  # the later, subcommand-level choice wins

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_invalid_normalize_tol_is_usage_error(self, tmp_path, capsys, value):
        # every row sums to 0.4: no finite tolerance >= 0 below 0.6 admits it
        doc = {
            "version": 1,
            "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
            "settings": ["AB", "AB'", "A'B", "A'B'"],
            "tables": {
                pair.label: {label: "0.1" for label in pair.outcome_labels}
                for pair in SettingPair
            },
            "metadata": {},
        }
        path = tmp_path / "light.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ["--normalize-tol", value, "analyze", str(path)],
            ["analyze", "--normalize-tol", value, str(path)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "argument --normalize-tol:" in capsys.readouterr().err

    def test_normalize_tol_in_global_position(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "sides": {"first": ["A", "A'"], "second": ["B", "B'"]},
            "settings": ["AB", "AB'", "A'B", "A'B'"],
            "tables": {
                pair.label: {label: "0.225" for label in pair.outcome_labels}
                for pair in SettingPair
            },
            "metadata": {},
        }
        path = tmp_path / "light.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 1
        code, _, _ = run(capsys, "--normalize-tol", "0.2", "analyze", str(path))
        assert code == 0
