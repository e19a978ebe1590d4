import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import symentropy as se
from symentropy import cli, harness
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

    @pytest.mark.parametrize("tol_sigma", [0.0, math.nan, math.inf])
    def test_tol_sigma_positive(self, tol_sigma):
        with pytest.raises(ConfigError, match="tol-sigma"):
            RunConfig(command="verify", tol_sigma=tol_sigma)

    def test_format_validated(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(command="verify", out_format="yaml")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            RunConfig(command="prove")

    @pytest.mark.parametrize(
        "argv",
        [
            ["debruijn", "--law", "builtin:gaussian-iid-n1", "--nodes", str(cli.MAX_NODES + 1)],
            ["calibrate", "--nodes", str(cli.MAX_NODES + 1)],
            ["scan", "--law", "builtin:gaussian-iid-n2",
             "--resolution", str(cli.MAX_RESOLUTION + 1)],
        ],
        ids=["debruijn-nodes", "calibrate-nodes", "scan-resolution"],
    )
    def test_size_above_its_bound_exits_2_before_running(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the command ran"))
        assert main(argv) == 2
        assert "must be in [" in capsys.readouterr().err

    def test_size_at_its_bound_is_accepted(self):
        config = RunConfig(command="scan", nodes=cli.MAX_NODES, resolution=cli.MAX_RESOLUTION)
        assert (config.nodes, config.resolution) == (cli.MAX_NODES, cli.MAX_RESOLUTION)


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

    def test_far_narrow_components_exit_one(self, tmp_path):
        # every panel resolution misses part of the peaks at +-100: the
        # quadrature's mass certificate fails and the verdict is inconclusive
        law_file = tmp_path / "narrow.json"
        law_file.write_text(
            se.mixture_to_json(se.bimodal_product(3, separation=100.0, var=1e-6))
        )
        status, text = invoke(tmp_path, "verify", "--law", str(law_file))
        assert status == 1
        payload = json.loads(text)
        assert payload["verdict"] == "inconclusive"
        assert payload["sigma"] == math.inf

    def test_hidden_asymmetric_component_exits_2(self, tmp_path, capsys):
        # symmetric near the origin; only a 1e-9-weight component at (60, 0) breaks it
        law_file = tmp_path / "hidden.json"
        law_file.write_text(
            se.mixture_to_json(
                se.make_gaussian_mixture(
                    [(1.0, [0.0, 0.0], np.eye(2)), (1e-9, [60.0, 0.0], np.eye(2))]
                )
            )
        )
        status, text = invoke(tmp_path, "verify", "--law", str(law_file), "--samples", "1000")
        assert status == 2 and text is None
        assert "coordinate(s) [0]" in capsys.readouterr().err

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
# smallest eigenvalue 6.9e-9 by eigvalsh, yet numpy finds no Cholesky factor
NO_CHOLESKY = [
    [150039176.136264, -11600303.514384, -147416457.828324],
    [-11600303.514384, 896879.599054, 11397528.225194],
    [-147416457.828324, 11397528.225194, 144839586.824082],
]
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
    # dim must be a JSON integer, not a bool, a float or a string
    "dim-true": '{"dim": true, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}',
    "dim-float": '{"dim": 1.9, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}',
    "dim-string": '{"dim": "1", "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}',
    "dim-overflow": '{"dim": 1e400, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}',
    "dim-513": json.dumps(
        {
            "dim": 513,
            "components": [
                {"weight": 1.0, "mean": [0.0] * 513, "cov": np.eye(513).tolist()}
            ],
        }
    ),
    "not-pd": '{"dim": 2, "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}]}',
    # past the eigenvalue floor, but without a Cholesky factor
    "no-cholesky": json.dumps(
        {"dim": 3, "components": [{"weight": 1.0, "mean": [0.0] * 3, "cov": NO_CHOLESKY}]}
    ),
    # every weight, mean and covariance entry must be a JSON number
    "weight-string": '{"dim": 1, "components": [{"weight": "1.0", "mean": [0.0], "cov": [[1.0]]}]}',
    "weight-bool": '{"dim": 1, "components": [{"weight": true, "mean": [0.0], "cov": [[1.0]]}]}',
    "cov-bool": '{"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[true]]}]}',
    "mean-strings": json.dumps(
        {
            "dim": 1,
            "components": [
                {"weight": 0.5, "mean": [m], "cov": [[1.0]]} for m in ("-1", "1")
            ],
        }
    ),
    "mean-null": '{"dim": 1, "components": [{"weight": 1.0, "mean": [null], "cov": [[1.0]]}]}',
    "ragged-cov": '{"dim": 2, "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0], [0.0, 1.0]]}]}',
    "cov-shape": '{"dim": 2, "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0]]}]}',
    # each weight is finite, but their sum overflows
    "weight-sum-overflow": json.dumps(
        {
            "dim": 1,
            "components": [
                {"weight": 1e308, "mean": [m], "cov": [[1.0]]} for m in (-1.0, 1.0)
            ],
        }
    ),
}
# Well-shaped law files that make_gaussian_mixture rejects; every other
# file in BAD_LAWS fails to parse as a mixture.
INVALID_LAWS = (
    "nan-cov", "inf-mean", "dim-513", "not-pd", "no-cholesky", "weight-sum-overflow"
)


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
    if name in INVALID_LAWS:
        assert f"law: invalid mixture file {law}: component 0: " in err
    elif not name.startswith("builtin:") and BAD_LAWS[name] is not None:
        assert f"law: cannot parse mixture file {law}: " in err


def test_weight_sum_overflow_exits_2_in_debruijn(tmp_path, capsys):
    path = tmp_path / "weights.json"
    path.write_text(BAD_LAWS["weight-sum-overflow"])
    status = main(["debruijn", "--law", str(path), "--samples", "200", "--nodes", "16"])
    err = capsys.readouterr().err
    assert status == 2
    assert f"law: invalid mixture file {path}: component 0: " in err
    assert "Traceback" not in err


def test_import_and_verify_run_without_scipy(tmp_path):
    # scipy serves the kNN estimator alone; a fresh interpreter that imports
    # the package and runs a verify and a two-row kdim (the 2-D quadrature)
    # must not load it.
    code = (
        "import sys, symentropy, symentropy.cli\n"
        "status = symentropy.cli.main(['verify', '--law', 'builtin:gaussian-iid-n3',"
        " '--samples', '1000', '--out', sys.argv[1]])\n"
        "status = max(status, symentropy.cli.main(['kdim', '--law', 'builtin:bimodal-product-n3',"
        " '--k', '2', '--n', '3', '--method', 'frequency_pairs', '--out', sys.argv[1]]))\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(se.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    status, loaded = done.stdout.split(" ", 1)
    assert status in ("0", "1")
    assert loaded.strip() == "[]"


def test_reused_parser_matches_fresh_processes(tmp_path):
    # main builds its parser once per process: two calls with different
    # subcommands and options must report exactly what fresh processes do
    runs = [
        ["kdim", "--law", "builtin:bimodal-product-n3", "--k", "2", "--n", "3",
         "--method", "frequency_pairs", "--seed", "5", "--tol-sigma", "4"],
        ["verify", "--law", "builtin:bimodal-product-n3"],
    ]
    src = os.path.dirname(os.path.dirname(se.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for k, argv in enumerate(runs):
        fresh = tmp_path / f"fresh{k}.json"
        done = subprocess.run(
            [sys.executable, "-m", "symentropy", *argv, "--out", str(fresh)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        reused = tmp_path / f"reused{k}.json"
        assert main([*argv, "--out", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()


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


# The options each subcommand reads besides --seed, --samples, --tol-sigma
# and --out, which every subcommand takes.
READ_OPTIONS = {
    "verify": {"--law"},
    "equality-demo": {"--law"},
    "probe": {"--law"},
    "kdim": {"--law", "--k", "--n", "--method"},
    "debruijn": {"--law", "--nodes"},
    "scan": {"--law", "--format", "--resolution"},
    "counterexample": set(),
    "calibrate": {"--nodes"},
}
OPTION_VALUES = {
    "--law": "builtin:gaussian-iid-n1",
    "--seed": "1",
    "--samples": "100",
    "--tol-sigma": "3",
    "--out": "report.json",
    "--format": "json",
    "--resolution": "5",
    "--k": "1",
    "--n": "1",
    "--method": "hadamard",
    "--nodes": "16",
}


def test_each_subcommand_accepts_only_the_options_it_reads(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda config: 0)
    accepted = set()
    for command in READ_OPTIONS:
        for option, value in OPTION_VALUES.items():
            try:
                status = main([command, option, value])
            except SystemExit as exc:  # argparse rejects the option
                status = exc.code
            assert status in (0, 2)
            if status == 0:
                accepted.add((command, option))
            else:
                assert "unrecognized arguments" in capsys.readouterr().err
    common = {"--seed", "--samples", "--tol-sigma", "--out"}
    assert accepted == {(c, o) for c, read in READ_OPTIONS.items() for o in read | common}
    assert len(accepted) == 45


def _workloads():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_argv_parse(monkeypatch):
    # every CLI operation of every benchmark workload still parses; the
    # Fisher-lemma operation calls the library and runs as it is
    workloads = _workloads()
    configs = []
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or 0)
    for name in workloads.WORKLOADS:
        ctx = workloads.prepare(name, 0)
        for op in ctx.ops:
            status, _ = op.call(ctx)
            assert status in (None, 0), (name, op.name)
    assert {config.command for config in configs} == set(READ_OPTIONS) - {"debruijn"}


@pytest.mark.parametrize("name", ["verify-n8", "statements-n3"])
def test_benchmark_operations_build_no_density_kernel(name, kernel_builds):
    # every verdict of both workloads is deterministic: no law is sampled or
    # evaluated, so none builds the tables of its density kernel
    workloads = _workloads()
    ctx = workloads.prepare(name, 0)
    for op in ctx.ops:
        status, _ = op.call(ctx)
        assert status in (None, 0) and kernel_builds == [], op.name


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

    def test_dimension_above_64_exits_two(self, tmp_path, capsys):
        status, text = invoke(tmp_path, "probe", "--law", "builtin:gaussian-iid-n65")
        assert (status, text) == (2, None)
        assert "probe needs 3 <= n <= 64 (got 65)" in capsys.readouterr().err
        status, text = invoke(tmp_path, "probe", "--law", "builtin:gaussian-iid-n64")
        assert status == 0
        assert json.loads(text)["independence_failures"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--law", "builtin:bimodal-product-n3"],
        ["probe", "--law", "builtin:gaussian-iid-n5"],
        ["equality-demo", "--law", "builtin:bimodal-product-n1"],
    ],
)
def test_probe_and_equality_demo_draw_nothing(argv, tmp_path, monkeypatch):
    # independence is decided from the components; product laws need no
    # draws for h(X) either
    def forbidden(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    monkeypatch.setattr(se.GaussianMixture, "sample", forbidden)
    status, text = invoke(tmp_path, *argv)
    assert status == 0
    assert json.loads(text)["command"] == argv[0]


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
        # a 1-D law is one block: its reference is its own line rule
        assert payload["reference"]["method"] == "quadrature_1d"
        assert payload["reference"]["count"] == 257
        assert payload["z"] <= 3.0

    def test_far_narrow_reference_exits_one(self, tmp_path):
        # the reference quadrature misses the peaks at +-100 and reports
        # stderr inf; a check with a non-finite sigma never passes
        law_file = tmp_path / "narrow.json"
        law_file.write_text(se.mixture_to_json(se.bimodal_1d(separation=100.0, var=1e-6)))
        status, text = invoke(
            tmp_path, "debruijn", "--law", str(law_file), "--samples", "2000", "--nodes", "16"
        )
        assert status == 1
        payload = json.loads(text)
        assert payload["reference"]["stderr"] == math.inf
        # no z measures agreement against an infinite sigma
        assert math.isnan(payload["z"])

    def test_pair_checks_against_the_2d_quadrature(self, tmp_path):
        # the structure rule gives a non-product 2-D law the reference of
        # entropy_quadrature_2d, and the same agreement rule as a 1-D law
        # decides the exit status
        status, text = invoke(tmp_path, "debruijn", "--law", "builtin:rotated-bimodal")
        assert status == 0
        payload = json.loads(text)
        reference = se.entropy_quadrature_2d(se.rotated_bimodal())
        assert payload["reference"] == json.loads(json.dumps(asdict(reference)))
        est = payload["estimate"]
        assert est["count"] == 0
        assert abs(est["value"] - reference.value) <= math.hypot(est["stderr"], reference.stderr)

    def test_narrow_gaussian_passes_by_the_half_resolution_sum(self, tmp_path):
        # no node draws, so the change from the 8-node sum is the only error
        # term: it must cover the 16-node rule's error on a narrow law
        law_file = tmp_path / "narrow-gaussian.json"
        law_file.write_text(se.mixture_to_json(se.gaussian_iid(1, 0.01)))
        status, text = invoke(tmp_path, "debruijn", "--law", str(law_file), "--nodes", "16")
        assert status == 0
        payload = json.loads(text)
        assert payload["estimate"]["count"] == 0
        assert payload["estimate"]["stderr"] > 1e-3

    def test_far_narrow_pair_reference_exits_one(self, tmp_path):
        # the 2-D grid misses the peaks at +-100 and fails its mass certificate
        law_file = tmp_path / "narrow-pair.json"
        law = se.rotated_iid_construction(se.bimodal_1d(separation=100.0, var=1e-6))
        law_file.write_text(se.mixture_to_json(law))
        status, text = invoke(
            tmp_path, "debruijn", "--law", str(law_file), "--samples", "2000", "--nodes", "16"
        )
        assert status == 1
        payload = json.loads(text)
        assert payload["reference"]["stderr"] == math.inf
        assert math.isnan(payload["z"])

    @pytest.mark.parametrize("name", ["gaussian-iid-n3", "bimodal-product-n3"])
    def test_multivariate_checks_against_the_structure_rule(self, tmp_path, name):
        # a product law with n >= 3 has h(X) as the sum of its marginal
        # quadratures, drawn from no stream
        status, text = invoke(
            tmp_path, "debruijn", "--law", f"builtin:{name}",
            "--samples", "2000", "--nodes", "16",
        )
        assert status == 0
        payload = json.loads(text)
        reference = se.entropy_decomposed(se.builtin_law(name), 2000, 0)
        assert payload["reference"] == json.loads(json.dumps(asdict(reference)))
        assert payload["reference"]["count"] == 0
        assert payload["z"] <= 3.0

    def test_far_narrow_n3_reference_exits_one(self, tmp_path):
        # the marginal quadratures miss the peaks at +-100: the reference
        # stderr is inf, so the check is inconclusive, not a pass
        law_file = tmp_path / "narrow-n3.json"
        law_file.write_text(se.mixture_to_json(se.bimodal_product(3, separation=100.0, var=1e-6)))
        status, text = invoke(
            tmp_path, "debruijn", "--law", str(law_file), "--samples", "2000", "--nodes", "16"
        )
        assert status == 1
        payload = json.loads(text)
        assert payload["reference"]["stderr"] == math.inf
        assert math.isnan(payload["z"])

    def test_drawn_reference_shares_no_stream_with_the_nodes(self, tmp_path, stream_audit):
        # a law with n >= 3 that is one block draws its total correlation,
        # from streams that no de Bruijn node draws from
        cov = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]
        law = se.symmetrize(se.make_gaussian_mixture([(1.0, [1.0, 0.5, 0.25], cov)]))
        assert se.coordinate_marginals(law)[1] == ((0, 1, 2),)
        law_file = tmp_path / "correlated.json"
        law_file.write_text(se.mixture_to_json(law))
        status, text = invoke(
            tmp_path, "debruijn", "--law", str(law_file), "--samples", "200", "--nodes", "16"
        )
        assert status in (0, 1)
        assert json.loads(text)["reference"]["count"] == 200
        assert {call[0] for call in stream_audit.calls} == {"mc_score", "mc_total_correlation"}
        nodes = set(stream_audit.streams("mc_score"))
        assert not set(stream_audit.streams("mc_total_correlation")) & nodes


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

    def test_entry_without_a_finite_sigma_fails_and_leaves_max_z_unknown(
        self, tmp_path, monkeypatch
    ):
        def unconverged(law):
            return se.Estimate(0.0, math.inf, "quadrature_1d", 512)

        monkeypatch.setattr(cli, "entropy_quadrature_1d", unconverged)
        status, text = invoke(tmp_path, "calibrate", "--samples", "2000", "--nodes", "16")
        assert status == 1
        payload = json.loads(text)
        assert payload["verdict"] == "fail"
        assert math.isnan(payload["max_abs_z"])
        assert sum(math.isnan(e["z"]) for e in payload["entries"]) == 2

    def test_negative_seed_exits_without_a_traceback(self, tmp_path, capsys):
        argv = ("calibrate", "--seed", "-2", "--samples", "200", "--nodes", "16")
        first = invoke(tmp_path, *argv)
        assert first[0] in (0, 1)
        assert invoke(tmp_path, *argv) == first
        assert capsys.readouterr().err == ""

    def test_verdict_stable_across_seeds(self, tmp_path):
        # frozen 10-seed window; individual seeds can land z slightly over
        # the band by chance, which is a property of the 3-sigma rule itself
        for seed in range(10, 20):
            status, _ = invoke(
                tmp_path, "calibrate", "--samples", "2000", "--nodes", "16", "--seed", str(seed)
            )
            assert status == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["debruijn", "--law", "builtin:bimodal-product-n1", "--samples", "2000", "--nodes", "16"],
        ["calibrate", "--samples", "2000", "--nodes", "16"],
    ],
)
def test_debruijn_and_calibrate_exit_by_the_harness_rule(argv, tmp_path, monkeypatch):
    # both pass at these budgets; the verdict rule the statements use decides
    assert invoke(tmp_path, *argv)[0] == 0
    monkeypatch.setattr(harness, "_verdict", lambda margin, sigma, tol_sigma: harness.VIOLATED)
    assert invoke(tmp_path, *argv)[0] == 1


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
