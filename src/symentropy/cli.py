"""Batch command-line front end.

Subcommands run the verification suites on a builtin or file-based law and
write JSON/CSV reports.  Exit status: 0 when every produced verdict is in
the expected class for the command, 1 on a verdict failure, 2 on a
configuration or parse error.  Identical invocations produce byte-identical
reports; every report embeds the seed, the sample budget, and the law
fingerprint.

A JSON report is the library's report dataclass, serialised by
``dataclasses.asdict``, plus ``command``.  Only ``debruijn`` and
``calibrate`` are compositions built here, since no single library report
holds what they print.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from .bases import balanced_projection
from .errors import SymentropyError
from .estimators import entropy_knn, entropy_mc, entropy_quadrature_1d, fisher_mc
from .fixtures import builtin_law, gaussian_iid
from .harness import (
    HOLDS,
    HOLDS_WITH_EQUALITY,
    VIOLATED,
    Budget,
    asymmetric_counterexample,
    direction_scan,
    equality_demo_n2,
    gaussianity_probe,
    verify_kdim,
    verify_main,
)
from .heat_flow import entropy_via_debruijn
from .mixtures import law_fingerprint, mixture_from_json

_PASSING = (HOLDS, HOLDS_WITH_EQUALITY)


@dataclass(frozen=True)
class RunConfig:
    """Validated batch-run configuration."""

    command: str
    law_path: str | None = None
    seed: int = Budget.seed
    samples: int = Budget.samples
    tol_sigma: float = Budget.tol_sigma
    out_format: str = "json"
    out_path: str | None = None
    resolution: int = 90
    k: int | None = None
    n: int | None = None
    method: str = "hadamard"
    nodes: int = 48

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(
                f"command: expected one of {tuple(_COMMANDS)} (got {self.command!r})"
            )
        if self.samples < 100:
            raise ConfigError(f"samples: must be >= 100 (got {self.samples})")
        if self.tol_sigma <= 0:
            raise ConfigError(f"tol-sigma: must be > 0 (got {self.tol_sigma})")
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"format: expected 'json' or 'csv' (got {self.out_format!r})")
        if self.resolution < 1:
            raise ConfigError(f"resolution: must be >= 1 (got {self.resolution})")
        if self.nodes < 16:
            raise ConfigError(f"nodes: must be >= 16 (got {self.nodes})")


class ConfigError(SymentropyError):
    """Invalid CLI configuration; maps to exit status 2."""


def _load_law(source):
    if source is None:
        raise ConfigError("law: required; use builtin:NAME or a mixture JSON path")
    if source.startswith("builtin:"):
        try:
            return builtin_law(source[len("builtin:"):])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        except SymentropyError:
            raise
        except ValueError as exc:
            raise ConfigError(f"law: {exc}") from exc
    if not os.path.exists(source):
        raise ConfigError(f"law: file not found: {source}")
    try:
        with open(source, "r", encoding="ascii") as fh:
            return mixture_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"law: cannot read mixture file {source}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"law: cannot parse mixture file {source}: {exc}") from exc


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".symentropy-")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config, text):
    if config.out_path:
        try:
            _write_atomic(config.out_path, text)
        except OSError as exc:
            raise ConfigError(f"out: cannot write {config.out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _budget(config):
    return Budget(samples=config.samples, seed=config.seed, tol_sigma=config.tol_sigma)


def _gaussian_battery(samples, seed, nodes):
    """Closed-form Gaussian calibration entries across the estimator stack."""
    entries = []

    def add(estimator, n, var, value, stderr, truth):
        z = abs(value - truth) / stderr if stderr > 0 else math.inf
        entries.append(
            {
                "estimator": estimator,
                "n": n,
                "var": var,
                "value": value,
                "truth": truth,
                "stderr": stderr,
                "z": z,
            }
        )

    for n in (1, 2):
        for var in (1.0, 4.0):
            law = gaussian_iid(n, var)
            h_truth = 0.5 * n * math.log(2.0 * math.pi * math.e * var)
            i_truth = n / var
            est = entropy_mc(law, samples, seed)
            add("entropy_mc", n, var, est.value, est.stderr, h_truth)
            if n == 1:
                est = entropy_quadrature_1d(law)
                add("entropy_quadrature_1d", n, var, est.value, est.stderr, h_truth)
            est = entropy_knn(law.sample(samples, seed + 1))
            add("entropy_knn", n, var, est.value, est.stderr, h_truth)
            fe = fisher_mc(law, samples, seed)
            add("fisher_mc", n, var, fe.value, fe.stderr, i_truth)
            est = entropy_via_debruijn(law, nodes=max(16, nodes // 2), count=samples, seed=seed)
            add("entropy_via_debruijn", n, var, est.value, est.stderr, h_truth)
    return entries


def calibrate(config):
    """Run the Gaussian calibration battery; it passes iff max |z| <= tol_sigma."""
    entries = _gaussian_battery(config.samples, config.seed, config.nodes)
    max_z = max(e["z"] for e in entries)
    report = {
        "seed": config.seed,
        "budget": config.samples,
        "tol_sigma": config.tol_sigma,
        "entries": entries,
        "max_abs_z": max_z,
        "verdict": "pass" if max_z <= config.tol_sigma else "fail",
    }
    return report, max_z <= config.tol_sigma


def _verify(config):
    return _statement(verify_main(_load_law(config.law_path), _budget(config)))


def _statement(report, **extra):
    return {**asdict(report), **extra}, report.verdict in _PASSING


def _equality_demo(config):
    law = _load_law(config.law_path)
    if law.dim != 1:
        raise ConfigError(f"law: equality-demo needs a 1-D base law (got dim {law.dim})")
    report = equality_demo_n2(law, _budget(config))
    ok = (
        report.verdict == HOLDS_WITH_EQUALITY
        and report.independence.verdict
        and report.coordinate_symmetry.verdict
    )
    return asdict(report), ok


def _probe(config):
    report = gaussianity_probe(_load_law(config.law_path), _budget(config))
    return asdict(report), report.main.verdict in _PASSING


def _kdim(config):
    law = _load_law(config.law_path)
    if config.k is None or config.n is None:
        raise ConfigError("k/n: kdim requires --k and --n (1 <= k <= n)")
    if law.dim != config.n:
        raise ConfigError(f"n: law has dimension {law.dim}, projection expects n={config.n}")
    try:
        projection = balanced_projection(config.k, config.n, config.method)
    except SymentropyError as exc:
        raise ConfigError(str(exc)) from exc
    return _statement(verify_kdim(law, projection, _budget(config)), method=config.method)


def _debruijn(config):
    law = _load_law(config.law_path)
    est = entropy_via_debruijn(law, nodes=config.nodes, count=config.samples, seed=config.seed)
    payload = {
        "estimate": asdict(est),
        "law_fingerprint": law_fingerprint(law),
        "seed": config.seed,
        "budget": config.samples,
        "nodes": config.nodes,
    }
    if law.dim != 1:
        return payload, True
    reference = entropy_quadrature_1d(law)
    z_den = math.hypot(est.stderr, reference.stderr)
    z = abs(est.value - reference.value) / z_den if z_den > 0 else math.inf
    payload["reference_quadrature"] = asdict(reference)
    payload["z"] = z
    return payload, z <= config.tol_sigma


def _scan(config):
    law = _load_law(config.law_path)
    report = direction_scan(law, resolution=config.resolution, budget=_budget(config))
    ok = all(row.verdict in _PASSING for row in report.rows)
    if config.out_format == "csv":
        return report.to_csv(), ok
    return asdict(report), ok


def _counterexample(config):
    report = asymmetric_counterexample()
    return asdict(report), report.verdict == VIOLATED


# Each handler returns (JSON payload or CSV text, whether the verdicts pass).
# ``calibrate`` is looked up at call time so that a patched module attribute
# is the one that runs.
_COMMANDS = {
    "verify": _verify,
    "equality-demo": _equality_demo,
    "probe": _probe,
    "kdim": _kdim,
    "debruijn": _debruijn,
    "scan": _scan,
    "counterexample": _counterexample,
    "calibrate": lambda config: calibrate(config),
}


def run(config):
    """Execute one batch command; returns the process exit status."""
    report, passed = _COMMANDS[config.command](config)
    if isinstance(report, dict):
        report = _canonical_json({**report, "command": config.command})
    _emit(config, report)
    return 0 if passed else 1


def _build_parser():
    # No option holds a default: one that is not given falls through to RunConfig.
    parser = argparse.ArgumentParser(
        prog="symentropy",
        description="Verify entropy lower bounds for symmetric random vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument(
            "--law", dest="law_path", metavar="LAW", help="builtin:NAME or mixture JSON path"
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tol-sigma", type=float)
        p.add_argument("--out", dest="out_path", metavar="OUT", help="report file (atomic write)")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"))
        p.add_argument("--resolution", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--method", choices=("hadamard", "frequency_pairs"))
        p.add_argument("--nodes", type=int)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except SymentropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
