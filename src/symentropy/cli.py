"""Batch command-line front end.

Subcommands run the verification suites on a builtin or file-based law and
write JSON/CSV reports.  Exit status: 0 when every produced verdict is in
the expected class for the command, 1 on a verdict failure, 2 on a
configuration or parse error.  Identical invocations produce byte-identical
reports; every report embeds the seed, the sample budget, and the law
fingerprint.

A JSON report is the library's report dataclass plus ``command``, encoded
with ``default=vars`` so that nested reports and estimates are their fields.
Only ``debruijn`` (an estimate against h(X) by the structure rule) and
``calibrate`` are compositions built here, since no single library report
holds what they print.
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .bases import balanced_projection
from .errors import DimensionMismatchError, SymentropyError
from .estimators import Estimate, entropy_decomposed, entropy_knn, entropy_mc
from .estimators import entropy_quadrature_1d, fisher_mc
from .fixtures import builtin_law, gaussian_iid
from .harness import (
    HOLDS,
    HOLDS_WITH_EQUALITY,
    VIOLATED,
    Budget,
    agreement,
    asymmetric_counterexample,
    direction_scan,
    equality_demo_n2,
    gaussianity_probe,
    verify_kdim,
    verify_main,
)
from .heat_flow import entropy_via_debruijn
from .mixtures import law_fingerprint, mixture_from_json
from .streams import split_seed

_PASSING = (HOLDS, HOLDS_WITH_EQUALITY)
# Largest --nodes and --resolution, which are sizes, not sample budgets:
# leggauss(1024) takes 0.2 s and 18 MB, and a 10,000-row scan of
# bimodal-product-n3 0.75 s and 28 MB (2-core host).
MAX_NODES = 1024
MAX_RESOLUTION = 10_000


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
        if not (math.isfinite(self.tol_sigma) and self.tol_sigma > 0):
            raise ConfigError(f"tol-sigma: must be finite and > 0 (got {self.tol_sigma})")
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"format: expected 'json' or 'csv' (got {self.out_format!r})")
        if not 1 <= self.resolution <= MAX_RESOLUTION:
            raise ConfigError(
                f"resolution: must be in [1, {MAX_RESOLUTION}] (got {self.resolution})"
            )
        if not 16 <= self.nodes <= MAX_NODES:
            raise ConfigError(f"nodes: must be in [16, {MAX_NODES}] (got {self.nodes})")


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
        # JSON, type and shape faults are parse errors; a well-shaped law that
        # make_gaussian_mixture rejects (dimension cap, NaN, not PD) is invalid
        invalid = isinstance(exc, SymentropyError) and not isinstance(
            exc, DimensionMismatchError
        )
        problem = "invalid" if invalid else "cannot parse"
        raise ConfigError(f"law: {problem} mixture file {source}: {exc}") from exc


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=vars) + "\n"


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


def calibrate(config):
    """Run the Gaussian calibration battery; it passes iff every entry agrees with its truth."""
    samples, seed, nodes = config.samples, config.seed, max(16, config.nodes // 2)
    entries, agreed = [], []

    def add(estimator, n, var, est, truth):
        z, verdict = agreement(est, Estimate(truth, 0.0, "closed_form", 0), config.tol_sigma)
        agreed.append(verdict == HOLDS_WITH_EQUALITY)
        entries.append(
            {
                "estimator": estimator,
                "n": n,
                "var": var,
                "value": est.value,
                "truth": truth,
                "stderr": est.stderr,
                "z": z,
            }
        )

    for n in (1, 2):
        for var in (1.0, 4.0):
            law = gaussian_iid(n, var)
            h_truth = 0.5 * n * math.log(2.0 * math.pi * math.e * var)
            i_truth = n / var
            add("entropy_mc", n, var, entropy_mc(law, samples, seed), h_truth)
            if n == 1:
                add("entropy_quadrature_1d", n, var, entropy_quadrature_1d(law), h_truth)
            add("entropy_knn", n, var, entropy_knn(law.sample(samples, seed + 1)), h_truth)
            add("fisher_mc", n, var, fisher_mc(law, samples, seed), i_truth)
            est = entropy_via_debruijn(law, nodes=nodes, count=samples, seed=seed)
            add("entropy_via_debruijn", n, var, est, h_truth)
    report = {
        "seed": seed,
        "budget": samples,
        "tol_sigma": config.tol_sigma,
        "entries": entries,
        # NaN when any entry's z is: the largest |z| is then unknown
        "max_abs_z": max((e["z"] for e in entries), key=lambda z: (math.isnan(z), z)),
        "verdict": "pass" if all(agreed) else "fail",
    }
    return report, all(agreed)


def _verify(config):
    return _statement(verify_main(_load_law(config.law_path), _budget(config)))


def _statement(report, **extra):
    return {**vars(report), **extra}, report.verdict in _PASSING


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
    return vars(report), ok


def _probe(config):
    report = gaussianity_probe(_load_law(config.law_path), _budget(config))
    return vars(report), report.main.verdict in _PASSING


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
    # where the structure rule draws, it takes stream -1 of the seed, which no
    # de Bruijn node (stream 100_000 + j) uses
    reference = entropy_decomposed(law, config.samples, split_seed(config.seed, -1))
    z, verdict = agreement(est, reference, config.tol_sigma)
    payload = {
        "estimate": est,
        "reference": reference,
        "z": z,
        "law_fingerprint": law_fingerprint(law),
        "seed": config.seed,
        "budget": config.samples,
        "nodes": config.nodes,
    }
    return payload, verdict == HOLDS_WITH_EQUALITY


def _scan(config):
    law = _load_law(config.law_path)
    report = direction_scan(law, resolution=config.resolution, budget=_budget(config))
    ok = all(row.verdict in _PASSING for row in report.rows)
    if config.out_format == "csv":
        return report.to_csv(), ok
    return vars(report), ok


def _counterexample(config):
    report = asymmetric_counterexample()
    return vars(report), report.verdict == VIOLATED


_OPTIONS = {
    "--law": dict(dest="law_path", metavar="LAW", help="builtin:NAME or mixture JSON path"),
    "--seed": dict(type=int),
    "--samples": dict(type=int),
    "--tol-sigma": dict(type=float),
    "--out": dict(dest="out_path", metavar="OUT", help="report file (atomic write)"),
    "--format": dict(dest="out_format", choices=("json", "csv")),
    "--resolution": dict(type=int),
    "--k": dict(type=int),
    "--n": dict(type=int),
    "--method": dict(choices=("hadamard", "frequency_pairs")),
    "--nodes": dict(type=int),
}

# Each subcommand: its handler, and the options it reads besides --seed,
# --samples, --tol-sigma and --out, which every subcommand takes.  Each
# handler returns (JSON payload or CSV text, whether the verdicts pass).
# ``calibrate`` is looked up at call time so that a patched module attribute
# is the one that runs.
_COMMANDS = {
    "verify": (_verify, ("--law",)),
    "equality-demo": (_equality_demo, ("--law",)),
    "probe": (_probe, ("--law",)),
    "kdim": (_kdim, ("--law", "--k", "--n", "--method")),
    "debruijn": (_debruijn, ("--law", "--nodes")),
    "scan": (_scan, ("--law", "--format", "--resolution")),
    "counterexample": (_counterexample, ()),
    "calibrate": (lambda config: calibrate(config), ("--nodes",)),
}


def run(config):
    """Execute one batch command; returns the process exit status."""
    handler, _ = _COMMANDS[config.command]
    report, passed = handler(config)
    if isinstance(report, dict):
        report = _canonical_json({**report, "command": config.command})
    _emit(config, report)
    return 0 if passed else 1


@functools.cache
def _build_parser():
    # No option holds a default: one that is not given falls through to
    # RunConfig.  So a parse leaves no state behind, and one parser serves
    # every call of main in a process.
    parser = argparse.ArgumentParser(
        prog="symentropy",
        description="Verify entropy lower bounds for symmetric random vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # no abbreviations: --n must not reach a subcommand as --nodes
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in (*options, "--seed", "--samples", "--tol-sigma", "--out"):
            p.add_argument(flag, **_OPTIONS[flag])
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
