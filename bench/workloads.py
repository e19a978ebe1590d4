"""Benchmark workloads: the operations of one pass and their correctness gate.

Every operation goes through the public API: ``symentropy.cli.main(argv)``,
or ``symentropy.harness.verify_fisher_lemma``, which has no subcommand.
Importing this module imports ``symentropy``; :func:`prepare` then resolves
the workload's builtin laws, which is what set-up time measures.
"""

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass

from symentropy import cli, harness
from symentropy.estimators import entropy_quadrature_1d
from symentropy.fixtures import bimodal_1d, builtin_law

TOL_SIGMA = 3.0  # the CLI's default --tol-sigma
PASSING = ("holds", "holds_with_equality")


@dataclass(frozen=True)
class Op:
    """One operation of a pass and the verdict classes it may end in."""

    name: str
    call: object  # (context) -> (exit status or None, report text)
    verdicts: object  # payload -> tuple of verdict strings
    expected: tuple
    sigma: object = None  # payload -> the op's one sigma; None leaves it out of sigma_rms
    check: object = None  # (payload, context) -> problem string or None


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, and why it failed its gate, if it did."""

    op: str
    report: str | None
    sigma: float | None
    problem: str | None


@dataclass(frozen=True)
class Workload:
    laws: tuple  # builtin law names resolved at set-up
    ops: tuple
    references: object = dict  # () -> closed-form values the gate compares against


@dataclass(frozen=True)
class Context:
    seed: int
    laws: dict  # builtin name -> resolved law
    ops: tuple
    references: dict  # closed-form values the gate compares against


def _cli(*argv):
    def call(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                status = cli.main([*argv, "--seed", str(ctx.seed)])
            except SystemExit as exc:  # argparse rejects the arguments
                status = exc.code
        return status, out.getvalue()

    return call


def _fisher_lemma(law_name):
    def call(ctx):
        report = harness.verify_fisher_lemma(ctx.laws[law_name], harness.Budget(seed=ctx.seed))
        return None, json.dumps(report.to_json_dict(), sort_keys=True)

    return call


def _verdict(p):
    return (p["verdict"],)


def _sigma(p):
    return p["sigma"]


def _row_verdict(margin, stderr):
    # The harness rule: a margin beyond TOL_SIGMA sigmas is strict, within is equality.
    if not (math.isfinite(stderr) and not math.isnan(margin)):
        return "inconclusive"
    if margin > TOL_SIGMA * stderr:
        return "holds"
    return "holds_with_equality" if margin >= -TOL_SIGMA * stderr else "violated"


def _scan_verdicts(p):
    return tuple(_row_verdict(r["margin"], r["stderr"]) for r in p["rows"])


def _check_joint_entropy(p, ctx):
    # n * rhs is the MC estimate of h(X); its own stderr is recovered from the
    # combined sigma, since the lhs is a quadrature value with its own stderr.
    n = ctx.references["dim"]
    estimate = n * p["rhs"]
    stderr = n * math.sqrt(max(p["sigma"] ** 2 - p["lhs"]["stderr"] ** 2, 0.0))
    truth = ctx.references["h_x"]
    if abs(estimate - truth) > TOL_SIGMA * stderr:
        return f"h(X) estimate {estimate!r} is {abs(estimate - truth) / stderr:.2f} sigma from {truth!r}"
    return None


def _calibrate_sigma(p):
    errs = [e["stderr"] for e in p["entries"]]
    return math.sqrt(sum(s * s for s in errs) / len(errs))


N8 = "bimodal-product-n8"
N3 = "bimodal-product-n3"
N1 = "bimodal-product-n1"

WORKLOADS = {
    "verify-n8": Workload(
        (N8,),
        (
            Op("verify", _cli("verify", "--law", f"builtin:{N8}"), _verdict, PASSING, _sigma,
               _check_joint_entropy),
        ),
        lambda: {"dim": 8, "h_x": 8 * entropy_quadrature_1d(bimodal_1d()).value},
    ),
    "statements-n3": Workload(
        (N3,),
        (
            Op("verify", _cli("verify", "--law", f"builtin:{N3}"), _verdict, PASSING, _sigma),
            Op("kdim", _cli("kdim", "--law", f"builtin:{N3}", "--k", "2", "--n", "3",
                            "--method", "frequency_pairs"), _verdict, PASSING, _sigma),
            Op("probe", _cli("probe", "--law", f"builtin:{N3}"),
               lambda p: (p["main"]["verdict"],), PASSING, lambda p: p["main"]["sigma"]),
            Op("scan", _cli("scan", "--law", f"builtin:{N3}"), _scan_verdicts, PASSING,
               lambda p: max(r["stderr"] for r in p["rows"])),
            Op("fisher-lemma", _fisher_lemma(N3), _verdict, PASSING, _sigma),
            Op("equality-demo", _cli("equality-demo", "--law", f"builtin:{N1}"), _verdict,
               ("holds_with_equality",), _sigma),
            Op("counterexample", _cli("counterexample"), _verdict, ("violated",)),
        ),
    ),
    "calibrate": Workload(
        (),
        (Op("calibrate", _cli("calibrate"), _verdict, ("pass",), _calibrate_sigma),),
    ),
}


def prepare(name, seed):
    """Resolve the workload's laws and the closed-form values its gate uses."""
    workload = WORKLOADS[name]
    laws = {law: builtin_law(law) for law in workload.laws}
    return Context(int(seed), laws, workload.ops, workload.references())


def invoke(op, ctx):
    """Run one operation: (exit status or None, report text), or the exception it raised."""
    try:
        return op.call(ctx)
    except Exception as exc:  # the gate records any failure and keeps the run going
        traceback.print_exc()
        return exc


def gate(op, ctx, result, reference):
    """Apply the correctness gate to what :func:`invoke` returned.

    ``reference`` is the op's report text from the first pass of the run,
    or None during that pass.
    """
    if isinstance(result, Exception):
        return Outcome(op.name, None, None, f"raised {type(result).__name__}: {result}")
    status, text = result
    problems = [] if status in (None, 0) else [f"exit status {status}"]
    if reference is not None and text != reference:
        problems.append("report differs from the first pass")
    sigma = None
    try:
        payload = json.loads(text)
        bad = sorted(set(v for v in op.verdicts(payload) if v not in op.expected))
        if bad:
            problems.append(f"verdict {', '.join(bad)} outside {op.expected}")
        if op.check is not None:
            problems.append(op.check(payload, ctx))
        if op.sigma is not None:
            sigma = op.sigma(payload)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return Outcome(op.name, text, sigma, "; ".join(p for p in problems if p) or None)
