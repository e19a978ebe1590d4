"""Gaussian smoothing paths and the integral entropy representation.

Smoothing a law X to X_t = X + sqrt(t) Z turns entropy into an integral of
Fisher information along the path:

    h(X) = (n/2) log(2 pi e) - 1/2 * Int_0^inf ( I(X_t) - n/(1+t) ) dt.

The substitution t = u/(1-u) compactifies the domain to u in [0, 1); the
integrand decays like 1/t^2, so after the substitution it stays bounded
and Gauss-Legendre nodes in u need no explicit tail term.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import Estimate, fisher_mc, floored_stderr
from .mixtures import convolve_isotropic
from .streams import split_seed

_LOG_2PIE = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class FisherPath:
    """Fisher information of X_t = X + sqrt(t) Z along increasing times."""

    times: tuple
    values: tuple  # Estimate of I(X_t) per time

    def to_csv(self):
        lines = ["t,value,stderr"]
        for t, fe in zip(self.times, self.values):
            lines.append(f"{t!r},{fe.value!r},{fe.stderr!r}")
        return "\n".join(lines) + "\n"


def fisher_path(mix, times, count=20000, seed=0):
    """Fisher information along the smoothing path, one estimate per time.

    Every time reuses the same seed, so the underlying standard-normal
    draws are shared and the estimated path is smooth (and, for Gaussian
    inputs, exactly monotone decreasing).
    """
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise ValueError("times: all entries must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times: must be strictly increasing")
    values = tuple(fisher_mc(convolve_isotropic(mix, t), count, seed) for t in times)
    return FisherPath(times=tuple(times), values=values)


def _gl_unit_interval(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


_PILOT_FRACTION = 8
_MIN_NODE_COUNT = 100


def _pool(a, b):
    # Pool two independent unbiased mean estimates by sample count.
    n = a.count + b.count
    value = (a.count * a.value + b.count * b.value) / n
    stderr = math.sqrt((a.count * a.stderr) ** 2 + (b.count * b.stderr) ** 2) / n
    return value, stderr


def _debruijn_sum(mix, nodes, count, seed):
    """Weighted Gauss-Legendre sum of (I(X_t) - n/(1+t)) over u = t/(1+t).

    The Jacobian of the substitution amplifies the Monte Carlo noise of the
    large-t nodes by (1+t)^2 while the statistic's noise decays only like
    1/t, so a pilot pass measures each node's contribution and the sample
    budget (nodes * count in total) is reallocated proportionally.
    """
    n = mix.dim
    u, w = _gl_unit_interval(nodes)
    t = u / (1.0 - u)
    jac = w / (1.0 - u) ** 2
    laws = [convolve_isotropic(mix, tj) for tj in t]

    pilot_count = max(_MIN_NODE_COUNT, count // _PILOT_FRACTION)
    if count <= 4 * _MIN_NODE_COUNT:
        estimates = [
            fisher_mc(laws[j], count, split_seed(seed, j)) for j in range(nodes)
        ]
        values = [(fe.value, fe.stderr) for fe in estimates]
    else:
        pilots = [
            fisher_mc(laws[j], pilot_count, split_seed(seed, j)) for j in range(nodes)
        ]
        weight = np.array(
            [jac[j] * pilots[j].stderr * math.sqrt(pilot_count) for j in range(nodes)]
        )
        remaining = nodes * (count - pilot_count)
        if weight.sum() <= 0.0:
            alloc = np.full(nodes, remaining // nodes)
        else:
            alloc = np.maximum(
                _MIN_NODE_COUNT, (remaining * weight / weight.sum()).astype(int)
            )
        values = []
        for j in range(nodes):
            main = fisher_mc(laws[j], int(alloc[j]), split_seed(seed, 100_000 + j))
            values.append(_pool(pilots[j], main))

    total = 0.0
    var = 0.0
    for j in range(nodes):
        value_j, stderr_j = values[j]
        total += jac[j] * (value_j - n / (1.0 + t[j]))
        var += (jac[j] * stderr_j) ** 2
    value = 0.5 * n * _LOG_2PIE - 0.5 * total
    return value, 0.5 * math.sqrt(var)


def entropy_via_debruijn(mix, nodes=48, count=20000, seed=0):
    """Entropy from the Fisher-information integral along the smoothing path.

    Gauss-Legendre in u = t/(1+t) with ``nodes`` points; each node estimates
    I(X_t) with ``fisher_mc`` on its own split stream, with the total sample
    budget allocated across nodes by their measured noise contributions.
    The reported stderr combines the node-wise Monte Carlo errors (in
    quadrature; the streams are independent) with the change from a
    half-resolution evaluation, which equals the result of calling this
    function at nodes//2 on the same seed.
    """
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError(f"nodes: must be >= 16 (got {nodes})")
    count = int(count)
    value, mc_se = _debruijn_sum(mix, nodes, count, seed)
    value_half, _ = _debruijn_sum(mix, max(16, nodes // 2), count, seed)
    quad_se = abs(value - value_half)
    stderr = floored_stderr(math.hypot(mc_se, quad_se), value)
    return Estimate(value, stderr, "debruijn", nodes * count)
