"""The integral (heat-flow) representation of entropy.

Smoothing a law X to X_t = X + sqrt(t) Z turns entropy into an integral of
Fisher information along the path:

    h(X) = (n/2) log(2 pi e) - 1/2 * Int_0^inf ( I(X_t) - n/(1+t) ) dt.

The substitution t = u/(1-u) compactifies the domain to u in [0, 1); the
integrand decays like 1/t^2, so after the substitution it stays bounded
and Gauss-Legendre nodes in u need no explicit tail term.  Each node's
I(X_t) is a :func:`fisher_mc` estimate on its own streams.
"""

import math

import numpy as np

from .estimators import Estimate, fisher_mc, floored_stderr
from .mixtures import convolve_isotropic
from .streams import CHUNK_SIZE, split_seed

_LOG_2PIE = math.log(2.0 * math.pi * math.e)


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
    return Estimate(value, stderr, a.method, n)


def _debruijn_sum(mix, nodes, count, seed):
    """Weighted Gauss-Legendre sum of (I(X_t) - n/(1+t)) over u = t/(1+t).

    The Jacobian of the substitution amplifies the Monte Carlo noise of the
    large-t nodes by (1+t)^2 while the statistic's noise decays only like
    1/t, so a pilot pass measures each node's contribution and the rest of
    the budget (nodes * count in total) is allocated proportionally.  The
    pilot is the whole budget up to 4 * _MIN_NODE_COUNT draws, and never
    more than one chunk: node j's pilot is chunk 0 of stream j, and its
    main pass draws from stream 100_000 + j, so no chunk stream is drawn twice.
    Returns the value, its Monte Carlo stderr and the draws made.
    """
    n = mix.dim
    u, w = _gl_unit_interval(nodes)
    t = u / (1.0 - u)
    jac = w / (1.0 - u) ** 2
    laws = [convolve_isotropic(mix, tj) for tj in t]

    pilot_count = count
    if count > 4 * _MIN_NODE_COUNT:
        pilot_count = min(CHUNK_SIZE, max(_MIN_NODE_COUNT, count // _PILOT_FRACTION))
    pilots = [fisher_mc(law, pilot_count, split_seed(seed, j)) for j, law in enumerate(laws)]
    estimates = pilots
    if pilot_count < count:
        weight = jac * np.array([fe.stderr for fe in pilots]) * math.sqrt(pilot_count)
        remaining = nodes * (count - pilot_count)
        if weight.sum() <= 0.0:
            alloc = np.full(nodes, remaining // nodes)
        else:
            alloc = np.maximum(
                _MIN_NODE_COUNT, (remaining * weight / weight.sum()).astype(int)
            )
        estimates = [
            _pool(pilots[j], fisher_mc(laws[j], int(alloc[j]), split_seed(seed, 100_000 + j)))
            for j in range(nodes)
        ]

    total = 0.0
    var = 0.0
    for j, fe in enumerate(estimates):
        total += jac[j] * (fe.value - n / (1.0 + t[j]))
        var += (jac[j] * fe.stderr) ** 2
    value = 0.5 * n * _LOG_2PIE - 0.5 * total
    return value, 0.5 * math.sqrt(var), sum(fe.count for fe in estimates)


def entropy_via_debruijn(mix, nodes=48, count=20000, seed=0):
    """Entropy from the Fisher-information integral along the smoothing path.

    Gauss-Legendre in u = t/(1+t) with ``nodes`` points; each node estimates
    I(X_t) with ``fisher_mc`` on its own split streams, with the total sample
    budget allocated across nodes by their measured noise contributions.
    The reported stderr combines the node-wise Monte Carlo errors (in
    quadrature; the streams are independent) with the change from a
    half-resolution evaluation, which equals the result of calling this
    function at max(16, nodes // 2) nodes on the same seed.  At 16 nodes
    that is the same sum, so the half-resolution term is absent there.
    Its ``count`` is every draw made by the ``fisher_mc`` calls of both sums.
    """
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError(f"nodes: must be >= 16 (got {nodes})")
    count = int(count)
    value, stderr, draws = _debruijn_sum(mix, nodes, count, seed)
    half = max(16, nodes // 2)
    if half < nodes:
        value_half, _, half_draws = _debruijn_sum(mix, half, count, seed)
        stderr = math.hypot(stderr, abs(value - value_half))
        draws += half_draws
    return Estimate(value, floored_stderr(stderr, value), "debruijn", draws)
