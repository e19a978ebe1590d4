"""The integral (heat-flow) representation of entropy.

Smoothing a law X to X_t = X + sqrt(t) Z turns entropy into an integral of
Fisher information along the path:

    h(X) = (n/2) log(2 pi e) - 1/2 * Int_0^inf ( I(X_t) - n/(1+t) ) dt.

The substitution t = u/(1-u) compactifies the domain to u in [0, 1); the
integrand decays like 1/t^2, so after the substitution it stays bounded
and Gauss-Legendre nodes in u need no explicit tail term.  X_t is an exact
mixture, so each node's I(X_t) is :func:`fisher_decomposed`: a quadrature
wherever the structure rule converges, drawn only where it does not.
"""

import math

import numpy as np

from .estimators import Estimate, fisher_decomposed, floored_stderr
from .mixtures import convolve_isotropic
from .streams import split_seed

_LOG_2PIE = math.log(2.0 * math.pi * math.e)
_MIN_NODE_COUNT = 100


def _gl_unit_interval(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _node_counts(mix, t, jac, budget):
    """Draws per node: ``budget`` split by each node's share of the sum's noise.

    A Gaussian component of X_t whose covariance has eigenvalues lam_i + t
    gives |score|^2 a spread of sqrt(2 sum_i (lam_i + t)^-2).  Node j's share
    is its Jacobian times the root of the weight-averaged sum, taken once per
    distinct covariance; no node draws fewer than 100.
    """
    group_weights = np.bincount(mix._group_of, weights=mix.weights)
    eigvals = np.linalg.eigvalsh(mix.covs[mix._heads])[:, :, None]  # (G, n, 1)
    spread = group_weights[:, None] * (1.0 / (eigvals + t) ** 2).sum(axis=1)
    share = jac * np.sqrt(spread.sum(axis=0))
    return np.maximum(_MIN_NODE_COUNT, (budget * share / share.sum()).astype(int))


def _debruijn_sum(mix, nodes, count, seed):
    """Weighted Gauss-Legendre sum of (I(X_t) - n/(1+t)) over u = t/(1+t).

    Node j's I(X_t) is :func:`fisher_decomposed` of the smoothed law on
    stream 100_000 + j of ``seed``, which below 100,000 chunks per node meets
    no other node's chunks.  Where it draws, it draws the node's share of
    ``nodes * count`` from :func:`_node_counts`.  Returns the value, its
    stderr (the node errors in quadrature) and the draws made.
    """
    n = mix.dim
    u, w = _gl_unit_interval(nodes)
    t = u / (1.0 - u)
    jac = w / (1.0 - u) ** 2
    counts = _node_counts(mix, t, jac, nodes * count)
    total = var = 0.0
    draws = 0
    for j in range(nodes):
        law = convolve_isotropic(mix, t[j])
        fe = fisher_decomposed(law, int(counts[j]), split_seed(seed, 100_000 + j))
        total += jac[j] * (fe.value - n / (1.0 + t[j]))
        var += (jac[j] * fe.stderr) ** 2
        draws += 0 if fe.method.startswith("quadrature") else fe.count
    value = 0.5 * n * _LOG_2PIE - 0.5 * total
    return value, 0.5 * math.sqrt(var), draws


def entropy_via_debruijn(mix, nodes=48, count=20000, seed=0):
    """Entropy from the Fisher-information integral along the smoothing path.

    Gauss-Legendre in u = t/(1+t) with ``nodes`` >= 16 points; each node's
    I(X_t) is exact wherever the structure rule converges, and a node that
    draws takes its share of ``nodes * count`` draws (at least 100).  The
    reported stderr combines the node errors in quadrature with the change
    from the half-resolution sum at ``nodes // 2`` points on the same seed;
    where no node draws, that change is the only error term besides the
    node quadratures' own.  Its ``count`` is the draws made in both sums:
    0 where every node is a quadrature.
    """
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError(f"nodes: must be >= 16 (got {nodes})")
    count = int(count)
    if count < _MIN_NODE_COUNT:
        raise ValueError(f"count: must be >= {_MIN_NODE_COUNT} (got {count})")
    value, stderr, draws = _debruijn_sum(mix, nodes, count, seed)
    value_half, _, half_draws = _debruijn_sum(mix, nodes // 2, count, seed)
    stderr = math.hypot(stderr, abs(value - value_half))
    return Estimate(value, floored_stderr(stderr, value), "debruijn", draws + half_draws)
