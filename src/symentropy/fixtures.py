"""Builtin probability laws used by the verification suites and the CLI.

Names accepted by :func:`builtin_law`:

- ``gaussian-iid-nK``          standard normal on R^K
- ``bimodal-product-nK``       product of K copies of 0.5 N(-2,1) + 0.5 N(2,1)
- ``rotated-bimodal``          45-degree rotation of two i.i.d. bimodal coordinates
- ``correlated-gaussian-rhoR`` centered bivariate normal, unit variances, correlation R
"""

import re

import numpy as np

from .mixtures import MAX_DIM, make_gaussian_mixture, rotated_iid_construction

_GAUSSIAN = re.compile(r"gaussian-iid-n(\d+)$")
_BIMODAL = re.compile(r"bimodal-product-n(\d+)$")
_CORRELATED = re.compile(r"correlated-gaussian-rho(-?\d+(?:\.\d+)?)$")

_MAX_PRODUCT_DIM = 10


def bimodal_1d(separation=2.0, var=1.0):
    """Symmetric two-component 1-D mixture at +-separation."""
    return make_gaussian_mixture(
        [(0.5, [-separation], [[var]]), (0.5, [separation], [[var]])]
    )


def gaussian_iid(n, var=1.0):
    """Centered isotropic normal on R^n, for n <= MAX_DIM (512)."""
    n = int(n)
    # checked here too, so that an oversized n never allocates its identity
    if n > MAX_DIM:
        raise ValueError(f"n: gaussian fixture supports n <= {MAX_DIM} (got {n})")
    return make_gaussian_mixture([(1.0, np.zeros(n), var * np.eye(n))])


def bimodal_product(n, separation=2.0, var=1.0):
    """Product of n i.i.d. bimodal coordinates (2^n components)."""
    n = int(n)
    if n > _MAX_PRODUCT_DIM:
        raise ValueError(f"n: product fixture supports n <= {_MAX_PRODUCT_DIM} (got {n})")
    components = []
    for bits in range(1 << n):
        signs = np.array([1.0 if bits & (1 << j) else -1.0 for j in range(n)])
        components.append((0.5**n, separation * signs, var * np.eye(n)))
    return make_gaussian_mixture(components)


def rotated_bimodal():
    """The 2-D equality-case law: rotated pair of i.i.d. bimodal coordinates."""
    return rotated_iid_construction(bimodal_1d())


def correlated_gaussian(rho):
    """Centered bivariate normal with unit variances and correlation rho."""
    rho = float(rho)
    return make_gaussian_mixture([(1.0, [0.0, 0.0], [[1.0, rho], [rho, 1.0]])])


def trimodal_1d():
    """Three-component symmetric 1-D base used by the equality demos."""
    return make_gaussian_mixture(
        [(0.25, [-2.0], [[0.25]]), (0.5, [0.0], [[1.0]]), (0.25, [2.0], [[0.25]])]
    )


def builtin_law(name):
    """Resolve a builtin fixture name to a mixture law."""
    name = name.strip()
    m = _GAUSSIAN.match(name)
    if m:
        return gaussian_iid(int(m.group(1)))
    m = _BIMODAL.match(name)
    if m:
        return bimodal_product(int(m.group(1)))
    if name == "rotated-bimodal":
        return rotated_bimodal()
    m = _CORRELATED.match(name)
    if m:
        return correlated_gaussian(float(m.group(1)))
    raise KeyError(
        f"law: unknown builtin {name!r}; expected gaussian-iid-nK, "
        "bimodal-product-nK, rotated-bimodal, or correlated-gaussian-rhoR"
    )
