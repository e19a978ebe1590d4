"""Entropy through Fisher information along the Gaussian smoothing path.

Smoothing X_t = X + sqrt(t) Z interpolates any law toward a Gaussian.  The
Fisher information I(X_t) decreases along the path, and integrating
I(X_t) - n/(1+t) recovers the entropy:

    h(X) = (n/2) log(2 pi e) - 1/2 * Int_0^inf ( I(X_t) - n/(1+t) ) dt.

The path values below are exact quadratures of the smoothed 1-D law, and
the integral sums the same quadratures over Gauss-Legendre nodes; its
stderr is the change from the sum at half the nodes.  This gives a third,
independent route to the same entropy values that the Monte Carlo and
quadrature estimators produce.
"""

import symentropy as se

print("=" * 70)
print("Fisher information along the smoothing path (bimodal law)")
print("=" * 70)

law = se.bimodal_1d()
var = float(law.covariance()[0, 0])
print("\n      t      I(X_t)    Gaussian with matched variance")
for t in [0.0, 0.25, 1.0, 4.0, 16.0]:
    est = se.fisher_quadrature(se.convolve_isotropic(law, t))
    print(f"  {t:7.2f}  {est.value:8.5f}    1/(var+t) = {1/(var+t):.5f}")
print(f"\nmatched variance = {var}; the information of X_t always sits above")
print("1/(var+t) (Cramer-Rao) and approaches it as the path Gaussianizes.")

print("\n" + "=" * 70)
print("Entropy via the integral representation, against two other routes")
print("=" * 70)

for name, law in [
    ("N(0, 4)", se.gaussian_iid(1, 4.0)),
    ("bimodal 0.5 N(-2,1) + 0.5 N(2,1)", se.bimodal_1d()),
    ("three-component symmetric base", se.trimodal_1d()),
]:
    flow = se.entropy_via_debruijn(law, nodes=48, count=30_000, seed=0)
    quad = se.entropy_quadrature_1d(law)
    mc = se.entropy_mc(law, 100_000, 0)
    print(f"\n{name}")
    print(f"  heat-flow integral: {flow.value:.5f} +/- {flow.stderr:.1e}")
    print(f"  quadrature:         {quad.value:.5f}")
    print(f"  Monte Carlo:        {mc.value:.5f} +/- {mc.stderr:.5f}")
