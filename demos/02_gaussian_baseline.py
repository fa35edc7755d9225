"""Gaussian reference copula and the empirical-minus-Gaussian difference map.

The Gaussian surface with matched correlation is the natural null model: a
difference map against it shows where real dependence deviates from the
elliptical shape, most visibly in the corners.
"""

import numpy as np

from copuladyn import (
    bivariate_normal_cdf,
    difference_map,
    empirical_copula_density,
    gaussian_copula_cdf,
    gaussian_grid,
)

# the CDF evaluator agrees with the closed form at the origin:
# Phi2(0, 0; c) = 1/4 + arcsin(c) / (2 pi)
for c in (-0.9, -0.3, 0.0, 0.5, 0.95):
    got = bivariate_normal_cdf(0.0, 0.0, c)
    ref = 0.25 + np.arcsin(c) / (2.0 * np.pi)
    print(f"c = {c:+.2f}: Phi2(0,0) = {got:.12f}  closed form {ref:.12f}")

print("\ncopula CDF at (0.5, 0.5):", gaussian_copula_cdf(0.5, 0.5, 0.5))

ref = gaussian_grid(0.5, 8)
print("\nGaussian cell masses x 1000 at c = 0.5 (m = 8):")
for row in ref.density * 1000:
    print("  " + " ".join(f"{v:5.1f}" for v in row))
print("margins uniform:", np.allclose(ref.density.sum(axis=0), 1 / 8))

# sample from the same dependence and subtract a Gaussian baseline fitted at
# the measured correlation
rng = np.random.default_rng(42)
T = 200_000
z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=T)
emp = empirical_copula_density(z[:, 0], z[:, 1], 8)
c_hat = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
corr = np.array([[1.0, c_hat], [c_hat, 1.0]])
diff = difference_map(emp, corr)

print("\ndifference map x 1000 (sampling noise only, should hover near 0):")
for row in diff.values * 1000:
    print("  " + " ".join(f"{v:+5.2f}" for v in row))
largest = np.max(np.abs(diff.values))
sigma = np.sqrt(ref.density * (1 - ref.density) / T).max()
print(f"largest |difference| {largest:.2e}, one-sigma sampling scale {sigma:.2e}")
