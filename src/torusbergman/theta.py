"""Level-m theta series with certified truncation.

Normalization:

    theta_{m,j}(z) = sum_{r in Z + j/m} exp(pi i m r^2 tau + 2 pi i m r z)

for level m >= 1 and characteristic j in {0, ..., m-1}.  These satisfy
theta(z+1) = theta(z) and theta(z+tau) = exp(-pi i m tau - 2 pi i m z) theta(z)
and realize holomorphic sections of the degree-m bundle with weight
phi_plus(z) = pi m (Im z)^2 / Im tau.

Certified error: truncation radii come from the explicit Gaussian tail bound,
and the guarantee is |truncated - exact| <= eps * exp(phi_plus(z)), i.e. the
gauge-invariant weighted value theta * exp(-phi_plus) is within eps.  On the
real axis (and at the scale of all shipped comparisons) this is an absolute
eps bound.

Grid evaluator: on the half-offset lattice grid z = a + tau b (a, b in
(arange(N) + 0.5) / N) every weighted term separates,

    exp(pi i m r^2 tau + 2 pi i m r z - phi_plus(z))
        = exp(2 pi i m r a) * exp(pi i m Re(tau) (r^2 + 2 r b) - pi m Im(tau) (r + b)^2),

so weighted_grid computes each characteristic as one (N x R_j) @ (R_j x N)
matrix product, with O(N R) complex exponentials instead of O(N^2 R).  It sums
exactly the terms weighted_table would sum at those points (same tail radius,
same r window per characteristic) and yields one characteristic at a time, so
a caller that reduces as it goes (the density sum_j |W_j|^2) holds one N x N
array, not the whole m x N^2 table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["ThetaSeries", "TruncationBound", "basis_of_level", "phi_plus", "weighted_grid",
           "weighted_table"]


def phi_plus(m: int, tau: complex, z) -> np.ndarray:
    """Positive-degree weight pi*m*(Im z)^2/Im tau at level m."""
    z = np.asarray(z, dtype=complex)
    return np.pi * m * z.imag ** 2 / tau.imag


@dataclass(frozen=True)
class TruncationBound:
    """Lattice-sum cutoff certified by the Gaussian tail estimate."""

    target_eps: float
    radius: int

    def __post_init__(self):
        if self.target_eps <= 0:
            raise ValueError("target_eps must be positive")
        if self.radius < 1:
            raise ValueError("radius must be a positive integer")


def _tail_radius(m: int, im_tau: float, eps: float, y_over_t: float, order: int) -> float:
    """Smallest shifted-window half-width R with certified tail below eps.

    Terms are exp(-a s^2) * |2 pi m r|^order with a = pi m Im(tau) and
    s = r + y/Im(tau); the two-sided tail over |s| >= R is bounded by
    2 exp(-a R^2 / 2) * sup_{|s|>=R} exp(-a s^2 / 2) (2 pi m (|s|+c))^order
    with c = |y|/Im(tau).
    """
    a = np.pi * m * im_tau
    c = abs(y_over_t)
    R = 1.0
    for _ in range(4):
        poly = max(1.0, (2.0 * np.pi * m * (R + c + 1.0)) ** order)
        geo = max(1.0 - np.exp(-a * max(R, 0.5)), 0.25)
        target = eps * geo / (4.0 * poly)
        R = max(np.sqrt(2.0 * max(np.log(1.0 / target), 1.0) / a), np.sqrt(2.0 * order / a) + 0.5)
    return R


@dataclass(frozen=True)
class ThetaSeries:
    level: int
    characteristic: int
    tau: complex

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if not 0 <= self.characteristic < self.level:
            raise ValueError("characteristic must lie in [0, level)")
        if self.tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")

    def truncation(self, z, eps: float, order: int = 0) -> TruncationBound:
        if eps <= 0:
            raise ValueError("eps must be positive")
        z = np.asarray(z, dtype=complex)
        y_over_t = float(np.max(np.abs(z.imag))) / self.tau.imag if z.size else 0.0
        R = _tail_radius(self.level, self.tau.imag, eps, y_over_t, order)
        return TruncationBound(target_eps=eps, radius=int(np.ceil(R)))

    def _sum(self, z, eps: float, order: int, radius: int | None = None):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zf = np.atleast_1d(z)
        m, j, tau = self.level, self.characteristic, self.tau
        T = tau.imag
        if radius is None:
            radius = self.truncation(zf, eps, order).radius
        center = -zf.imag / T
        lo = int(np.floor(center.min() - radius - j / m))
        hi = int(np.ceil(center.max() + radius - j / m))
        r = (np.arange(lo, hi + 1) + j / m)[:, None]
        expo = 1j * np.pi * m * r * r * tau + 2j * np.pi * m * r * zf[None, :]
        terms = np.exp(expo)
        if order:
            terms = terms * (2j * np.pi * m * r) ** order
        out = terms.sum(axis=0)
        return out[0] if scalar else out

    def eval(self, z, eps: float = 1e-12, radius: int | None = None):
        """Truncated lattice sum, certified within eps * exp(phi_plus(z))."""
        return self._sum(z, eps, 0, radius)

    def eval_grad(self, z, eps: float = 1e-12, radius: int | None = None):
        """Termwise-differentiated sum d theta / dz, same certification."""
        return self._sum(z, eps, 1, radius)

    def eval_hess(self, z, eps: float = 1e-12, radius: int | None = None):
        """Second termwise derivative d^2 theta / dz^2."""
        return self._sum(z, eps, 2, radius)


def basis_of_level(m: int, tau: complex) -> list[ThetaSeries]:
    """The m series of level m with characteristics 0..m-1."""
    if m < 1:
        raise ValueError("level must be a positive integer")
    return [ThetaSeries(level=m, characteristic=j, tau=tau) for j in range(m)]


def weighted_table(m: int, tau: complex, z, orders: int = 0, eps: float = 1e-12) -> np.ndarray:
    """Weighted sums W_nu = sum_r (2 pi i m r)^nu exp(...) * exp(-phi_plus(z))
    for all m characteristics at once.

    Every term has nonpositive real exponent, so no large intermediates occur
    regardless of Im z.  Returns shape (orders+1, m, len(z)).

    W_0 is the weighted theta value theta * exp(-phi_plus); W_1 and W_2 are
    the weighted first and second z-derivative sums of theta.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    T = tau.imag
    y_over_t = float(np.max(np.abs(z.imag))) / T if z.size else 0.0
    R = _tail_radius(m, T, eps, y_over_t, orders)
    center = -z.imag / T
    out = np.empty((orders + 1, m, z.shape[0]), dtype=complex)
    phi = np.pi * m * z.imag ** 2 / T
    for j in range(m):
        lo = int(np.floor(center.min() - R - j / m))
        hi = int(np.ceil(center.max() + R - j / m))
        r = (np.arange(lo, hi + 1) + j / m)[:, None]
        expo = 1j * np.pi * m * r * r * tau + 2j * np.pi * m * r * z[None, :] - phi[None, :]
        base = np.exp(expo)
        fac = np.ones_like(base)
        for nu in range(orders + 1):
            out[nu, j] = (base * fac).sum(axis=0)
            fac = fac * (2j * np.pi * m * r)
    return out


def weighted_grid(m: int, tau: complex, N: int, eps: float = 1e-12) -> Iterator[np.ndarray]:
    """W_0 of weighted_table on the half-offset N x N lattice grid, one
    characteristic at a time.

    Yields m arrays of shape (N, N) indexed [a, b] for z = a + tau b with
    a, b in (arange(N) + 0.5) / N, so that raveling gives the a-major point
    order.  Characteristic j is E_j @ G_j with E_j[a, r] = exp(2 pi i m r a)
    and G_j[r, b] the b-only Gaussian factor (see the module docstring).
    """
    t = (np.arange(N) + 0.5) / N
    T = tau.imag
    y = T * t                                   # Im z along b, as weighted_table sees it
    R = _tail_radius(m, T, eps, float(np.max(y)) / T, 0)
    center = -y / T
    for j in range(m):
        lo = int(np.floor(center.min() - R - j / m))
        hi = int(np.ceil(center.max() + R - j / m))
        n = np.arange(lo, hi + 1)
        r = (n + j / m)[:, None]
        E = np.exp(2j * np.pi * np.outer(t, m * n + j))
        G = np.exp(1j * np.pi * m * tau.real * r * (r + 2.0 * t) - np.pi * m * T * (r + t) ** 2)
        yield E @ G
