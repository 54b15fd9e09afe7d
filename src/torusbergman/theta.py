"""Weighted level-m theta functions: two evaluators over one term formula.

Normalization:

    theta_{m,j}(z) = sum_{r in Z + j/m} exp(pi i m r^2 tau + 2 pi i m r z)

for level m >= 1 and characteristic j in {0, ..., m-1}.  These satisfy
theta(z+1) = theta(z) and theta(z+tau) = exp(-pi i m tau - 2 pi i m z) theta(z)
and realize holomorphic sections of the degree-m bundle with weight
phi_plus(z) = pi m (Im z)^2 / Im tau.  Only the weighted values
W = theta * exp(-phi_plus) and their termwise z-derivative sums are evaluated.
In lattice coordinates z = a + tau s (s = Im z / Im tau) each weighted term is

    exp(2 pi i m r a) * exp(pi i m Re(tau) r (r + 2 s) - pi m Im(tau) (r + s)^2),

whose real exponent _exponent forms as that one Gaussian, never as the sum of
the large, cancelling Re(pi i m r^2 tau), -2 pi m r Im z and -phi_plus.

Certified error: _windows takes each characteristic's r window from the
explicit Gaussian tail bound, so W is within eps of the exact value (theta
within eps * exp(phi_plus(z))).  Both evaluators use it: weighted_table for
scattered points and derivative sums, and weighted_grid for the half-offset
lattice grid z = a + tau b (a, b in (arange(N) + 0.5) / N), where the a-phase
exp(2 pi i (m n + j) a) (r = n + j/m) splits off, so each characteristic is
one (N x R_j) @ (R_j x N) matrix product with O(N R) complex exponentials
instead of O(N^2 R).  weighted_grid yields one characteristic at a time, so a
caller that reduces as it goes (the density sum_j |W_j|^2) holds one N x N
array, not the whole m x N^2 table.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["phi_plus", "weighted_grid", "weighted_table"]


def phi_plus(m: int, tau: complex, z) -> np.ndarray:
    """Positive-degree weight pi*m*(Im z)^2/Im tau at level m."""
    z = np.asarray(z, dtype=complex)
    return np.pi * m * z.imag ** 2 / tau.imag


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


def _windows(m: int, tau: complex, y: np.ndarray, eps: float, order: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per characteristic j, the integers n and the column r = n + j/m that cover
    |r + y / Im tau| <= R at every point, R the tail radius for eps at the given
    derivative order.  Rejects a level below 1, Im tau <= 0 and eps <= 0."""
    if m < 1:
        raise ValueError("level must be a positive integer")
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    T = tau.imag
    R = _tail_radius(m, T, eps, float(np.max(np.abs(y))) / T, order)
    center = -y / T
    out = []
    for j in range(m):
        n = np.arange(int(np.floor(center.min() - R - j / m)), int(np.ceil(center.max() + R - j / m)) + 1)
        out.append((n, (n + j / m)[:, None]))
    return out


def _exponent(m: int, tau: complex, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """pi i m Re(tau) r (r + 2 s) - pi m Im(tau) (r + s)^2 for a column r and a
    row s = Im z / Im tau: the term exponent without its a-phase, its real and
    imaginary parts built as real arrays and written into one complex buffer."""
    e = np.empty((r.shape[0], s.shape[0]), dtype=complex)
    e.real = -np.pi * m * tau.imag * (r + s) ** 2
    e.imag = np.pi * m * tau.real * r * (r + 2.0 * s)
    return e


def weighted_table(m: int, tau: complex, z, orders: int = 0, eps: float = 1e-12) -> np.ndarray:
    """Weighted sums W_nu = sum_r (2 pi i m r)^nu exp(...) * exp(-phi_plus(z))
    for all m characteristics at once.

    Every term has nonpositive real exponent, so no large intermediates occur
    regardless of Im z.  Returns shape (orders+1, m, len(z)).

    W_0 is the weighted theta value theta * exp(-phi_plus); W_1 and W_2 are
    the weighted first and second z-derivative sums of theta.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    s = z.imag / tau.imag
    phase = 2.0 * np.pi * m * (z.real - tau.real * s)      # 2 pi m a
    out = np.empty((orders + 1, m, z.shape[0]), dtype=complex)
    for j, (_, r) in enumerate(_windows(m, tau, z.imag, eps, orders)):
        expo = _exponent(m, tau, r, s)
        expo.imag += r * phase
        term = np.exp(expo, out=expo)
        out[0, j] = term.sum(axis=0)
        for nu in range(1, orders + 1):
            term *= 2j * np.pi * m * r
            out[nu, j] = term.sum(axis=0)
    return out


def weighted_grid(m: int, tau: complex, N: int, eps: float = 1e-12) -> Iterator[np.ndarray]:
    """W_0 of weighted_table on the half-offset N x N lattice grid, one
    characteristic at a time.

    Yields m arrays of shape (N, N) indexed [a, b] for z = a + tau b with
    a, b in (arange(N) + 0.5) / N, so that raveling gives the a-major point
    order.  Characteristic j is E_j @ G_j with E_j[a, n] = exp(2 pi i (m n + j) a)
    and G_j[n, b] the b-only factor (see the module docstring).
    """
    t = (np.arange(N) + 0.5) / N
    # the windows see Im z = Im(tau) b, as weighted_table would at these points
    for j, (n, r) in enumerate(_windows(m, tau, tau.imag * t, eps, 0)):
        E = np.exp(2j * np.pi * np.outer(t, m * n + j))
        yield E @ np.exp(_exponent(m, tau, r, t))
