"""Bergman projector kernel: diagonal density, off-diagonal decay, ratio profile.

The localized J0-scalar kernel in the global theta trivialization is the
finite sum P(x,y) = sum_j g_j(x) conj(g_j(y)) over the orthonormal basis of
weighted coefficients g_j; its diagonal is the local density of states.  The
basis is a tensor product, so kernel, density and ratio profile are products
of their factor values, read one factor table at a time through
HarmonicBasis.factor_values (cost grows with sum_t m_t, not dim); the decay
measurements read P(x,y), P(x,x) and P(y,y) from one table per factor.  The
comparison model is the gamma = 0 term of the lattice sum of Bargmann-Fock
kernels, b0 k^n exp(-k Im Psi(z - w) + i k Phi(z, w)) in the global
trivialization, which on flat models is the exact local behavior up to the
other lattice terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .basis import HarmonicBasis, default_resolution
from .geometry import VOLUME_NORMALIZATION, ProductModel
from .util import fit_line, noise_floor

__all__ = [
    "ExpansionModel",
    "density",
    "trace_density",
    "expansion_model",
    "offdiagonal_fit",
    "far_separation_check",
    "ratio_profile",
    "disc_model_density",
    "leading_coefficient",
]


def _kernel_pair(basis: HarmonicBasis, x, y) -> tuple[complex, float, float]:
    """P(x,y), P(x,x) and P(y,y), all from one basis.factor_values table per
    factor: the products over factors of sum_j g_tj(x_t) conj(g_tj(y_t)) and
    of the factor densities."""
    tabs = basis.factor_values(np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]))
    pxx, pyy = np.prod([np.sum(np.abs(v) ** 2, axis=0) for v in tabs], axis=0)
    return complex(np.prod([np.sum(v[:, 0] * np.conj(v[:, 1])) for v in tabs])), float(pxx), float(pyy)


def density(basis: HarmonicBasis, points) -> np.ndarray:
    """Diagonal J0 density sum_j |g_j|^2 at one or more points: the product
    of the factor densities sum_j |g_tj(z_t)|^2."""
    out = np.prod([np.sum(np.abs(v) ** 2, axis=0) for v in basis.factor_values(points)], axis=0)
    return out if np.asarray(points).ndim > 1 else float(out[0])


def trace_density(basis: HarmonicBasis) -> float:
    """Trapezoid integral of the density over M (should equal dim).

    The density is the product of the factor densities, so the integral is
    the product over factors of sum_j sum_grid |g_j|^2 dv, that is of the
    trace of HarmonicBasis.grid_gram: the same trapezoid sum, summed over a
    by discrete orthogonality instead of point by point.  The grid,
    max(6m, 24) points per side, is finer than (and offset from) factor_gram's
    max(4m, 16), so the identity is a genuine quadrature statement rather
    than the tautology of re-tracing the oracle's grid; on thin tori it is
    raised to default_resolution, whose first aliased mode is below 1e-16.
    Each of the three is a multiple of m (m <= 3 divides 24), as grid_gram needs.
    """
    tot = 1.0
    for t, s in enumerate(basis.factor_sets):
        N = max(6 * s.level, 24, default_resolution(s.level, s.factor.im_tau))
        tot *= float(basis.grid_gram(t, N).sum())
    return tot


def leading_coefficient(model: ProductModel) -> float:
    """b0 = (2 pi)^(-n) |det of the curvature matrix| (unit tensor power): the
    matrix is diagonal, 2 lambda_t on factor t, so its determinant is their product."""
    return float(np.prod(np.abs(2.0 * model.lambdas)) / (2.0 * np.pi) ** model.n)


class ExpansionModel(NamedTuple):
    """Gaussian decay of the model kernel, |P(z,w)| = b0 k^n e^{-k Im Psi(z - w)}, the same
    at every basepoint of the flat model (b0: leading_coefficient)."""

    lam: np.ndarray
    c_lower: float

    def im_psi(self, dz) -> np.ndarray:
        """Im Psi in chart separations dz; positive unless dz = 0."""
        dz = np.asarray(dz, dtype=complex)
        return np.sum(np.abs(self.lam) * np.abs(dz) ** 2, axis=-1)


def expansion_model(model: ProductModel) -> ExpansionModel:
    lam = model.lambdas
    # best constant in Im Psi >= c |x-y|_g^2 with |.|_g^2 = 2 sum |dz|^2: Im Psi
    # = sum |lambda_t| |dz_t|^2, so c = min|lambda| / 2, attained along an axis
    return ExpansionModel(lam=lam, c_lower=float(np.min(np.abs(lam))) / 2.0)


class OffdiagonalFit(NamedTuple):
    log_ratio: np.ndarray           # log f_k = log |P(x,y)|^2/(P(x)P(y)), every rung
    c_fit: float                    # fitted decay constant -d(log f)/dk on the rungs above the floor
    c_model: float                  # 2 Im Psi(x - y)
    rel_dev: float
    phase_dev: float                # max wrapped error of arg P_k against k Phi(x, y)
    floored: tuple[int, ...]        # rungs whose |P(x,y)| is at or below the rounding floor


def _segment_points(model: ProductModel, x, y, ts):
    """Covering-space points y + t*(x - y) using the centered difference."""
    y = model.reduce(y)
    d = model.centered(np.asarray(x, float) - np.asarray(y, float))
    return np.array([y + t * d for t in np.atleast_1d(ts)])


def offdiagonal_fit(bases: list[HarmonicBasis], x, y) -> OffdiagonalFit:
    """Gaussian decay fit of the normalized kernel along a k-ladder.

    Fits the slope of log f_k vs k at fixed (x, y) and compares with twice
    the quadratic-model Im Psi; also compares the kernel phase in the global
    trivialization against k Phi(z, w), the phase of the lattice sum's
    gamma = 0 term, Phi = -pi sum_t d_t Re(z_t - w_t) Im(z_t + w_t) / Im tau_t
    at the covering-space pair.  Rungs whose |P(x,y)| is at or below the
    rounding floor (util.noise_floor) are listed in `floored` and left out of
    the fit; with fewer than 2 rungs above it c_fit is nan.
    """
    if len(bases) < 4:
        raise ValueError("need at least 4 tensor powers for the decay fit")
    model = bases[0].model
    ybase, xcov = _segment_points(model, x, y, [0.0, 1.0])
    zx, zy = model.chart_z(xcov), model.chart_z(ybase)
    phi = -np.pi * np.sum(np.array(model.degrees) * np.real(zx - zy) * np.imag(zx + zy) / model.taus.imag)
    ks = np.array([b.k for b in bases])
    logf, phs, live = [], [], []
    for b in bases:
        val, pxx, pyy = _kernel_pair(b, xcov, ybase)
        live.append(abs(val) > noise_floor("kernel", np.sqrt(pxx * pyy)))
        with np.errstate(divide="ignore"):      # an exact zero reads -inf, floored
            logf.append(np.log(abs(val) ** 2 / (pxx * pyy)))
        phs.append(np.angle(np.exp(1j * (np.angle(val) - b.k * phi))))   # wrapped to (-pi, pi]
    logf, live = np.array(logf), np.array(live)
    c_fit = -fit_line(ks[live], logf[live]).slope if live.sum() >= 2 else np.nan
    c_model = float(2.0 * expansion_model(model).im_psi(zx - zy))
    rel = abs(c_fit - c_model) / c_model if c_model > 0 else abs(c_fit)
    return OffdiagonalFit(log_ratio=logf, c_fit=c_fit, c_model=c_model,
                          rel_dev=float(rel), phase_dev=float(np.max(np.abs(phs))),
                          floored=tuple(int(k) for k in ks[~live]))


class FarFieldReport(NamedTuple):
    ks: np.ndarray
    abs_p: np.ndarray
    gamma: float
    damped_decreasing: dict[int, bool]
    underflow_ks: tuple[int, ...]


_DAMPING_ORDERS = (1, 2, 4, 8)      # A5's powers N of k in the damped sequences k^N |P_k|


def far_separation_check(bases: list[HarmonicBasis], x, y) -> FarFieldReport:
    """Rapid-decay measurement at well-separated points.

    Fits |P_k| <= A e^{-gamma k} (gamma is inf with fewer than 2 rungs) and
    records, for each damping order N in _DAMPING_ORDERS, whether k^N |P_k|
    decreases on the top half of the ladder.  Kernel values at or below the
    rounding floor (util.noise_floor) are left out of the fit and the damped
    sequences and listed in underflow_ks (the kernel is certifiably below
    measurement there).
    """
    ks, vals, under = [], [], []
    for b in bases:
        val, pxx, pyy = _kernel_pair(b, x, y)
        if abs(val) <= noise_floor("kernel", np.sqrt(pxx * pyy)):
            under.append(b.k)
            continue
        ks.append(b.k)
        vals.append(abs(val))
    ks = np.array(ks, dtype=float)
    vals = np.array(vals)
    gamma = -fit_line(ks, np.log(vals)).slope if len(ks) >= 2 else np.inf
    dec = {}
    half = len(ks) // 2
    for N in _DAMPING_ORDERS:
        seq = ks[half:] ** N * vals[half:]
        dec[N] = bool(np.all(np.diff(seq) < 0)) if len(seq) > 1 else True
    return FarFieldReport(ks=ks, abs_p=vals, gamma=gamma, damped_decreasing=dec,
                          underflow_ks=tuple(under))


def ratio_profile(basis: HarmonicBasis, x, y, t_grid) -> np.ndarray:
    """f_k(t) = |P(t x + (1-t) y, y)|^2 / (P(tx+(1-t)y) P(y)) on a t-grid.

    The segment runs on the covering space so a single chart contains it;
    Cauchy-Schwarz gives f_k in [0, 1] with value 1 at coincidence (t=0).
    Kernel and density factor, so f_k is the product of the factor ratios.
    """
    model = basis.model
    ts = np.asarray(t_grid, dtype=float)
    pts = _segment_points(model, x, y, ts)
    ratios = []
    for V, vy in zip(basis.factor_values(pts), basis.factor_values(model.reduce(y))):
        vy = vy[:, 0]
        num = np.abs(V.conj().T @ vy) ** 2
        pxx = np.sum(np.abs(V) ** 2, axis=0)
        pyy = float(np.sum(np.abs(vy) ** 2))
        ratios.append(num / (pxx * pyy))
    return np.prod(ratios, axis=0)


_DISC_AT = 0.25     # the disc oracle's evaluation radius, as a fraction of the disc's


def disc_model_density(lam: float, k: int) -> float:
    """Flat-space oracle: weighted monomial Gram on a disc.

    Orthonormalizes monomials under the weight exp(-2 k lam |z|^2) and volume
    2 dx dy on a disc of radius R = 6 / sqrt(a), a = 2 k lam, then evaluates
    the Bergman density at z0 = _DISC_AT * R from the first ceil(a z0^2) + 12
    monomials.  The continuum value is k*lam/pi, which pins the
    curvature-eigenvalue and volume conventions jointly.  z^p conj(z^q)
    integrates to 0 over the angle for p != q, so the Gram is diagonal with
    G_pp = 2 pi VOL int_0^R r^(2p+1) e^(-a r^2) dr = pi VOL gamma(p+1, x) / a^(p+1),
    x = a R^2 = 36 and gamma the lower incomplete gamma function, and the
    density is sum_p z0^(2p) / G_pp * exp(-a z0^2).  gamma(p+1, x) comes from
    the upward recurrence gamma(p+1, x) = p gamma(p, x) - x^p e^(-x) from
    gamma(1, x) = 1 - e^(-x), which is stable since every p used is below x.
    """
    if lam <= 0:
        raise ValueError("lam must be positive (use |lambda|)")
    a = 2.0 * k * lam
    R = 6.0 / math.sqrt(a)
    x, u = a * R * R, a * (_DISC_AT * R) ** 2      # u = a z0^2
    gamma, total = -math.expm1(-x), 0.0
    for p in range(math.ceil(u) + 12):
        if p:
            gamma = p * gamma - x ** p * math.exp(-x)
        total += u ** p / gamma
    return a / (math.pi * VOLUME_NORMALIZATION) * total * math.exp(-u)
