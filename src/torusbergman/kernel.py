"""Bergman projector kernel: diagonal density, off-diagonal decay, ratio profile.

The localized J0-scalar kernel in the global theta trivialization is the
finite sum P(x,y) = sum_j g_j(x) conj(g_j(y)) over the orthonormal basis of
weighted coefficients g_j; its diagonal is the local density of states.  The
comparison model is the quadratic-phase Gaussian e^{ik Psi} b0 k^n, which on
flat models is the exact local behavior up to lattice-periodization terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HarmonicBasis, default_resolution
from .geometry import (VOLUME_NORMALIZATION, NormalChart, ProductModel,
                        curvature_matrix, factor_volume, normal_chart)

__all__ = [
    "KernelSample",
    "ExpansionModel",
    "kernel",
    "kernel_in_chart",
    "density",
    "trace_density",
    "expansion_model",
    "offdiagonal_fit",
    "far_separation_check",
    "ratio_profile",
    "disc_model_density",
    "leading_coefficient",
]


@dataclass(frozen=True)
class KernelSample:
    """One localized kernel value between the rank-one J0 form fibers."""

    x: np.ndarray
    y: np.ndarray
    k: int
    value: complex
    gauge_x: complex = 1.0 + 0.0j   # phase transporting to a chart frame
    gauge_y: complex = 1.0 + 0.0j

    @property
    def chart_value(self) -> complex:
        return self.value * self.gauge_x * np.conj(self.gauge_y)


def kernel(basis: HarmonicBasis, x, y) -> KernelSample:
    """P_{k,J0,J0}(x,y) in the global trivialization."""
    v = basis.values(np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]))
    val = complex(np.sum(v[:, 0] * np.conj(v[:, 1])))
    return KernelSample(x=np.asarray(x, float), y=np.asarray(y, float), k=basis.k, value=val)


def kernel_in_chart(basis: HarmonicBasis, chart: NormalChart, x, y) -> KernelSample:
    """Kernel value transported to the normal frame of `chart`.

    x and y are covering-space lattice coordinates on the same chart branch;
    the transport multiplies by exp(-i k Im g_p(u)) at each argument.
    """
    model = basis.model
    ux = model.chart_z(np.asarray(x, float)) - chart.z0
    uy = model.chart_z(np.asarray(y, float)) - chart.z0
    gx = np.exp(-1j * np.imag(chart.gauge(ux, basis.k)))
    gy = np.exp(-1j * np.imag(chart.gauge(uy, basis.k)))
    base = kernel(basis, x, y)
    return KernelSample(x=base.x, y=base.y, k=basis.k, value=base.value,
                        gauge_x=complex(gx), gauge_y=complex(gy))


def density(basis: HarmonicBasis, points) -> np.ndarray:
    """Diagonal J0 density sum_j |g_j|^2 at one or more points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = basis.values(pts)
    out = np.sum(np.abs(v) ** 2, axis=0)
    return out if np.asarray(points).ndim > 1 else float(out[0])


def trace_density(basis: HarmonicBasis, grid_n: int | None = None) -> float:
    """Quadrature integral of the density over M (should equal dim).

    The default grid, max(6m, 24) points per side, is finer than (and offset
    from) the Gram grid, so the identity is a genuine quadrature statement
    rather than the tautology of re-tracing the orthonormalization grid; on
    thin tori it is raised to the Gram grid's default_resolution, whose first
    aliased mode is below 1e-16.
    """
    tot = 1.0
    for t, s in enumerate(basis.factor_sets):
        N = grid_n or max(6 * s.level, 24, default_resolution(s.level, s.factor.im_tau))
        dv = factor_volume(s.factor) / N**2
        tot *= float(np.sum(basis.grid_density(t, N)) * dv)
    return tot


def leading_coefficient(model: ProductModel) -> float:
    """b0 = (2 pi)^(-n) |det of the curvature matrix| (unit tensor power)."""
    R = curvature_matrix(model)
    return float(np.abs(np.linalg.det(R)) / (2.0 * np.pi) ** model.n)


@dataclass(frozen=True)
class ExpansionModel:
    """Quadratic phase model e^{ik Psi} b0 k^n at a basepoint."""

    chart: NormalChart
    b0: float
    lam: np.ndarray
    c_lower: float

    def psi(self, z, w) -> np.ndarray:
        """Psi(z,w) in chart offsets; Im Psi >= 0 with equality iff z=w."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        quad = np.sum(np.abs(self.lam) * np.abs(z - w) ** 2, axis=-1)
        cross = np.sum(self.lam * (np.conj(z) * w - z * np.conj(w)), axis=-1)
        return 1j * quad + 1j * cross

    def im_psi(self, dz) -> np.ndarray:
        dz = np.asarray(dz, dtype=complex)
        return np.sum(np.abs(self.lam) * np.abs(dz) ** 2, axis=-1)


def expansion_model(model: ProductModel, p, n_pairs: int = 200, seed: int = 0) -> ExpansionModel:
    chart = normal_chart(model, p)
    lam = model.lambdas
    # lower constant in Im Psi >= c |x-y|_g^2 fitted over seeded sample pairs
    # (|.|_g^2 = 2 sum |dz|^2; the flat-model infimum is min|lambda|/2)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_pairs, model.n)) + 1j * rng.standard_normal((n_pairs, model.n))
    w = rng.standard_normal((n_pairs, model.n)) + 1j * rng.standard_normal((n_pairs, model.n))
    d = np.concatenate([z - w, np.eye(model.n)])    # axis pairs reach the infimum
    im = np.sum(np.abs(lam) * np.abs(d) ** 2, axis=-1)
    g2 = 2.0 * np.sum(np.abs(d) ** 2, axis=-1)
    c_lower = float(np.min(im / g2))
    return ExpansionModel(chart=chart, b0=leading_coefficient(model), lam=lam, c_lower=c_lower)


@dataclass(frozen=True)
class OffdiagonalFit:
    x: np.ndarray
    y: np.ndarray
    ks: np.ndarray
    log_ratio: np.ndarray           # log f_k = log |P(x,y)|^2/(P(x)P(y))
    c_fit: float                    # fitted decay constant: -d(log f)/dk
    c_model: float                  # 2 Im Psi(x,y)
    rel_dev: float
    phase_dev: float                # max wrapped phase error vs k Re Psi


def _segment_points(model: ProductModel, x, y, ts):
    """Covering-space points y + t*(x - y) using the centered difference."""
    y = model.reduce(y)
    d = model.centered(np.asarray(x, float) - np.asarray(y, float))
    return np.array([y + t * d for t in np.atleast_1d(ts)]), d


def offdiagonal_fit(bases: list[HarmonicBasis], x, y) -> OffdiagonalFit:
    """Gaussian decay fit of the normalized kernel along a k-ladder.

    Fits the slope of log f_k vs k at fixed (x, y) and compares with twice
    the quadratic-model Im Psi; also compares the kernel phase, in the
    midpoint normal frame, against k Re Psi.
    """
    if len(bases) < 4:
        raise ValueError("need at least 4 tensor powers for the decay fit")
    model = bases[0].model
    pts, d = _segment_points(model, x, y, [0.0, 0.5, 1.0])
    ybase, mid, xcov = pts[0], pts[1], pts[2]
    chart = normal_chart(model, mid)
    em = expansion_model(model, mid)
    ux = model.chart_z(xcov) - chart.z0
    uy = model.chart_z(ybase) - chart.z0
    psi = complex(em.psi(ux, uy))
    ks, logf, phs = [], [], []
    for b in bases:
        s = kernel_in_chart(b, chart, xcov, ybase)
        pxx = density(b, xcov)
        pyy = density(b, ybase)
        val = s.chart_value
        if abs(val) <= _noise_floor(pxx, pyy):
            raise FloatingPointError(f"kernel underflow at k={b.k}")
        ks.append(b.k)
        logf.append(np.log(abs(val) ** 2 / (pxx * pyy)))
        ph = np.angle(val) - b.k * np.real(psi)
        phs.append(np.angle(np.exp(1j * ph)))   # wrap to (-pi, pi]
    ks = np.array(ks, dtype=float)
    logf = np.array(logf)
    A = np.stack([np.ones_like(ks), ks], axis=1)
    coef, *_ = np.linalg.lstsq(A, logf, rcond=None)
    c_fit = float(-coef[1])
    c_model = float(2.0 * em.im_psi(ux - uy))
    rel = abs(c_fit - c_model) / c_model if c_model > 0 else abs(c_fit)
    return OffdiagonalFit(x=np.asarray(x, float), y=np.asarray(y, float), ks=ks,
                          log_ratio=logf, c_fit=c_fit, c_model=c_model,
                          rel_dev=float(rel), phase_dev=float(np.max(np.abs(phs))))


def _noise_floor(pxx: float, pyy: float) -> float:
    """Rounding floor for |P(x,y)|: the Cauchy-Schwarz scale times 1e-15.

    Weighted-coefficient sums never underflow to exact zero; they plateau at
    about 1e-16 of sqrt(P(x,x) P(y,y)) (measured on thin-torus stress
    models), below which a value is indistinguishable from rounding noise.
    """
    return 1e-15 * np.sqrt(pxx * pyy)


@dataclass(frozen=True)
class FarFieldReport:
    ks: np.ndarray
    abs_p: np.ndarray
    gamma: float
    damped_decreasing: dict[int, bool]
    underflow_ks: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return (self.gamma > 0 and all(self.damped_decreasing.values())) or bool(self.underflow_ks)


def far_separation_check(bases: list[HarmonicBasis], x, y,
                         damping_orders=(1, 2, 4, 8)) -> FarFieldReport:
    """Rapid-decay check at well-separated points.

    Fits |P_k| <= A e^{-gamma k} and verifies k^N |P_k| decreasing on the top
    half of the ladder for each damping order N.  Kernel values at or below
    the floating-point noise floor count as a pass with annotation (the
    kernel is certifiably below measurement there).
    """
    ks, vals, under = [], [], []
    for b in bases:
        s = kernel(b, x, y)
        floor = _noise_floor(density(b, x), density(b, y))
        if abs(s.value) <= floor:
            under.append(b.k)
            continue
        ks.append(b.k)
        vals.append(abs(s.value))
    ks = np.array(ks, dtype=float)
    vals = np.array(vals)
    if len(ks) >= 2:
        A = np.stack([np.ones_like(ks), ks], axis=1)
        coef, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
        gamma = float(-coef[1])
    else:
        gamma = np.inf
    dec = {}
    half = len(ks) // 2
    for N in damping_orders:
        seq = ks[half:] ** N * vals[half:]
        dec[N] = bool(np.all(np.diff(seq) < 0)) if len(seq) > 1 else True
    return FarFieldReport(ks=ks, abs_p=vals, gamma=gamma, damped_decreasing=dec,
                          underflow_ks=tuple(under))


def ratio_profile(basis: HarmonicBasis, x, y, t_grid) -> np.ndarray:
    """f_k(t) = |P(t x + (1-t) y, y)|^2 / (P(tx+(1-t)y) P(y)) on a t-grid.

    The segment runs on the covering space so a single chart contains it;
    Cauchy-Schwarz gives f_k in [0, 1] with value 1 at coincidence (t=0).
    """
    model = basis.model
    ts = np.asarray(t_grid, dtype=float)
    pts, _ = _segment_points(model, x, y, ts)
    ybase = model.reduce(y)
    V = basis.values(pts)
    vy = basis.values(ybase)[:, 0]
    num = np.abs(V.conj().T @ vy) ** 2
    pxx = np.sum(np.abs(V) ** 2, axis=0)
    pyy = float(np.sum(np.abs(vy) ** 2))
    return num / (pxx * pyy)


def disc_model_density(lam: float, k: int, n_modes: int | None = None,
                       n_r: int = 200, n_th: int = 256, at: float = 0.25) -> float:
    """Flat-space oracle: weighted monomial Gram on a disc.

    Orthonormalizes monomials under the weight exp(-2 k lam |z|^2) and volume
    2 dx dy on a disc of several Gaussian widths, then evaluates the Bergman
    density at radius `at`*R.  The continuum value is k*lam/pi, which pins the
    curvature-eigenvalue and volume conventions jointly.
    """
    if lam <= 0:
        raise ValueError("lam must be positive (use |lambda|)")
    a = 2.0 * k * lam
    R = 6.0 / np.sqrt(a)
    if n_modes is None:
        n_modes = int(np.ceil(a * (at * R) ** 2)) + 12
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * R * (x_gl + 1.0)
    wr = 0.5 * R * w_gl
    th = 2.0 * np.pi * np.arange(n_th) / n_th
    wth = 2.0 * np.pi / n_th
    z = r[:, None] * np.exp(1j * th[None, :])
    weight = np.exp(-a * r**2) * r * wr
    mono = z.ravel()[None, :] ** np.arange(n_modes)[:, None]
    wfull = np.repeat(weight, n_th) * wth * VOLUME_NORMALIZATION
    G = (mono * wfull[None, :]) @ mono.conj().T
    L = np.linalg.cholesky(G)
    z0 = at * R
    v = np.linalg.solve(L, z0 ** np.arange(n_modes).astype(complex))
    return float(np.sum(np.abs(v) ** 2) * np.exp(-a * z0**2))
