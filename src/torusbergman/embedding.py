"""Projective embedding (criterion A7): the lift, its density floor,
Fubini-Study separation scans and the rank of its differential.

The map sends z to the projective class of the weighted J0-coefficient vector
(g_0(z), ..., g_{d_k}(z)); the common positive weight drops out projectively,
so this is the same point as the frame-coefficient lift and stays bounded.

The basis is a tensor product, so the lift is the Segre composite of the
factor lifts.  A7's near-diagonal profile combines the factor lifts' FS sines
and cosines by the Segre identity, and its rank check (_rank_many) sums
closed-form two-row factor ranks from factor jet tables; no run forms a
product table.  The pullback forms and derivative sums along the ladder are
in pullback.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import HarmonicBasis
from .kernel import leading_coefficient
from .pullback import convergence_report, derivative_sums, pullback_ddbar_many, pullback_jacobian_many
from .theta import grid_pairs
from .util import Draws

__all__ = [
    "ProjectivePoint",
    "well_defined_check",
    "fs_distance",
    "injectivity_scan",
    "differential",
    # re-exported from pullback: bench/child.py wraps them here
    "pullback_jacobian_many",
    "pullback_ddbar_many",
    "convergence_report",
    "derivative_sums",
]


class ProjectivePoint:
    def __init__(self, homogeneous: np.ndarray):
        n = np.linalg.norm(homogeneous)
        if not np.isfinite(n) or n < 1e-300:
            raise ValueError("projective point needs a nonzero homogeneous vector")
        self.homogeneous = homogeneous


def _fs_sin_cos(a: np.ndarray, b: np.ndarray):
    """(sin, cos) of the FS distance of lifts a and b: the norm of normalized
    a's part orthogonal to normalized b, and |<a, b>| / (|a| |b|)."""
    va = a / np.linalg.norm(a)
    vb = b / np.linalg.norm(b)
    c = np.vdot(vb, va)                      # <va, vb> conjugated appropriately
    return np.linalg.norm(va - c * vb), abs(c)


def fs_distance(a: ProjectivePoint, b: ProjectivePoint) -> float:
    """Fubini-Study distance arccos(|<a,b>| / (|a| |b|)) in [0, pi/2].

    Evaluated as atan2(sin, cos) with the orthogonal component supplying the
    sine; arccos alone is ill-conditioned at coincident points.
    """
    return float(np.arctan2(*_fs_sin_cos(a.homogeneous, b.homogeneous)))


class WellDefinedReport(NamedTuple):
    min_ratio: float


def well_defined_check(basis: HarmonicBasis, grid_n: int = 32) -> WellDefinedReport:
    """min over the product grid of density / (b0 k^n), A7's density floor.

    The basis is a tensor product, so that minimum is the product of the
    factor densities' minima on their own grids.
    """
    b0kn = leading_coefficient(basis.model) * basis.k ** basis.model.n
    mins = 1.0
    for t in range(basis.model.n):
        mins *= float(basis.grid_density(t, grid_n).min())
    ratio = mins / b0kn
    return WellDefinedReport(min_ratio=ratio)


class InjectivityReport(NamedTuple):
    min_fs_distance: float
    near_diagonal_alpha: float
    near_diagonal: list[tuple[float, float]]     # (sqrt(k)*delta_g, fs distance)
    offending_pair: tuple[np.ndarray, np.ndarray] | None


def _factor_min_fs(basis: HarmonicBasis, t: int, grid_n: int):
    """Min pairwise FS separation over one factor's grid scan, with argmin pair;
    the (P, P) overlaps are formed 1024 rows at a time."""
    V = basis.grid_table(t, grid_n)
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    P = V.shape[1]
    best = -1.0
    pair = (0, 0)
    for i0 in range(0, P, 1024):
        blockV = V[:, i0:i0 + 1024]
        C = np.abs(blockV.conj().T @ V)
        for r in range(C.shape[0]):
            C[r, i0 + r] = -1.0
        idx = np.unravel_index(np.argmax(C), C.shape)
        if C[idx] > best:
            best = float(C[idx])
            pair = (i0 + idx[0], idx[1])
        del C
    dist = fs_distance(ProjectivePoint(V[:, pair[0]]), ProjectivePoint(V[:, pair[1]]))
    return dist, tuple(grid_pairs(grid_n)[list(pair)])


def injectivity_scan(basis: HarmonicBasis, grid_n: int = 64, rng=None) -> InjectivityReport:
    """Global pairwise Fubini-Study separation plus a near-diagonal profile.

    The orthonormal basis is a tensor product, so the normalized lift inner
    product over the full product grid factorizes, and the minimum pairwise FS
    distance over the grid_n^(2n) scan equals the minimum over factors of the
    per-factor scan; that is computed exhaustively.  The near-diagonal profile
    measures FS distance at g-distances delta in {0.5, 1, 2}/sqrt(k) along
    rng's directions (default util.Draws(0), or a numpy Generator); alpha = min fs / (sqrt(k) delta).
    The lift is the Segre composite of the factor lifts, so with s_t, c_t the
    FS sine and cosine of factor t's lifts, cos d = prod_t c_t and sin^2 d =
    sum_t s_t^2 prod_{u<t} c_u^2 (terms >= 0, conditioned as fs_distance).
    """
    model = basis.model
    k = basis.k
    rng = Draws(0) if rng is None else rng
    min_fs = np.inf
    worst_pair = None
    for t in range(model.n):
        dist, (p1, p2) = _factor_min_fs(basis, t, grid_n)
        if dist < min_fs:
            min_fs = float(dist)
            x1 = model.reduce(rng.random(2 * model.n))      # both points start from the drawn base
            x2 = x1.copy()
            x1[2 * t:2 * t + 2], x2[2 * t:2 * t + 2] = p1, p2
            worst_pair = (x1, x2)
    offender = worst_pair if min_fs < 1e-10 else None

    # draw the 12 pairs (p, then its direction) in turn, then tabulate all 24 points at once
    pairs = []
    scales = []
    for mult in (0.5, 1.0, 2.0):
        delta_g = mult / np.sqrt(k)
        for _ in range(4):
            p = model.reduce(rng.random(2 * model.n))
            direction = rng.normal(size=2 * model.n)
            # convert a chart-coordinate g-length to lattice steps per factor
            vz = direction[0::2] + model.taus * direction[1::2]
            glen = np.sqrt(2.0 * np.sum(np.abs(vz) ** 2))
            pairs += [p, p + direction * (delta_g / glen)]
            scales.append(float(np.sqrt(k) * delta_g))
    tabs = basis.factor_values(np.array(pairs))
    near = []
    for i, sc in enumerate(scales):
        s, c = 0.0, 1.0
        for V in tabs:              # the Segre step: s^2 += (c s_t)^2, c *= c_t
            st, ct = _fs_sin_cos(V[:, 2 * i], V[:, 2 * i + 1])
            s, c = np.hypot(s, c * st), c * ct
        near.append((sc, float(np.arctan2(s, c))))
    alpha = min(d / sc for sc, d in near)
    return InjectivityReport(min_fs_distance=min_fs, near_diagonal_alpha=float(alpha),
                             near_diagonal=near, offending_pair=offender)


class Differential(NamedTuple):
    partials: np.ndarray      # (2n, dim): chart real-coordinate partials
    rank: int


_RANK_TOL = 1e-7    # a singular value counts toward the rank above this times max(largest, |lift|)


def _real_partials(dz: np.ndarray, dzb: np.ndarray) -> np.ndarray:
    """Chart real-coordinate partials (d/dz_t + d/dzb_t, i (d/dz_t - d/dzb_t))
    per t from (n, dim, P) complex partials: (P, 2n, dim)."""
    V = np.stack([dz + dzb, 1j * (dz - dzb)], axis=1)
    return np.moveaxis(V.reshape(-1, *dz.shape[1:]), -1, 0)


def _lift_free(V: np.ndarray, w: np.ndarray):
    """Partials V (P, r, dim) with the fiber direction, the lift w (P, dim),
    projected out, and the lift norms |w| (P,)."""
    nrm2 = np.sum(np.abs(w) ** 2, axis=1)
    return V - (V @ w.conj()[:, :, None]) * w[:, None, :] / nrm2[:, None, None], np.sqrt(nrm2)


def _rank(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per point, the real rank of partials V (P, r, dim) once the fiber
    direction, the lift w (P, dim), is projected out: the singular values of
    the stacked real/imaginary parts above _RANK_TOL * max(largest, |lift|)."""
    proj, lift = _lift_free(V, w)
    sv = np.linalg.svd(np.concatenate([proj.real, proj.imag], axis=2), compute_uv=False)
    tol = _RANK_TOL * np.maximum(sv.max(axis=1, initial=0.0), lift)
    return np.sum(sv > tol[:, None], axis=1)


def _two_row_rank(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """_rank's rule for two rows, V (P, 2, dim), in closed form.  With a, b the
    projected real rows and |a| >= |b|: s1^2 = (|a|^2 + |b|^2 + hypot(|a|^2 - |b|^2,
    2 a.b)) / 2, and s2 = |a| |b - (a.b / |a|^2) a| / s1, free of cancellation."""
    proj, lift = _lift_free(V, w)
    aa, bb = np.sum(np.abs(proj) ** 2, axis=2).T
    a, b = np.where((bb > aa)[:, None, None], proj[:, ::-1], proj).transpose(1, 0, 2)
    aa, bb = np.maximum(aa, bb), np.minimum(aa, bb)
    ab = np.sum(a.real * b.real + a.imag * b.imag, axis=1)
    s1 = np.sqrt((aa + bb + np.hypot(aa - bb, 2.0 * ab)) / 2.0)
    perp = b - (ab / np.where(aa > 0, aa, 1.0))[:, None] * a
    s2 = np.sqrt(aa * np.sum(np.abs(perp) ** 2, axis=1)) / np.where(s1 > 0, s1, 1.0)
    tol = _RANK_TOL * np.maximum(s1, lift)
    return (s1 > tol).astype(int) + (s2 > tol)


def _rank_many(basis: HarmonicBasis, pts: np.ndarray) -> np.ndarray:
    """rank dPhi_k at points (P, 2n), the sum of the factor ranks at z_t, each
    from factor t's jet table by _two_row_rank: the lift is the Segre composite
    of the factor lifts, and the Segre map is an embedding."""
    zs = basis.model.chart_z(pts)
    tabs = (basis.factor_tables(t, zs[:, t], "d1") for t in range(basis.model.n))
    return sum(_two_row_rank(_real_partials(tab["z"][None], tab["zb"][None]), tab["v"].T) for tab in tabs)


def differential(basis: HarmonicBasis, z) -> Differential:
    """Real differential of the lift, from the (dim, 1) product jets, and the
    map's rank by _rank's rule: the one-point product oracle of _rank_many."""
    jets = basis.jets(np.atleast_2d(np.asarray(z, dtype=float)))
    V = _real_partials(jets["dz"], jets["dzb"])
    return Differential(partials=V[0], rank=int(_rank(V, jets["val"].T)[0]))
