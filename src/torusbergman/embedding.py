"""Projective embedding: well-definedness, injectivity, Fubini-Study pullback,
and directional-derivative growth along the k-ladder.

The map sends z to the projective class of the weighted J0-coefficient vector
(g_0(z), ..., g_{d_k}(z)); the common positive weight drops out projectively,
so this is the same point as the frame-coefficient lift and stays bounded.

Two pullback routes are implemented.  The jacobian route pushes real tangent
vectors through the full differential of the lift and evaluates the
Fubini-Study form there; it is valid for arbitrary smooth maps and is treated
as ground truth.  The ddbar route applies i/(2 pi k) del delbar to the log of
the lift norm squared (equivalently omega plus the same operator on log of
the density); the two agree for holomorphic maps and their gap on mixed
signature models is reported as a measured diagnostic.

Both routes run on any basis through pullback_jacobian_many and
pullback_ddbar_many.  convergence_report (criterion A8) uses the Segre
identity instead: the product lift is the Segre composite of the factor
lifts, so the pulled-back form is block diagonal with block t the
one-factor form at z_t, and it evaluates each block on a one-factor basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HarmonicBasis
from .geometry import ProductModel, omega as omega_form
from .kernel import density, leading_coefficient
from .util import SlopeFit, asymptotic_window, fit_slope

__all__ = [
    "ProjectivePoint",
    "PullbackSample",
    "DerivativeReport",
    "phi",
    "well_defined_check",
    "fs_distance",
    "injectivity_scan",
    "differential",
    "pullback_jacobian",
    "pullback_ddbar",
    "pullback_jacobian_many",
    "pullback_ddbar_many",
    "convergence_report",
    "derivative_sums",
    "hermitian_to_real_form",
]


@dataclass(frozen=True)
class ProjectivePoint:
    homogeneous: np.ndarray

    def __post_init__(self):
        n = np.linalg.norm(self.homogeneous)
        if not np.isfinite(n) or n < 1e-300:
            raise ValueError("projective point needs a nonzero homogeneous vector")


def phi(basis: HarmonicBasis, z) -> ProjectivePoint:
    """The embedding lift at z: the weighted J0-coefficient vector."""
    v = basis.values(np.asarray(z, dtype=float))[:, 0]
    return ProjectivePoint(homogeneous=v)


def fs_distance(a: ProjectivePoint, b: ProjectivePoint) -> float:
    """Fubini-Study distance arccos(|<a,b>| / (|a| |b|)) in [0, pi/2].

    Evaluated as atan2(sin, cos) with the orthogonal component supplying the
    sine; arccos alone is ill-conditioned at coincident points.
    """
    va = a.homogeneous / np.linalg.norm(a.homogeneous)
    vb = b.homogeneous / np.linalg.norm(b.homogeneous)
    c = np.vdot(vb, va)                      # <va, vb> conjugated appropriately
    perp = va - c * vb
    return float(np.arctan2(np.linalg.norm(perp), abs(c)))


@dataclass(frozen=True)
class WellDefinedReport:
    min_ratio: float
    grid_n: int
    passed: bool


def well_defined_check(basis: HarmonicBasis, grid_n: int = 32) -> WellDefinedReport:
    """min over the product grid of density / (b0 k^n); pass iff >= 0.5.

    The basis is a tensor product, so that minimum is the product of the
    factor densities' minima on their own grids.
    """
    b0kn = leading_coefficient(basis.model) * basis.k ** basis.model.n
    mins = 1.0
    for t in range(basis.model.n):
        mins *= float(basis.grid_density(t, grid_n).min())
    ratio = mins / b0kn
    return WellDefinedReport(min_ratio=ratio, grid_n=grid_n, passed=bool(ratio >= 0.5))


@dataclass(frozen=True)
class InjectivityReport:
    min_fs_distance: float
    grid_n: int
    near_diagonal_alpha: float
    near_diagonal: list[tuple[float, float]]     # (sqrt(k)*delta_g, fs distance)
    offending_pair: tuple[np.ndarray, np.ndarray] | None

    @property
    def passed(self) -> bool:
        return self.min_fs_distance > 0 and self.near_diagonal_alpha > 0


def _factor_min_fs(basis: HarmonicBasis, t: int, grid_n: int, block: int = 1024):
    """Min pairwise FS separation over one factor's grid scan, with argmin pair."""
    V = basis.grid_table(t, grid_n)
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    P = V.shape[1]
    best = -1.0
    pair = (0, 0)
    for i0 in range(0, P, block):
        blockV = V[:, i0:i0 + block]
        C = np.abs(blockV.conj().T @ V)
        for r in range(C.shape[0]):
            C[r, i0 + r] = -1.0
        idx = np.unravel_index(np.argmax(C), C.shape)
        if C[idx] > best:
            best = float(C[idx])
            pair = (i0 + idx[0], idx[1])
        del C
    g = (np.arange(grid_n) + 0.5) / grid_n
    pts = [np.array([g[p // grid_n], g[p % grid_n]]) for p in pair]     # a-major grid order
    dist = fs_distance(ProjectivePoint(V[:, pair[0]]), ProjectivePoint(V[:, pair[1]]))
    return dist, tuple(pts)


def injectivity_scan(basis: HarmonicBasis, grid_n: int = 64, rng=None) -> InjectivityReport:
    """Global pairwise Fubini-Study separation plus a near-diagonal profile.

    The orthonormal basis is a tensor product, so the normalized lift inner
    product over the full product grid factorizes, and the minimum pairwise FS
    distance over the grid_n^(2n) scan equals the minimum over factors of the
    per-factor scan; that is computed exhaustively.  The near-diagonal profile
    measures FS distance at g-distances delta in {0.5, 1, 2}/sqrt(k) along
    seeded directions and fits alpha = min fs / (sqrt(k) delta).
    """
    model = basis.model
    k = basis.k
    rng = np.random.default_rng(0) if rng is None else rng
    min_fs = np.inf
    worst_pair = None
    for t in range(model.n):
        dist, (p1, p2) = _factor_min_fs(basis, t, grid_n)
        if dist < min_fs:
            min_fs = float(dist)
            x1 = np.zeros(2 * model.n)
            x2 = np.zeros(2 * model.n)
            x1[2 * t:2 * t + 2] = p1
            x2[2 * t:2 * t + 2] = p2
            base = model.reduce(rng.random(2 * model.n))
            x1 = np.where(np.arange(2 * model.n) // 2 == t, x1, base)
            x2 = np.where(np.arange(2 * model.n) // 2 == t, x2, base)
            worst_pair = (x1, x2)
    offender = worst_pair if min_fs < 1e-10 else None

    # draw the 12 pairs (p, then its direction) in turn, then lift all 24 points at once
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
    lifts = basis.values(np.array(pairs))
    near = [(sc, fs_distance(ProjectivePoint(lifts[:, 2 * i]), ProjectivePoint(lifts[:, 2 * i + 1])))
            for i, sc in enumerate(scales)]
    alpha = min(d / sc for sc, d in near)
    return InjectivityReport(min_fs_distance=min_fs, grid_n=grid_n,
                             near_diagonal_alpha=float(alpha), near_diagonal=near,
                             offending_pair=offender)


@dataclass(frozen=True)
class Differential:
    lift: np.ndarray          # (dim,)
    partials: np.ndarray      # (2n, dim): chart real-coordinate partials
    rank: int
    singular_values: np.ndarray


def _differential_many(basis: HarmonicBasis, pts, rank_tol: float = 1e-7) -> Differential:
    """differential at many points: each field gains a leading point axis P.

    One jets call and one batched SVD; the rank tolerance is per point,
    rank_tol * max(largest singular value, |lift|).
    """
    jets = basis.jets(np.atleast_2d(np.asarray(pts, dtype=float)))
    w = jets["val"].T                                          # (P, dim)
    V = np.moveaxis(_real_partials_many(jets), -1, 0)          # (P, 2n, dim)
    nrm2 = np.sum(np.abs(w) ** 2, axis=1)
    proj = V - (V @ w.conj()[:, :, None]) * w[:, None, :] / nrm2[:, None, None]
    Mreal = np.concatenate([proj.real, proj.imag], axis=2)    # (P, 2n, 2*dim)
    sv = np.linalg.svd(Mreal, compute_uv=False)                # (P, 2n)
    tol = rank_tol * np.maximum(sv.max(axis=1, initial=0.0), np.sqrt(nrm2))
    return Differential(lift=w, partials=V, rank=np.sum(sv > tol[:, None], axis=1),
                        singular_values=sv)


def differential(basis: HarmonicBasis, z, rank_tol: float = 1e-7) -> Differential:
    """Real differential of the lift and the induced rank of the map.

    The fiber direction (the lift itself) is projected out, then the real rank
    of the remaining 2n directions is computed from singular values of the
    stacked real/imaginary parts.
    """
    d = _differential_many(basis, z, rank_tol)
    return Differential(lift=d.lift[0], partials=d.partials[0], rank=int(d.rank[0]),
                        singular_values=d.singular_values[0])


@dataclass(frozen=True)
class PullbackSample:
    z: np.ndarray
    k: int
    method: str
    form: np.ndarray           # (2n, 2n) real antisymmetric: (1/k) Phi* omega_FS


def _real_partials_many(jets):
    """Chart real-coordinate partials for all points: (2n, dim, P)."""
    dz = jets["dz"]
    dzb = jets["dzb"]
    n, dim, P = dz.shape
    V = np.empty((2 * n, dim, P), dtype=complex)
    V[0::2] = dz + dzb
    V[1::2] = 1j * (dz - dzb)
    return V


def pullback_jacobian_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS at many points: array (P, 2n, 2n)."""
    jets = basis.jets(np.atleast_2d(np.asarray(pts, dtype=float)))
    w = jets["val"]                                   # (dim, P)
    V = _real_partials_many(jets)                     # (2n, dim, P)
    nrm2 = np.sum(np.abs(w) ** 2, axis=0)             # (P,)
    vw = np.einsum("ajp,jp->ap", V, w.conj())         # <V_a, w>
    vv = np.einsum("ajp,bjp->abp", V, V.conj())       # <V_a, V_b>
    num = vw[:, None, :] * vw.conj()[None, :, :] - vv * nrm2[None, None, :]
    F = np.imag(num) / (np.pi * nrm2[None, None, :] ** 2) / basis.k
    F = 0.5 * (F - np.transpose(F, (1, 0, 2)))
    return np.moveaxis(F, -1, 0)


def pullback_jacobian(basis: HarmonicBasis, z) -> PullbackSample:
    """(1/k) Phi* omega_FS through the full real differential of the lift."""
    F = pullback_jacobian_many(basis, np.asarray(z, dtype=float))[0]
    return PullbackSample(z=np.asarray(z, float), k=basis.k, method="jacobian", form=F)


def hermitian_to_real_form(H: np.ndarray) -> np.ndarray:
    """Real components of the 2-form i sum H_ab dz_a wedge dzbar_b.

    Input H is the matrix of mixed second derivatives (Hermitian for a real
    potential), or a stack of them, shape (..., n, n); output is the
    antisymmetric (..., 2n, 2n) matrix on the chart real coordinate frame
    (x_1, y_1, ..., x_n, y_n).
    """
    H = np.asarray(H)
    n = H.shape[-1]
    u = np.array([1.0, 1j])                    # dz on (d/dx, d/dy); dzbar is its conjugate
    M = H[..., :, None, :, None] * u[:, None, None] * u.conj()
    M = M.reshape(H.shape[:-2] + (2 * n, 2 * n))
    return (1j * (M - np.swapaxes(M, -1, -2))).real


def pullback_ddbar_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS via the del-delbar route at many points: (P, 2n, 2n).

    The mixed Hessian of log Q for the non-holomorphic weighted coefficients
    uses the full Wirtinger product rule; for holomorphic lifts it reduces to
    the familiar rank-one formula.
    """
    model = basis.model
    jets = basis.jets(np.atleast_2d(np.asarray(pts, dtype=float)), second=True)
    g = jets["val"]                                        # (dim, P)
    dz = jets["dz"]                                        # (n, dim, P)
    dzb = jets["dzb"]
    dzdzb = jets["dzdzb"]                                  # (n, n, dim, P)
    Q = np.sum(np.abs(g) ** 2, axis=0)                     # (P,)
    dbQ = (np.einsum("bjp,jp->bp", dzb, g.conj())
           + np.einsum("bjp,jp->bp", dz, g.conj()).conj())
    dQ = np.conj(dbQ)
    t1 = np.einsum("abjp,jp->abp", dzdzb, g.conj())
    t2 = np.einsum("bjp,ajp->abp", dzb, dzb.conj())
    t3 = np.einsum("ajp,bjp->abp", dz, dz.conj())
    t4 = np.einsum("jp,bajp->abp", g, dzdzb.conj())
    H = (t1 + t2 + t3 + t4) / Q - dQ[:, None, :] * dbQ[None, :, :] / Q**2
    return omega_form(model) + hermitian_to_real_form(np.moveaxis(H, -1, 0)) / (2.0 * np.pi * basis.k)


def pullback_ddbar(basis: HarmonicBasis, z) -> PullbackSample:
    """(1/k) Phi* omega_FS via omega + (i / 2 pi k) del delbar log(density)."""
    F = pullback_ddbar_many(basis, np.asarray(z, dtype=float))[0]
    return PullbackSample(z=np.asarray(z, float), k=basis.k, method="ddbar_log", form=F)


@dataclass(frozen=True)
class ConvergenceReport:
    ks: np.ndarray
    errors: dict[str, np.ndarray]          # method -> E(k) sup errors
    slopes: dict[str, SlopeFit | None]    # top-half fit over the rungs above floor; None if < 4
    floor: float                           # float floor of E(k): 1e-12 * max(1, max|omega|)
    grid: np.ndarray | None = None         # structured sample points
    fields: dict | None = None             # (method, k) -> form field on grid


def _grid_points(model: ProductModel, grid_n: int) -> np.ndarray:
    g = (np.arange(grid_n) + 0.5) / grid_n
    axes = np.meshgrid(*([g] * (2 * model.n)), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _factor_points(pts: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per factor t, the distinct coordinates z_t among pts and the inverse map."""
    return [np.unique(pts[:, 2 * t:2 * t + 2], axis=0, return_inverse=True) for t in range(n)]


def _form_field(basis: HarmonicBasis, pts: np.ndarray, method: str, factored=None) -> np.ndarray:
    """(1/k) Phi* omega_FS at pts, one factor at a time: (P, 2n, 2n).

    The product lift is the Segre composite of the factor lifts, so the form
    is the sum of the factor forms: block (2t, 2t+1) is the one-factor form
    at z_t, evaluated once per distinct factor coordinate, and the
    cross-factor blocks are exactly 0.  `factored` is _factor_points(pts, n),
    passed in by a caller that evaluates many fields on the same points.
    """
    fn = pullback_jacobian_many if method == "jacobian" else pullback_ddbar_many
    n = basis.model.n
    factored = _factor_points(pts, n) if factored is None else factored
    out = np.zeros((len(pts), 2 * n, 2 * n))
    for t, (s, (uniq, inv)) in enumerate(zip(basis.factor_sets, factored)):
        one = HarmonicBasis(ProductModel((s.factor,)), basis.k, (s,), eps=basis.eps)
        block = np.concatenate([fn(one, uniq[i0:i0 + 512]) for i0 in range(0, len(uniq), 512)])
        out[:, 2 * t:2 * t + 2, 2 * t:2 * t + 2] = block[inv.reshape(-1)]
    return out


def convergence_report(model: ProductModel, ks, grid_n: int = 8,
                       methods=("jacobian", "ddbar_log"), basis_builder=None,
                       noise_floor: float = 0.2, n_random: int = 128,
                       seed: int = 7, keep_fields: bool = False) -> ConvergenceReport:
    """Sup-norm errors E(k) = max |(1/k) Phi* omega_FS - omega| and fitted rates.

    The sup is taken over the structured grid plus a seeded random cloud;
    the grid alone can alias the lattice-frequency ripples of the form field
    to its own sample zeros for resonant k.  Raises if E(k) is non-monotone
    beyond the noise tolerance; a step whose later value sits at the
    report's float `floor` is not a rise.  The rate is
    fitted on the top half of the rungs whose E(k) is above the floor, and
    is None when fewer than 4 are.

    The fields are built factor by factor: the product basis is a tensor
    product, so Phi_k is the Segre composite of the factor lifts and
    Phi_k* omega_FS = sum_t pr_t* Phi_{k,t}* omega_FS, block diagonal with
    block t depending on z_t alone (for both routes, and for conjugate
    factors too).  pullback_jacobian_many / pullback_ddbar_many run on each
    one-factor basis at the distinct factor coordinates only; on the full
    basis they are the oracle for this.  A basis from basis_builder with
    `mix` set breaks the tensor factorization and raises ValueError.
    """
    from .basis import build_basis

    build = basis_builder or (lambda k: build_basis(model, k))
    ks = np.asarray(list(ks), dtype=int)
    if len(ks) < 4:
        raise ValueError("need at least 4 ladder values")
    pts = _grid_points(model, grid_n)
    rng = np.random.default_rng(seed)
    samples = np.concatenate([pts, rng.random((n_random, 2 * model.n))])    # grid, then cloud
    factored = _factor_points(samples, model.n)
    w0 = omega_form(model)
    errors = {m: [] for m in methods}
    kept = {} if keep_fields else None
    for k in ks:
        b = build(int(k))
        if b.mix is not None:
            raise ValueError("convergence_report needs an unmixed product basis; this one has mix set")
        for m in methods:
            field = _form_field(b, samples, m, factored)
            if keep_fields:
                kept[(m, int(k))] = field[:len(pts)]
            errors[m].append(float(np.max(np.abs(field - w0))))
    slopes = {}
    floor = 1e-12 * max(1.0, float(np.max(np.abs(w0))))
    for m in methods:
        e = np.array(errors[m])
        if np.any((e[1:] > e[:-1] * (1.0 + noise_floor)) & (e[1:] > floor)):
            raise RuntimeError(f"E(k) non-monotone beyond noise for method {m}: {e}")
        live = e > floor
        i0 = asymptotic_window(int(live.sum()))
        slopes[m] = fit_slope(ks[live][i0:], e[live][i0:]) if live.sum() >= 4 else None
    return ConvergenceReport(ks=ks, errors={m: np.array(v) for m, v in errors.items()},
                             slopes=slopes, floor=floor,
                             grid=pts if keep_fields else None, fields=kept)


# -- directional derivative sums ---------------------------------------------


@dataclass(frozen=True)
class DerivativeReport:
    p: np.ndarray
    ks: np.ndarray
    sums: dict[tuple[int, str], np.ndarray]     # (t, "L"|"Lbar") -> values over k
    families: dict[tuple[int, str], str]        # "special" | "generic"
    slopes: dict[tuple[int, str], SlopeFit | None]
    exact_zero: set[tuple[int, str]]
    extremal_dev: float                # extremal normalized-form identity deviation


def _normal_frame_first_jets(basis: HarmonicBasis, p):
    """Per-factor normal-frame weighted jets (val, du, dubar) at the chart center.

    At the center the gauge phase is 1 and its first derivative is explicit,
    so holomorphic-side members get dubar exactly 0 and du = W1 - 2 P W0;
    conjugate members are the mirror image.
    """
    model = basis.model
    pr = model.reduce(np.asarray(p, dtype=float))
    zs = model.chart_z(pr)
    out = []
    for t, s in enumerate(basis.factor_sets):
        f = s.factor
        m = s.level
        from .theta import weighted_table

        val, W1 = weighted_table(m, f.tau, np.array([zs[t]]), orders=1, eps=basis.eps)[:, :, 0] * s.scale
        P = -1j * np.pi * m * zs[t].imag / f.im_tau
        du = W1 - 2.0 * P * val
        dubar = np.zeros_like(val)
        if f.degree < 0:
            val, du, dubar = np.conj(val), np.conj(dubar), np.conj(du)
        out.append({"v": val, "du": du, "dubar": dubar})
    return out


def derivative_sums(bases: list[HarmonicBasis], p, zero_floor: float = 1e-250) -> DerivativeReport:
    """Sum over the basis of |Z S~_{j,J0}(p)|^2 for all 2n frame directions.

    Directions are L_t = d/du_t and Lbar_t in the normal chart at p; the
    special family is {L_t : t <= n_minus} and {Lbar_t : t > n_minus}.  Sums
    that vanish identically (the flat-model degeneracy of the special family)
    are reported as exact-zero cases instead of fitted.
    """
    model = bases[0].model
    nm = model.n_minus
    ks = np.array([b.k for b in bases], dtype=float)
    dirs = [(t, w) for t in range(model.n) for w in ("L", "Lbar")]
    sums = {d: [] for d in dirs}
    extremal_dev = 0.0
    for b in bases:
        jets = _normal_frame_first_jets(b, p)
        fac_val = [np.sum(np.abs(j["v"]) ** 2) for j in jets]
        for t, w in dirs:
            key = "du" if w == "L" else "dubar"
            s = np.sum(np.abs(jets[t][key]) ** 2)
            total = s
            for u in range(model.n):
                if u != t:
                    total *= fac_val[u]
            sums[(t, w)].append(float(total))
            if total > zero_floor:
                # extremal-normalized form: coefficients conj(Z S~_j)/sqrt(sum);
                # its Z-derivative squared must reproduce the sum
                jt = jets[t][key]
                c = np.conj(jt) / np.sqrt(np.sum(np.abs(jt) ** 2))
                dev = abs(np.abs(np.sum(c * jt)) ** 2 - np.sum(np.abs(jt) ** 2))
                extremal_dev = max(extremal_dev, dev / max(np.sum(np.abs(jt) ** 2), 1e-300))
                norm_dev = abs(np.linalg.norm(c) - 1.0)
                extremal_dev = max(extremal_dev, norm_dev)
    families = {}
    slopes = {}
    zeros = set()
    for t, w in dirs:
        special = (w == "L" and t < nm) or (w == "Lbar" and t >= nm)
        families[(t, w)] = "special" if special else "generic"
        vals = np.array(sums[(t, w)])
        if np.all(vals <= zero_floor):
            zeros.add((t, w))
            slopes[(t, w)] = None
        else:
            i0 = asymptotic_window(len(ks))
            slopes[(t, w)] = fit_slope(ks[i0:], vals[i0:])
    return DerivativeReport(p=np.asarray(p, float), ks=ks,
                            sums={d: np.array(v) for d, v in sums.items()},
                            families=families, slopes=slopes, exact_zero=zeros,
                            extremal_dev=float(extremal_dev))
