"""Projective embedding: well-definedness, injectivity, Fubini-Study pullback,
and directional-derivative growth along the k-ladder.

The map sends z to the projective class of the weighted J0-coefficient vector
(g_0(z), ..., g_{d_k}(z)); the common positive weight drops out projectively,
so this is the same point as the frame-coefficient lift and stays bounded.

The basis is a tensor product, so the lift is the Segre composite of the
factor lifts and (1/k) Phi_k* omega_FS is the sum of the factor forms: block
t is [[0, f_t], [-f_t, 0]] with f_t a scalar field of z_t alone, and every
cross-factor cell is exactly 0.  _factor_forms evaluates f_t by two routes
from one factor table.  The jacobian route pushes real tangent vectors
through the differential of the factor lift and evaluates the Fubini-Study
form there; it is valid for arbitrary smooth maps and is treated as ground
truth.  The ddbar route applies i/(2 pi k) del delbar to the log of the lift
norm squared (equivalently omega plus the same operator on log of the
density); the two agree for holomorphic maps and their gap on
indefinite-signature models is reported as a measured diagnostic.
pullback_jacobian_many and pullback_ddbar_many write these fields into the
(P, 2n, 2n) form, and convergence_report (criterion A8) keeps them as they
are.  A7's near-diagonal profile combines the factor lifts' FS sines and
cosines by the Segre identity, and its rank check (_rank_many) sums closed-form
two-row factor ranks from factor jet tables; no run forms a product table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import HarmonicBasis
from .geometry import ProductModel, omega as omega_form
from .kernel import leading_coefficient
from .theta import grid_pairs
from .util import Draws, SlopeFit, asymptotic_window, fit_slope, noise_floor

__all__ = [
    "ProjectivePoint",
    "DerivativeReport",
    "well_defined_check",
    "fs_distance",
    "injectivity_scan",
    "differential",
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a_jp conj(b_jp) per point p."""
    return np.einsum("jp,jp->p", a, b.conj())


def _factor_forms(basis: HarmonicBasis, t: int, u: np.ndarray, methods) -> dict[str, np.ndarray]:
    """Factor t's one-factor form (1/k) Phi_{k,t}* omega_FS at its lattice
    coordinates u (U, 2): it is [[0, f], [-f, 0]] on (x_t, y_t), and this maps
    each route in methods to its f, shape (U,), both read from one factor
    table per 512 points ("d1" and "d2" share v, z and zb bit for bit).

    method "jacobian": the Fubini-Study form on the real partials V of the
    lift g, antisymmetrised.  "ddbar_log": omega_t + 2 Re(H) / (2 pi k), H the
    complex Hessian of log Q, Q = sum_j |g_j|^2, by the full Wirtinger product
    rule (the weighted coefficients are not holomorphic).
    """
    tau = basis.factor_sets[t].factor.tau
    c = omega_form(basis.model)[2 * t, 2 * t + 1]
    out = {m: np.empty(len(u)) for m in methods}
    for i0 in range(0, len(u), 512):
        z = u[i0:i0 + 512, 0] + tau * u[i0:i0 + 512, 1]
        tab = basis.factor_tables(t, z, "d2" if "ddbar_log" in out else "d1")
        g, dz, dzb = tab["v"], tab["z"], tab["zb"]                         # (m, U)
        Q = np.sum(np.abs(g) ** 2, axis=0)
        if "jacobian" in out:
            V = np.stack([dz + dzb, 1j * (dz - dzb)])                       # (2, m, U)
            vw = np.einsum("ajp,jp->ap", V, g.conj())                       # <V_a, g>
            num = vw[:, None, :] * vw.conj()[None, :, :] - np.einsum("ajp,bjp->abp", V, V.conj()) * Q
            F = np.imag(num) / (np.pi * Q ** 2) / basis.k
            out["jacobian"][i0:i0 + 512] = 0.5 * (F[0, 1] - F[1, 0])
        if "ddbar_log" in out:
            dbQ = _dots(dzb, g) + _dots(dz, g).conj()
            H = ((_dots(tab["zzb"], g) + _dots(dzb, dzb) + _dots(dz, dz) + _dots(g, tab["zzb"])) / Q
                 - np.conj(dbQ) * dbQ / Q**2)
            out["ddbar_log"][i0:i0 + 512] = c + 2.0 * H.real / (2.0 * np.pi * basis.k)
    return out


def _segre_form(basis: HarmonicBasis, pts, method: str) -> np.ndarray:
    """(1/k) Phi* omega_FS at points (P, 2n): the Segre composite of the factor
    forms, f_t in cell (2t, 2t+1), -f_t in (2t+1, 2t), every other cell 0."""
    pts = np.atleast_2d(basis.model.check_point(pts))
    n = basis.model.n
    F = np.zeros((len(pts), 2 * n, 2 * n))
    for t in range(n):
        f = _factor_forms(basis, t, pts[:, 2 * t:2 * t + 2], (method,))[method]
        F[:, 2 * t, 2 * t + 1] = f
        F[:, 2 * t + 1, 2 * t] = -f
    return F


def pullback_jacobian_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS by the jacobian route at many points: (P, 2n, 2n)."""
    return _segre_form(basis, pts, "jacobian")


def pullback_ddbar_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS by the del-delbar route at many points: (P, 2n, 2n)."""
    return _segre_form(basis, pts, "ddbar_log")


class ConvergenceReport(NamedTuple):
    """E(k) per method, its rises, its fitted rates and the form fields.

    (1/k) Phi_k* omega_FS is block diagonal, block t being [[0, f_t], [-f_t, 0]]
    with f_t depending on z_t alone, so a field is kept as its factor scalars:
    fields[(method, k)][t] is f_t at factor t's samples, the grid_n^2 pairs of
    grid and then the cloud's 128 z_t, shape (grid_n^2 + 128,); the sample
    grid is the product of the factor grids, and the cross-factor cells are
    exactly 0.
    """
    ks: np.ndarray
    errors: dict[str, np.ndarray]          # method -> E(k) sup errors
    rise: dict[str, float]                 # method -> max E(k') / E(k) over steps to k' above floor; 0 if none
    slopes: dict[str, SlopeFit | None]    # top-half fit over the rungs above floor; None if < 4
    floor: float                           # rounding floor of E(k): util.noise_floor("form", max(1, max|omega|))
    grid: np.ndarray                       # one factor's grid pairs, (grid_n^2, 2), first coordinate slowest
    fields: dict                           # (method, k) -> per-factor (grid_n^2 + 128,) fields f_t


def convergence_report(model: ProductModel, ks, grid_n: int = 8, eps: float = 1e-12) -> ConvergenceReport:
    """Sup-norm errors E(k) = max |(1/k) Phi* omega_FS - omega| and fitted rates,
    for both pullback routes ("jacobian" and "ddbar_log"), on the bases
    basis.build_basis(model, k, eps=eps).

    The sup is taken over the structured grid (the product of the factor
    grids of half-offset pairs) plus a cloud of 128 points from a generator
    seeded with 7; the grid alone can alias the lattice-frequency ripples of
    the form field to its own sample zeros for resonant k.  `rise` is the
    largest ratio of E(k) from one rung to the next; a step whose later value
    sits at the report's rounding `floor` is not a rise.  The rate is fitted
    on the top half of the rungs whose E(k) is above the floor, and is None
    when fewer than 4 are.

    The fields are built factor by factor: _factor_forms evaluates f_t by both
    routes at factor t's grid pairs and cloud coordinates, and E(k) is the max
    over t of max |f_t - omega_t|, since the cross-factor cells of the form
    and of omega are both exactly 0; no product-size field or grid is formed.
    pullback_jacobian_many / pullback_ddbar_many are the same fields written
    into (P, 2n, 2n) forms.
    """
    from .basis import build_basis

    ks = np.asarray(list(ks), dtype=int)
    if len(ks) < 4:
        raise ValueError("need at least 4 ladder values")
    grid = grid_pairs(grid_n)
    cloud = Draws(7).random((128, 2 * model.n))
    samples = [np.concatenate([grid, cloud[:, 2 * t:2 * t + 2]]) for t in range(model.n)]
    w0 = omega_form(model)
    errors = {m: [] for m in ("jacobian", "ddbar_log")}
    fields = {}
    for k in ks:
        b = build_basis(model, int(k), eps=eps)
        forms = [_factor_forms(b, t, u, tuple(errors)) for t, u in enumerate(samples)]
        for m in errors:
            fs = fields[(m, int(k))] = [f[m] for f in forms]
            errors[m].append(max(float(np.max(np.abs(f - w0[2 * t, 2 * t + 1]))) for t, f in enumerate(fs)))
    slopes, rise = {}, {}
    floor = noise_floor("form", max(1.0, float(np.max(np.abs(w0)))))
    for m in errors:
        e = np.array(errors[m])
        up = e[1:] > floor
        with np.errstate(divide="ignore"):      # a rise from an exact zero reads inf
            rise[m] = float(np.max(e[1:][up] / e[:-1][up], initial=0.0))
        live = e > floor
        i0 = asymptotic_window(int(live.sum()))
        slopes[m] = fit_slope(ks[live][i0:], e[live][i0:]) if live.sum() >= 4 else None
    return ConvergenceReport(ks=ks, errors={m: np.array(v) for m, v in errors.items()}, rise=rise,
                             slopes=slopes, floor=floor, grid=grid, fields=fields)


# -- directional derivative sums ---------------------------------------------


class DerivativeReport(NamedTuple):
    ks: np.ndarray
    sums: dict[tuple[int, str], np.ndarray]     # (t, "L"|"Lbar") -> values over k
    families: dict[tuple[int, str], str]        # "special" | "generic"
    slopes: dict[tuple[int, str], SlopeFit | None]
    exact_zero: set[tuple[int, str]]
    extremal_dev: float                # extremal normalized-form identity deviation


def _normal_frame_first_jets(basis: HarmonicBasis, p):
    """Per-factor normal-frame weighted jets (v, du, dubar) at the chart center p.

    The normal frame's gauge phase is 1 at the center with derivative
    P0 = k dphi0/dz there, so the jets are factor_tables' chart jets shifted by
    it: du = z - P0 v and dubar = zb + conj(P0) v.  P0 is formed exactly as
    factor_tables forms its dphi_plus/dz (times the sign of the degree), so
    holomorphic members get dubar exactly 0 and conjugate members du exactly 0.
    """
    zs = basis.model.chart_z(basis.model.reduce(np.asarray(p, dtype=float)))
    out = []
    for t, s in enumerate(basis.factor_sets):
        z = zs[t:t + 1]
        tab = basis.factor_tables(t, z, "d1")
        P0 = np.sign(s.factor.degree) * (-1j * np.pi * s.level * z.imag / s.factor.im_tau)
        out.append({"v": tab["v"][:, 0], "du": (tab["z"] - P0[None, :] * tab["v"])[:, 0],
                    "dubar": (tab["zb"] + np.conj(P0)[None, :] * tab["v"])[:, 0]})
    return out


def derivative_sums(bases: list[HarmonicBasis], p) -> DerivativeReport:
    """Sum over the basis of |Z S~_{j,J0}(p)|^2 for all 2n frame directions.

    Directions are L_t = d/du_t and Lbar_t in the normal chart at p; the
    special family is {L_t : t <= n_minus} and {Lbar_t : t > n_minus}.  Sums
    that vanish identically (the flat-model degeneracy of the special family)
    are reported as exact-zero cases instead of fitted: a sum at or below
    util.noise_floor("zero") on every rung.  The jets come from HarmonicBasis.factor_tables
    through _normal_frame_first_jets.
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
            if total > noise_floor("zero"):
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
        if np.all(vals <= noise_floor("zero")):
            zeros.add((t, w))
            slopes[(t, w)] = None
        else:
            i0 = asymptotic_window(len(ks))
            slopes[(t, w)] = fit_slope(ks[i0:], vals[i0:])
    return DerivativeReport(ks=ks,
                            sums={d: np.array(v) for d, v in sums.items()},
                            families=families, slopes=slopes, exact_zero=zeros,
                            extremal_dev=float(extremal_dev))
