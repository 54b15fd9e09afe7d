"""Fubini-Study pullback forms (criterion A8) and directional-derivative
growth (criterion A9) of the projective embedding along the k-ladder.

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
are.  derivative_sums reads the normal-frame first jets of each factor.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import HarmonicBasis
from .geometry import ProductModel, omega as omega_form
from .theta import grid_pairs
from .util import Draws, SlopeFit, asymptotic_window, fit_slope, noise_floor, norm2

__all__ = [
    "DerivativeReport",
    "pullback_jacobian_many",
    "pullback_ddbar_many",
    "convergence_report",
    "derivative_sums",
]


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
                norm_dev = abs(norm2(c) - 1.0)
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
