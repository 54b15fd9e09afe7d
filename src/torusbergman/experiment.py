"""Experiment suites: each measures through the library routes and decides
its acceptance criterion, and run executes the enabled ones in order.

A criterion is {criterion_id, description, measured, threshold, pass,
checks}: checks are its sub-check records {name, measured, bound, pass},
pass is their AND, and measured and threshold are the first one's.  Every
verdict is decided here; the library routes only measure.  Random probes
come from util.Draws(seed + 1000 * index in EXPERIMENTS), echoed into the
CSVs and the run's environment.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import embedding as emb
from . import kernel as ker
from . import pullback as pb
from .config import EXPERIMENTS, ExperimentConfig
from .geometry import ProductModel, TorusFactor, omega as omega_form
from .report import IndexedColumn, RunReport
from .report import emit_report      # re-exported: bench/child.py wraps experiment.emit_report
from .util import Draws, norm2

__all__ = ["run", "emit_report"]

_CRITERIA_DESC = {     # formatted from the criterion's check bounds (by name) and fields
    "A1": "dimension law: k^n * prod|d_j| sections, full-rank Gram within {gram_dev:g} of closed form",
    "A2": ("harmonicity: discrete Kodaira-Laplacian residual <= {residual:g} at grid {grid} "
           "(grid {grid_min}, doubled while above the bound, at most {grid_max})"),
    "A3": "leading coefficient: trace identity, disc-model oracle, density vs b0*k^n",
    "A4": ("off-diagonal Gaussian decay matches twice Im Psi within {rel_dev:.0%}, "
           "quadratic in separation within {quad_ratio_dev:.0%}"),
    "A5": "far-field decay: gamma > {gamma:g} and k^N-damped decrease on top half ladder",
    "A6": ("ratio profile in [{f_min:g}, {f_max:.13g}], coincidence value within {coincidence:g} "
           "of one, interior Gaussian match {mid_rel:.0%}"),
    "A7": "embedding: normalized density >= {min_ratio:g}, positive FS separation, full-rank dPhi",
    "A8": ("almost-isometry: E(k) rising at most {rise_ddbar_log:g}x a rung, ddbar rate >= {rate:g}, "
           "method cross-checks"),
    "A9": "asymptotic holomorphicity: special vs generic derivative growth split",
}


def _bases(cfg: ExperimentConfig, model):
    return [basis_mod.build_basis(model, k, eps=cfg.theta_eps) for k in cfg.k_ladder]


def _probe_pair(probes, model, rng, shift):
    """(x, y): a probe list's first two points, else a random y and x = y + shift
    reduced to the torus (drawn only then)."""
    if probes:
        return np.array(probes[0], dtype=float), np.array(probes[1], dtype=float)
    y = model.reduce(rng.random(2 * model.n))
    return model.reduce(y + shift), y


def _check(name, measured, rel, bound, exempt=False) -> dict:
    """A sub-check record {name, measured, bound, pass}: pass iff `measured rel
    bound` holds (nan holds no relation), or the check is exempt."""
    holds = {"<=": measured <= bound, ">=": measured >= bound, ">": measured > bound}[rel]
    return {"name": name, "measured": float(measured), "bound": float(bound), "pass": bool(holds or exempt)}


def _criterion(cid, checks, measured=None, floored=(), desc=None, **fields) -> dict:
    """One summary.json criterion: pass is the AND of its checks, threshold the
    first check's bound and measured its value (unless given).  The description,
    _CRITERIA_DESC[cid] unless given, is formatted from the checks' bounds and
    `fields`, and names the rungs at the rounding floor."""
    desc = (desc or _CRITERIA_DESC[cid]).format(**{c["name"]: c["bound"] for c in checks}, **fields)
    if len(floored):
        desc += f"; rungs at the rounding floor: k = {[int(k) for k in floored]}"
    return {"criterion_id": cid, "description": desc,
            "measured": checks[0]["measured"] if measured is None else float(measured),
            "threshold": checks[0]["bound"], "pass": all(c["pass"] for c in checks), "checks": checks}


# -- individual experiments --------------------------------------------------


def _exp_dims(cfg, model, rng):
    # The factor Grams are diagonal, so the product Gram's minimum eigenvalue is
    # the product of the factor minima; a conjugate factor's Gram is the
    # holomorphic one's, so one is formed per (tau, |degree|) and rung.
    rows = []
    for k in cfg.k_ladder:
        b = basis_mod.build_basis(model, k, eps=cfg.theta_eps)
        eig, devs, seen = 1.0, [], {}
        for s in b.factor_sets:
            key = (s.factor.tau, s.level)
            if key not in seen:
                g = basis_mod.factor_gram(s.factor, k, eps=cfg.theta_eps)
                c = basis_mod.theta_gram_diagonal(s.level, s.factor.im_tau)
                seen[key] = (g.diagonal.min(), float(np.max(np.abs(g.diagonal - c))) / c)
            e, d = seen[key]
            eig *= e
            devs.append(d)
        expected = k ** model.n * int(np.prod(np.abs(model.degrees)))
        rows.append([k, b.dim, expected, eig, np.max(devs)])     # np.max keeps a nan, max drops it
    _, dim, expected, eig, dev = np.array(rows, dtype=float).T
    crit = [_criterion("A1", [_check("gram_min_eig", eig.min(), ">", 1e-12),
                              _check("gram_dev", dev.max(), "<=", 1e-9),
                              _check("dim_gap", np.abs(dim - expected).max(), "<=", 0)])]
    # harmonicity of the level-1 members (member 0 of each factor): the 6th-order
    # stencil's residual falls ~64x per grid doubling; grid 64 meets 1e-6 unless Im tau
    # is small (a thin torus, Im tau = 0.05, needs 128), so the grid doubles while above
    # the bound.  The perturbed control evaluates the final grid again; it does not move
    # with the grid (0.034 at tau = i, 0.38 at Im tau = 0.05).  Higher levels: the tests.
    if max(abs(f.degree) for f in model.factors) == 1:
        grids = (64, 128, 256, 512)
        for grid in grids:
            res = _check("residual", basis_mod.harmonicity_residual(model, 1, (0,) * model.n, grid_n=grid),
                         "<=", 1e-6)
            if res["pass"]:
                break
        control = basis_mod.factor_harmonicity_residual(
            model.factors[0], 1, 0, grid_n=grid,
            perturb=lambda A, B: 0.01 * np.cos(2 * np.pi * A) * np.cos(2 * np.pi * B))["laplacian"]
        crit.append(_criterion("A2", [res, _check("control", control, ">=", 1e-3)],
                               grid=grid, grid_min=grids[0], grid_max=grids[-1]))
    return rows, ["k", "sections", "expected", "gram_min_eig", "gram_dev"], crit, {}


def _exp_density(cfg, model, rng):
    b0 = ker.leading_coefficient(model)
    probes = cfg.probes.get("density")
    pts = np.array(probes, dtype=float) if probes else rng.random((5, 2 * model.n))
    rows, rels, traces = [], [], []
    for bas in _bases(cfg, model):
        k = bas.k
        dens = ker.density(bas, pts)
        b0kn = b0 * k ** model.n
        rel = np.abs(dens / b0kn - 1.0)
        tr = ker.trace_density(bas)
        traces.append(abs(tr / bas.dim - 1.0))
        if k >= 16 or k == max(cfg.k_ladder):
            rels.append(rel.max())
        for p, d, r in zip(pts, dens, rel):
            rows.append(list(p) + [k, d, b0kn, r])
    worst_rel, worst_trace = np.max(rels), np.max(traces)     # np.max keeps a nan rung, max drops it
    lams = [abs(f.weight_scale) for f in model.factors]
    disc_rel = max(abs(ker.disc_model_density(lam, 8) / (8 * lam / np.pi) - 1.0) for lam in lams)
    # the disc oracle's deviation is 1.78e-8 at every lam and k: a sub-check, not in measured
    crit = [_criterion("A3", [_check("density_dev", worst_rel, "<=", 0.02),
                              _check("trace_dev", worst_trace, "<=", 1e-8),
                              _check("disc_dev", disc_rel, "<=", 0.01)], measured=np.maximum(worst_trace, worst_rel))]
    header = [f"z{i}" for i in range(2 * model.n)] + ["k", "density", "b0k_n", "relerr"]
    return rows, header, crit, {"density": pts.tolist()}


def _exp_offdiag(cfg, model, rng):
    x, y = _probe_pair(cfg.probes.get("offdiag"), model, rng, 0.1 * np.eye(2 * model.n)[0])
    bases = _bases(cfg, model)
    fit = ker.offdiagonal_fit(bases, x, y)
    x2 = y + model.centered(x - y) / 2.0
    fit2 = ker.offdiagonal_fit(bases, x2, y)
    rows = [[b.k, norm2(model.chart_dz(x, y)), lr, -b.k * fit.c_model]
            for b, lr in zip(bases, fit.log_ratio)]
    crit = [_criterion("A4", [_check("rel_dev", fit.rel_dev, "<=", 0.10),
                              _check("quad_ratio_dev", abs(fit.c_fit / fit2.c_fit / 4.0 - 1.0), "<=", 0.15),
                              _check("floored_rungs", len(fit.floored) + len(fit2.floored), "<=", 0)],
                       floored=sorted({*fit.floored, *fit2.floored}))]
    return rows, ["k", "dist", "log_ratio", "model"], crit, {"offdiag": [x.tolist(), y.tolist()]}


def _exp_far(cfg, model, rng):
    x, y = _probe_pair(cfg.probes.get("far"), model, rng, 0.5)
    bases = _bases(cfg, model)
    rep = ker.far_separation_check(bases, x, y)
    rows = [[int(k), norm2(model.chart_dz(x, y)), v]
            for k, v in zip(rep.ks, rep.abs_p)]
    crit = [_criterion("A5", [_check("gamma", rep.gamma, ">", 0.0),
                              _check("rising_orders", sum(not d for d in rep.damped_decreasing.values()), "<=", 0)],
                       floored=rep.underflow_ks)]
    return rows, ["k", "dist", "abs_p"], crit, {"far": [x.tolist(), y.tolist()]}


def _exp_ratio(cfg, model, rng):
    x, y = _probe_pair(cfg.probes.get("ratio") or cfg.probes.get("offdiag"), model, rng,
                       0.1 * np.eye(2 * model.n)[0])
    k20 = 20 if 20 in cfg.k_ladder else max(cfg.k_ladder)
    bas = basis_mod.build_basis(model, k20, eps=cfg.theta_eps)
    ts = np.linspace(0.0, 1.0, 65)
    fk = ker.ratio_profile(bas, x, y, ts)
    model_mid = float(np.exp(2.0 * ker.model_exponent(model, k20, *ker._segment_points(model, x, y, [0.5, 0.0])).real))
    tol = 1e-12      # Cauchy-Schwarz range and coincidence value, to rounding
    rows = [[t, v] for t, v in zip(ts, fk)]
    crit = [_criterion("A6", [_check("mid_rel", abs(fk[32] / model_mid - 1.0), "<=", 0.15),
                              _check("f_min", fk.min(), ">=", -tol), _check("f_max", fk.max(), "<=", 1.0 + tol),
                              _check("coincidence", abs(fk[0] - 1.0), "<=", tol)])]
    return rows, ["t", "f_k"], crit, {"ratio": [x.tolist(), y.tolist()]}


def _exp_embed(cfg, model, rng):
    rows, deficient = [], 0
    scan_n = cfg.embed_grid_n or (64 if model.n == 1 else 10)
    for k in (cfg.k_ladder[0], cfg.k_ladder[-1]):
        bas = basis_mod.build_basis(model, k, eps=cfg.theta_eps)
        wd = emb.well_defined_check(bas, grid_n=max(32, scan_n))
        scan = emb.injectivity_scan(bas, grid_n=scan_n, rng=rng)
        short = 0       # sample points where rank dPhi < 2n
        if bas.dim > 2 * model.n:
            # all 50 points in one draw (the stream of 50 single draws), whatever the ranks
            short = int(np.sum(emb._rank_many(bas, rng.random((50, 2 * model.n))) != 2 * model.n))
        rows.append([k, wd.min_ratio, scan.min_fs_distance, scan.near_diagonal_alpha, int(short == 0)])
        deficient += short
    _, ratio, fs, alpha, _ = np.array(rows, dtype=float).T
    crit = [_criterion("A7", [_check("min_ratio", ratio.min(), ">=", 0.5), _check("min_fs", fs.min(), ">", 0.0),
                              _check("alpha", alpha.min(), ">", 0.0),
                              _check("rank_deficient", deficient, "<=", 0)])]
    return rows, ["k", "min_ratio", "min_fs", "alpha", "rank_ok"], crit, {}


def _exp_pullback(cfg, model, rng):
    grid_n = cfg.embed_grid_n or (9 if model.n == 1 else 5)
    rep = pb.convergence_report(model, cfg.k_ladder, grid_n=grid_n, eps=cfg.theta_eps)
    w0 = omega_form(model)
    n2 = 2 * model.n
    ia, ib = np.triu_indices(n2, 1)
    # the grid is the product of the factor grids: line p holds pair p // q^(n-1-t) % q of factor t (q = grid_n^2)
    q, line = grid_n ** 2, np.arange(grid_n ** n2)
    index = [line // q ** (model.n - 1 - t) % q for t in range(model.n)]
    grid = [IndexedColumn(rep.grid, i) for i in index]
    # err reads the n q factor deviations |f_t - omega_t| through the worse factor's entry t q + index[t]
    entry = np.array(index) + q * np.arange(model.n)[:, None]
    rows = []          # one block per (method, k): the grid runs down its lines
    for m in rep.errors:
        for k in rep.ks:
            fields = [f[:q] for f in rep.fields[(m, int(k))]]      # at the grid pairs
            # cell f_{2t,2t+1} is factor t's field at the grid point; the cross-factor cells are exactly 0
            cells = [IndexedColumn(fields[a // 2], index[a // 2]) if a % 2 == 0 and b == a + 1
                     else 0.0 for a, b in zip(ia, ib)]
            dev = np.abs(np.concatenate(fields) - np.repeat(np.diag(w0, 1)[::2], q))
            err = IndexedColumn(dev, entry[np.argmax(dev[entry], axis=0), line])
            rows.append([*grid, int(k), m, *cells, err])
    # E(k) reaching the rounding floor by the last rung passes the rate check;
    # with < 4 rungs above the floor beta reads inf
    e_dd = rep.errors["ddbar_log"]
    fit = rep.slopes["ddbar_log"]
    beta = -fit.slope if fit else np.inf
    e_j = rep.errors["jacobian"][len(rep.ks) // 2:]     # top half: falls, or sits at the floor
    stalls = int(np.sum(~((np.diff(e_j) < 0) | (e_j[1:] <= rep.floor))))
    # holomorphic cross-check on the positive mirror of this model
    mirror = ProductModel.from_factors([TorusFactor(f.tau, abs(f.degree)) for f in model.factors])
    bpos = basis_mod.build_basis(mirror, 3, eps=cfg.theta_eps)
    zs = rng.random((5, 2 * mirror.n))
    gap = float(np.max(np.abs(pb.pullback_jacobian_many(bpos, zs)
                              - pb.pullback_ddbar_many(bpos, zs))))
    checks = [_check("rate", beta, ">=", 0.8, exempt=e_dd[-1] <= rep.floor),
              *(_check(f"rise_{m}", r, "<=", 1.2) for m, r in rep.rise.items()),
              _check("jacobian_stalls", stalls, "<=", 0), _check("cross_gap", gap, "<=", 1e-8)]
    header = ([f"z{i}" for i in range(n2)] + ["k", "method"]
              + [f"f{a}{b}" for a, b in zip(ia, ib)] + ["err"])
    return rows, header, [_criterion("A8", checks, floored=rep.ks[e_dd <= rep.floor])], {}


def _exp_derivs(cfg, model, rng):
    probes = cfg.probes.get("derivs")
    p = np.array(probes[0], dtype=float) if probes else rng.random(2 * model.n)
    bases = _bases(cfg, model)
    rep = pb.derivative_sums(bases, p)
    n = model.n
    # an exact zero (no fit) reads slope -inf: it passes the special bound and
    # fails the generic one; each factor has one direction of each family
    slope = {d: rep.slopes[d].slope if rep.slopes[d] else -np.inf for d in rep.families}
    rows = [[d[0], fam, int(k), s, float("nan") if d in rep.exact_zero else slope[d]]
            for d, fam in rep.families.items() for k, s in zip(rep.ks, rep.sums[d])]
    special = max(slope[d] for d, fam in rep.families.items() if fam == "special")
    generic = min(slope[d] for d, fam in rep.families.items() if fam == "generic")
    crit = [_criterion("A9", [_check("extremal_dev", rep.extremal_dev, "<=", 1e-9),
                              _check("special_slope", special, "<=", n + 0.3),
                              _check("generic_slope", generic, ">=", n + 0.7),
                              # the least pairwise gap; nan (both -inf) fails
                              _check("slope_gap", generic - special, ">=", 0.4)])]
    return rows, ["t", "family", "k", "sum", "slope"], crit, {"derivs": [p.tolist()]}


_EXP_FN = {"dims": _exp_dims, "density": _exp_density, "offdiag": _exp_offdiag,
           "far": _exp_far, "ratio": _exp_ratio, "embed": _exp_embed,
           "pullback": _exp_pullback, "derivs": _exp_derivs}
_EXP_CRITERION = {"dims": "A1", "density": "A3", "offdiag": "A4", "far": "A5",
                  "ratio": "A6", "embed": "A7", "pullback": "A8", "derivs": "A9"}


def _describe(exc: BaseException) -> str:
    """Exception type, message and innermost traceback frame (file, line, function)."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return f"{type(exc).__name__}: {exc} (at {Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name})"


def run(cfg: ExperimentConfig, experiments: tuple[str, ...] | None = None) -> RunReport:
    """Execute the enabled experiments in order.  No check raises: an exception
    is a fault, recorded as a warning and a failed criterion, not raised."""
    model = cfg.model
    names = list(experiments if experiments is not None else cfg.experiments)
    tables, wall, criteria = {}, {}, []
    warnings = list(cfg.warnings)

    def _one(name):
        t0 = time.perf_counter()
        try:
            rng = Draws(cfg.seed + 1000 * EXPERIMENTS.index(name))
            rows, header, crit, probes = _EXP_FN[name](cfg, model, rng)
            err = None
        except Exception as exc:   # noqa: BLE001 - a fault in one experiment spares its siblings
            rows, header, probes, err = [], [], {}, _describe(exc)
            crit = [_criterion(_EXP_CRITERION[name], [_check("completed", 0, ">=", 1)], desc=f"{name} failed")]
        return rows, header, crit, err, probes, time.perf_counter() - t0

    probes_used = {}
    for name in names:
        rows, header, crit, err, probes, secs = _one(name)
        tables[name] = (header, rows)
        wall[name] = secs
        criteria.extend(crit)
        probes_used.update(probes)
        if err:
            warnings.append(f"experiment {name} failed: {err}")
        budget = cfg.budgets.get(name)
        if budget is not None and secs > budget:
            warnings.append(f"experiment {name} exceeded budget: {secs:.1f}s > {budget:.1f}s")
    total = sum(wall.values())
    if "all" in cfg.budgets and total > cfg.budgets["all"]:
        warnings.append(f"all experiments together exceeded budget_all: "
                        f"{total:.1f}s > {cfg.budgets['all']:.1f}s")

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": "{0.sysname}-{0.release}-{0.machine}".format(os.uname()),
        "seed": cfg.seed,
        "theta_eps": cfg.theta_eps,
        "k_ladder": list(cfg.k_ladder),
        "factors": [[f.tau.real, f.tau.imag, f.degree] for f in cfg.factors],
        "probes": probes_used,
        "wall_seconds": {k: round(v, 3) for k, v in wall.items()},
    }
    return RunReport(criteria=criteria, tables=tables, warnings=warnings, environment=env)
