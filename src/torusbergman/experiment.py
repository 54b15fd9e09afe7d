"""Declarative experiment driver: config parsing, suite execution, reports.

Config files are plain key = value lines (``#`` comments allowed).  Keys:

    factor        = tau_re tau_im degree          (one line per factor)
    k_ladder      = 4 6 8 10
    theta_eps     = 1e-12
    slope_margin  = 0.3
    seed          = 12345
    experiments   = dims density offdiag far ratio embed pullback derivs
    embed_grid_n  = 9                              (optional scan override)
    budget_<exp>  = 30.0                           (optional wall budget, s;
                                                    budget_all bounds the summed time)
    probe_<name>  = a1 b1 a2 b2 ; a1 b1 a2 b2      (named point lists)

Outputs: one CSV per experiment plus summary.json mapping every enabled
acceptance criterion to {criterion_id, description, measured, threshold,
pass}.  Reruns with the same config and seed produce byte-identical CSV
bodies; random probes come from numpy's seeded PCG64 generator and their
coordinates are echoed into the CSVs.  The retired keys grid_n, gram_tol and
workers are accepted, ignored and named in the summary's warnings.
"""

from __future__ import annotations

import json
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import embedding as emb
from . import kernel as ker
from .geometry import ProductModel, TorusFactor
from .util import fit_slope

__all__ = ["ExperimentConfig", "ConfigError", "RunReport", "parse_config", "run",
           "emit_report", "fit_slope", "EXPERIMENTS"]

EXPERIMENTS = ("dims", "density", "offdiag", "far", "ratio", "embed", "pullback", "derivs")
_FIT_BASED = {"offdiag", "far", "embed", "pullback", "derivs"}
_GRAM_DEV_TOL = 1e-9    # A1 bound on a factor quadrature Gram's relative deviation from closed form
_KNOWN_KEYS = {"factor", "k_ladder", "theta_eps", "slope_margin", "seed", "experiments",
               "embed_grid_n"}
_RETIRED_KEYS = {"grid_n", "gram_tol", "workers"}     # accepted, ignored and warned about
_INT_MIN = {"seed": 0, "embed_grid_n": 1}            # integer keys and their least value
_CRITERIA_DESC = {
    "A1": "dimension law: k^n * prod|d_j| sections, full-rank Gram within 1e-9 of closed form",
    "A2": ("harmonicity: discrete Kodaira-Laplacian residual <= 1e-6 at grid {grid} "
           "(grid 64, doubled while above the bound, at most 512)"),
    "A3": "leading coefficient: trace identity, disc-model oracle, density vs b0*k^n",
    "A4": "off-diagonal Gaussian decay matches 2 Im Psi within 10%, quadratic in separation",
    "A5": "far-field decay: gamma > 0 and k^N-damped decrease on top half ladder",
    "A6": "ratio profile in [0,1], coincidence value 1, interior Gaussian match 15%",
    "A7": "embedding: normalized density >= 0.5, positive FS separation, rank dPhi = 2n",
    "A8": "almost-isometry: E(k) decreasing, ddbar rate >= 0.8, method cross-checks",
    "A9": "asymptotic holomorphicity: special vs generic derivative growth split",
    "A10": "infrastructure: deterministic outputs, validated config, smoke budget",
}


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"line {ln}: [{fieldn}] {msg}" for ln, fieldn, msg in self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    factors: tuple[TorusFactor, ...]
    k_ladder: tuple[int, ...]
    theta_eps: float = 1e-12
    slope_margin: float = 0.3
    seed: int = 20260810
    experiments: tuple[str, ...] = EXPERIMENTS
    embed_grid_n: int | None = None
    budgets: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()        # retired keys met while parsing

    @property
    def model(self) -> ProductModel:
        return ProductModel.from_factors(self.factors)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError carrying all violations."""
    violations = []
    factors = []
    probes = {}
    budgets = {}
    scalars = {}
    retired = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append((ln, "-", f"expected key = value, got {line!r}"))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "factor":
            parts = val.split()
            if len(parts) != 3:
                violations.append((ln, "factor", "expected: tau_re tau_im degree"))
                continue
            try:
                tre, tim = float(parts[0]), float(parts[1])
                deg = int(parts[2])
            except ValueError:
                violations.append((ln, "factor", f"non-numeric factor spec {val!r}"))
                continue
            if tim <= 0:
                violations.append((ln, "factor", f"Im(tau) must be positive, got {tim}"))
                continue
            if deg == 0:
                violations.append((ln, "factor", "degree must be nonzero"))
                continue
            factors.append(TorusFactor(tau=complex(tre, tim), degree=deg))
        elif key.startswith("probe_"):
            name = key[len("probe_"):]
            try:
                pts = [tuple(float(x) for x in chunk.split()) for chunk in val.split(";") if chunk.strip()]
            except ValueError:
                violations.append((ln, key, f"non-numeric probe {val!r}"))
                continue
            probes[name] = pts
        elif key.startswith("budget_"):
            name = key[len("budget_"):]
            if name not in EXPERIMENTS and name != "all":
                violations.append((ln, key, f"unknown experiment {name!r} in budget"))
                continue
            try:
                budgets[name] = float(val)
            except ValueError:
                violations.append((ln, key, f"non-numeric budget {val!r}"))
        elif key in _KNOWN_KEYS:
            scalars[(ln, key)] = val
        elif key in _RETIRED_KEYS:
            retired.append(f"config key {key} (line {ln}) is retired and ignored")
        else:
            violations.append((ln, key, "unknown key"))

    kw = {}
    for (ln, key), val in scalars.items():
        try:
            if key == "k_ladder":
                kw[key] = tuple(int(x) for x in val.split())
            elif key == "experiments":
                names = tuple(val.split())
                bad = [n for n in names if n not in EXPERIMENTS]
                if bad:
                    violations.append((ln, key, f"unknown experiments {bad}"))
                    continue
                kw[key] = names
            elif key in _INT_MIN:
                kw[key] = int(val)
                if kw[key] < _INT_MIN[key]:
                    violations.append((ln, key, f"must be >= {_INT_MIN[key]}, got {val}"))
            elif key in ("theta_eps", "slope_margin"):
                kw[key] = float(val)
        except ValueError:
            violations.append((ln, key, f"could not parse value {val!r}"))

    if not factors:
        violations.append((0, "factor", "at least one factor is required"))
    ladder = kw.get("k_ladder", ())
    if not ladder:
        violations.append((0, "k_ladder", "k_ladder is required"))
    else:
        if any(k <= 0 for k in ladder):
            violations.append((0, "k_ladder", f"entries must be positive: {ladder}"))
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            violations.append((0, "k_ladder", f"non-monotone ladder {ladder}"))
        enabled = kw.get("experiments", EXPERIMENTS)
        if len(ladder) < 4 and _FIT_BASED & set(enabled):
            violations.append((0, "k_ladder", f"length {len(ladder)} < 4 required by fit-based experiments"))
    if kw.get("theta_eps", 1e-12) <= 0:
        violations.append((0, "theta_eps", "must be positive"))
    if violations:
        raise ConfigError(violations)
    try:
        ordered = tuple(sorted(factors, key=lambda f: f.degree >= 0))
        return ExperimentConfig(factors=ordered, probes=probes, budgets=budgets,
                                warnings=tuple(retired), **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError([(0, "-", str(exc))])


@dataclass
class RunReport:
    criteria: list[dict]
    tables: dict[str, tuple[list[str], list[list]]]   # exp -> (header, rows); see _write_rows
    wall: dict[str, float]
    warnings: list[str]
    environment: dict

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.criteria)


def _rng_for(cfg: ExperimentConfig, name: str) -> np.random.Generator:
    return np.random.default_rng(cfg.seed + 1000 * EXPERIMENTS.index(name))


def _bases(cfg: ExperimentConfig, model, ks=None):
    return [basis_mod.build_basis(model, k, eps=cfg.theta_eps) for k in (ks or cfg.k_ladder)]


def _default_pair(model, rng, sep=0.1):
    base = model.reduce(rng.random(2 * model.n))
    x = base.copy()
    x[0] = (x[0] + sep) % 1.0
    return x, base


# -- individual experiments --------------------------------------------------


def _exp_dims(cfg, model, rng):
    # The product Gram is the Kronecker product of the factor Grams, so its
    # minimum eigenvalue is the product of the factor minima.
    rows = []
    ok = True
    min_eig = np.inf
    for k in cfg.k_ladder:
        kb = basis_mod.kunneth_basis(model, k)
        eig = 1.0
        dev = 0.0
        for s in kb.factor_sets:
            g = basis_mod.factor_gram(s.factor, k, eps=cfg.theta_eps).entries
            c = basis_mod.theta_gram_diagonal(s.level, s.factor.im_tau)
            eig *= np.linalg.eigvalsh(g)[0]
            dev = max(dev, float(np.max(np.abs(g - c * np.eye(s.count)))) / c)
        expected = k ** model.n * int(np.prod(np.abs(model.degrees)))
        rows.append([k, kb.count, expected, eig, dev])
        ok = ok and (kb.count == expected) and (eig > 1e-12) and (dev <= _GRAM_DEV_TOL)
        min_eig = min(min_eig, eig)
    crit = [{"criterion_id": "A1", "description": _CRITERIA_DESC["A1"],
             "measured": float(min_eig), "threshold": 1e-12, "pass": bool(ok)}]
    # harmonicity of the level-1 members: the 6th-order stencil's residual falls
    # ~64x per grid doubling; grid 64 meets 1e-6 unless Im tau is small (a thin
    # torus, Im tau = 0.05, needs grid 128), so the grid doubles while above the
    # bound.  The perturbed control uses the final grid; it does not move with
    # the grid (0.034 at tau = i, 0.38 at Im tau = 0.05).
    # Higher levels are certified in the tests.
    if max(abs(f.degree) for f in model.factors) == 1:
        kb = basis_mod.kunneth_basis(model, 1)
        for grid in (64, 128, 256, 512):
            worst = max(basis_mod.harmonicity_residual(model, 1, idx, grid_n=grid)
                        for idx in kb.indices)
            if worst <= 1e-6:
                break
        control = basis_mod.factor_harmonicity_residual(
            model.factors[0], 1, 0, grid_n=grid,
            perturb=lambda A, B: 0.01 * np.cos(2 * np.pi * A) * np.cos(2 * np.pi * B))["laplacian"]
        crit.append({"criterion_id": "A2", "description": _CRITERIA_DESC["A2"].format(grid=grid),
                     "measured": float(worst), "threshold": 1e-6,
                     "pass": bool(worst <= 1e-6 and control >= 1e-3)})
    header = ["k", "sections", "expected", "gram_min_eig", "gram_dev"]
    return rows, header, crit


def _exp_density(cfg, model, rng):
    b0 = ker.leading_coefficient(model)
    probes = cfg.probes.get("density")
    if probes:
        pts = np.array(probes, dtype=float)
    else:
        pts = rng.random((5, 2 * model.n))
    rows = []
    worst_rel = 0.0
    worst_trace = 0.0
    for bas in _bases(cfg, model):
        k = bas.k
        dens = ker.density(bas, pts)
        b0kn = b0 * k ** model.n
        rel = np.abs(dens / b0kn - 1.0)
        tr = ker.trace_density(bas)
        tr_rel = abs(tr / bas.dim - 1.0)
        worst_trace = max(worst_trace, tr_rel)
        if k >= 16 or k == max(cfg.k_ladder):
            worst_rel = max(worst_rel, float(rel.max()))
        for p, d, r in zip(pts, dens, rel):
            rows.append(list(p) + [k, d, b0kn, r])
    disc_rel = 0.0
    for f in model.factors:
        lam = abs(f.weight_scale)
        got = ker.disc_model_density(lam, 8)
        disc_rel = max(disc_rel, abs(got / (8 * lam / np.pi) - 1.0))
    ok = worst_trace <= 1e-8 and disc_rel <= 0.01 and worst_rel <= 0.02
    crit = [{"criterion_id": "A3", "description": _CRITERIA_DESC["A3"],
             "measured": float(max(worst_trace, disc_rel, worst_rel)), "threshold": 0.02,
             "pass": bool(ok)}]
    header = [f"z{i}" for i in range(2 * model.n)] + ["k", "density", "b0k_n", "relerr"]
    return rows, header, crit, {"density": pts.tolist()}


def _exp_offdiag(cfg, model, rng):
    probes = cfg.probes.get("offdiag")
    if probes and len(probes) >= 2:
        x = np.array(probes[0], dtype=float)
        y = np.array(probes[1], dtype=float)
    else:
        x, y = _default_pair(model, rng, sep=0.1)
    bases = _bases(cfg, model)
    fit = ker.offdiagonal_fit(bases, x, y)
    x2 = y + 2.0 * model.centered(x - y)
    fit2 = ker.offdiagonal_fit(bases, x2, y)
    quad_ratio = fit2.c_fit / fit.c_fit
    rows = [[b.k, float(np.linalg.norm(model.chart_dz(x, y))), lr, -b.k * fit.c_model]
            for b, lr in zip(bases, fit.log_ratio)]
    ok = fit.rel_dev <= 0.10 and abs(quad_ratio / 4.0 - 1.0) <= 0.15
    crit = [{"criterion_id": "A4", "description": _CRITERIA_DESC["A4"],
             "measured": float(fit.rel_dev), "threshold": 0.10, "pass": bool(ok)}]
    return rows, ["k", "dist", "log_ratio", "model"], crit, {"offdiag": [x.tolist(), y.tolist()]}


def _exp_far(cfg, model, rng):
    probes = cfg.probes.get("far")
    if probes and len(probes) >= 2:
        x = np.array(probes[0], dtype=float)
        y = np.array(probes[1], dtype=float)
    else:
        y = model.reduce(rng.random(2 * model.n))
        x = model.reduce(y + 0.5)
    bases = _bases(cfg, model)
    rep = ker.far_separation_check(bases, x, y)
    rows = [[int(k), float(np.linalg.norm(model.chart_dz(x, y))), v]
            for k, v in zip(rep.ks, rep.abs_p)]
    crit = [{"criterion_id": "A5", "description": _CRITERIA_DESC["A5"],
             "measured": float(rep.gamma), "threshold": 0.0, "pass": bool(rep.passed)}]
    return rows, ["k", "dist", "abs_p"], crit, {"far": [x.tolist(), y.tolist()]}


def _exp_ratio(cfg, model, rng):
    probes = cfg.probes.get("ratio") or cfg.probes.get("offdiag")
    if probes and len(probes) >= 2:
        x = np.array(probes[0], dtype=float)
        y = np.array(probes[1], dtype=float)
    else:
        x, y = _default_pair(model, rng, sep=0.1)
    k20 = 20 if 20 in cfg.k_ladder else max(cfg.k_ladder)
    bas = basis_mod.build_basis(model, k20, eps=cfg.theta_eps)
    ts = np.linspace(0.0, 1.0, 65)
    fk = ker.ratio_profile(bas, x, y, ts)
    em = ker.expansion_model(model, (model.reduce(x) + model.reduce(y)) / 2.0)
    dz = model.chart_dz(x, y)
    model_mid = float(np.exp(-2.0 * k20 * em.im_psi(0.5 * dz)))
    mid_rel = abs(fk[32] / model_mid - 1.0)
    in_range = bool(np.all(fk >= -1e-12) and np.all(fk <= 1.0 + 1e-12))
    coin = abs(fk[0] - 1.0)
    ok = in_range and coin <= 1e-12 and mid_rel <= 0.15
    rows = [[t, v] for t, v in zip(ts, fk)]
    crit = [{"criterion_id": "A6", "description": _CRITERIA_DESC["A6"],
             "measured": float(mid_rel), "threshold": 0.15, "pass": bool(ok)}]
    return rows, ["t", "f_k"], crit, {"ratio": [x.tolist(), y.tolist()]}


def _exp_embed(cfg, model, rng):
    rows = []
    ok = True
    worst_ratio = np.inf
    scan_n = cfg.embed_grid_n or (64 if model.n == 1 else 10)
    for k in (cfg.k_ladder[0], cfg.k_ladder[-1]):
        bas = basis_mod.build_basis(model, k, eps=cfg.theta_eps)
        wd = emb.well_defined_check(bas, grid_n=max(32, scan_n))
        scan = emb.injectivity_scan(bas, grid_n=scan_n, rng=rng)
        rank_ok = True
        if bas.dim > 2 * model.n:
            # one draw of 50 points reads the same PCG64 stream as 50 single draws;
            # all 50 are drawn even when a rank check fails
            ranks = emb._differential_many(bas, rng.random((50, 2 * model.n))).rank
            rank_ok = bool(np.all(ranks == 2 * model.n))
        rows.append([k, wd.min_ratio, scan.min_fs_distance, scan.near_diagonal_alpha, int(rank_ok)])
        worst_ratio = min(worst_ratio, wd.min_ratio)
        ok = ok and wd.passed and scan.passed and rank_ok
    crit = [{"criterion_id": "A7", "description": _CRITERIA_DESC["A7"],
             "measured": float(worst_ratio), "threshold": 0.5, "pass": bool(ok)}]
    return rows, ["k", "min_ratio", "min_fs", "alpha", "rank_ok"], crit


def _exp_pullback(cfg, model, rng):
    from .geometry import omega as omega_form

    grid_n = cfg.embed_grid_n or (9 if model.n == 1 else 5)
    rep = emb.convergence_report(
        model, cfg.k_ladder, grid_n=grid_n, keep_fields=True,
        basis_builder=lambda k: basis_mod.build_basis(model, k, eps=cfg.theta_eps))
    w0 = omega_form(model)
    n2 = 2 * model.n
    ia, ib = np.triu_indices(n2, 1)
    rows = []          # one block per (method, k): the grid runs down its lines
    for m in rep.errors:
        for k in rep.ks:
            field = rep.fields[(m, int(k))]
            rows.append([rep.grid, int(k), m, field[:, ia, ib], np.max(np.abs(field - w0), axis=(1, 2))])
    # E(k) reaching the float floor by the last rung passes the rate check, as A5
    # passes on kernel underflow; with < 4 rungs above the floor beta reads inf
    e_dd = rep.errors["ddbar_log"]
    fit = rep.slopes["ddbar_log"]
    beta = -fit.slope if fit else np.inf
    floored = [int(k) for k, e in zip(rep.ks, e_dd) if e <= rep.floor]
    e_j = rep.errors["jacobian"][len(rep.ks) // 2:]
    jac_monotone = bool(np.all((np.diff(e_j) < 0) | (e_j[1:] <= rep.floor)))
    # holomorphic cross-check on the positive mirror of this model
    mirror = ProductModel.from_factors([TorusFactor(f.tau, abs(f.degree)) for f in model.factors])
    bpos = basis_mod.build_basis(mirror, 3, eps=cfg.theta_eps)
    zs = rng.random((5, 2 * mirror.n))
    gap = float(np.max(np.abs(emb.pullback_jacobian_many(bpos, zs)
                              - emb.pullback_ddbar_many(bpos, zs))))
    ok = (beta >= 0.8 or e_dd[-1] <= rep.floor) and jac_monotone and gap <= 1e-8
    desc = _CRITERIA_DESC["A8"]
    if floored:
        desc += f"; ddbar E(k) at the float floor {rep.floor:.0e} for k = {floored}"
    crit = [{"criterion_id": "A8", "description": desc,
             "measured": float(beta), "threshold": 0.8, "pass": bool(ok)}]
    header = ([f"z{i}" for i in range(n2)] + ["k", "method"]
              + [f"f{a}{b}" for a, b in zip(ia, ib)] + ["err"])
    return rows, header, crit


def _exp_derivs(cfg, model, rng):
    probes = cfg.probes.get("derivs")
    p = np.array(probes[0], dtype=float) if probes else rng.random(2 * model.n)
    bases = _bases(cfg, model)
    rep = emb.derivative_sums(bases, p)
    n = model.n
    rows = []
    special_ok = True
    generic_ok = True
    worst_gap = np.inf
    for d, fam in rep.families.items():
        sl = rep.slopes[d]
        zero = d in rep.exact_zero
        slope_val = float("nan") if zero else sl.slope
        for k, s in zip(rep.ks, rep.sums[d]):
            rows.append([d[0], fam, int(k), s, slope_val])
        if fam == "special":
            if not zero:
                special_ok = special_ok and sl.slope <= n + cfg.slope_margin
        else:
            generic_ok = generic_ok and (sl is not None and sl.slope >= n + 0.7)
    for ds, fs in rep.families.items():
        if fs != "special":
            continue
        for dg, fg in rep.families.items():
            if fg != "generic":
                continue
            s_slope = -np.inf if ds in rep.exact_zero else rep.slopes[ds].slope
            g_slope = rep.slopes[dg].slope if rep.slopes[dg] else -np.inf
            worst_gap = min(worst_gap, g_slope - s_slope)
    gap_ok = worst_gap >= 0.4
    ok = special_ok and generic_ok and gap_ok and rep.extremal_dev <= 1e-9
    crit = [{"criterion_id": "A9", "description": _CRITERIA_DESC["A9"],
             "measured": float(rep.extremal_dev), "threshold": 1e-9, "pass": bool(ok)}]
    return rows, ["t", "family", "k", "sum", "slope"], crit, {"derivs": [p.tolist()]}


_EXP_FN = {"dims": _exp_dims, "density": _exp_density, "offdiag": _exp_offdiag,
           "far": _exp_far, "ratio": _exp_ratio, "embed": _exp_embed,
           "pullback": _exp_pullback, "derivs": _exp_derivs}
_EXP_CRITERION = {"dims": "A1", "density": "A3", "offdiag": "A4", "far": "A5",
                  "ratio": "A6", "embed": "A7", "pullback": "A8", "derivs": "A9"}


def _describe(exc: BaseException) -> str:
    """Exception type, message and innermost traceback frame (file, line, function)."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"(at {Path(where.filename).name}:{where.lineno} in {where.name})")


def run(cfg: ExperimentConfig, experiments: tuple[str, ...] | None = None) -> RunReport:
    """Execute the enabled experiments in order; failures are recorded, not raised."""
    model = cfg.model
    names = list(experiments if experiments is not None else cfg.experiments)
    tables = {}
    wall = {}
    warnings = list(cfg.warnings)
    criteria = []

    def _one(name):
        t0 = time.perf_counter()
        probes = {}
        try:
            out = _EXP_FN[name](cfg, model, _rng_for(cfg, name))
            rows, header, crit = out[:3]
            if len(out) > 3:
                probes = out[3]
            err = None
        except Exception as exc:   # noqa: BLE001 - isolate sibling experiments
            rows, header, crit, err = [], [], [{
                "criterion_id": _EXP_CRITERION[name],
                "description": f"{name} failed",
                "measured": float("nan"), "threshold": float("nan"), "pass": False}], _describe(exc)
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
        "platform": platform.platform(),
        "seed": cfg.seed,
        "theta_eps": cfg.theta_eps,
        "slope_margin": cfg.slope_margin,
        "k_ladder": list(cfg.k_ladder),
        "factors": [[f.tau.real, f.tau.imag, f.degree] for f in cfg.factors],
        "probes": probes_used,
        "wall_seconds": {k: round(v, 3) for k, v in wall.items()},
    }
    return RunReport(criteria=criteria, tables=tables, wall=wall,
                     warnings=warnings, environment=env)


_CSV_NAME = {"dims": "dims.csv", "density": "density.csv", "offdiag": "offdiag.csv",
             "far": "far.csv", "ratio": "ratio_profile.csv", "embed": "embed_scan.csv",
             "pullback": "pullback.csv", "derivs": "derivatives.csv"}


def _cell(v) -> str:
    """The text of one CSV cell; _write_block writes a block's floats with the same bytes."""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (complex, np.complexfloating)):
        return "%.17g,%.17g" % (v.real, v.imag)
    return str(v)


_CHUNK = 1024     # block lines formatted together


def _write_block(fh, row) -> None:
    """Write a block: its float arrays, of shape (P,) or (P, c), run down P lines
    and its scalar cells repeat on each.  Per chunk each distinct float is
    formatted once; a pullback cell depends on one factor coordinate, so few are."""
    arrays, where, scalars = [], [], []
    for v in row:
        if isinstance(v, np.ndarray):
            arrays.append(v[:, None] if v.ndim == 1 else v)
        else:
            where.append(sum(a.shape[1] for a in arrays))
            scalars.append(_cell(v))
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"block arrays have unequal lengths {sorted(lengths)}")
    for lo in range(0, lengths.pop(), _CHUNK):
        X = np.hstack([a[lo:lo + _CHUNK] for a in arrays]).astype(np.float64, copy=False)
        # unique bit patterns keep -0.0 apart from 0.0 and every NaN payload apart
        bits, inv = np.unique(X.view(np.uint64), return_inverse=True)
        texts = np.array(["%.17g" % x for x in bits.view(np.float64).tolist()], dtype=object)
        lines = np.insert(texts[inv.reshape(X.shape)], where, scalars, axis=1)
        fh.write("".join(",".join(line) + "\n" for line in lines.tolist()))


def _write_rows(fh, rows) -> None:
    """Write rows as they come: a row holding an np.ndarray is a block, any other one line."""
    for row in rows:
        if any(isinstance(v, np.ndarray) for v in row):
            _write_block(fh, row)
        else:
            fh.write(",".join(map(_cell, row)) + "\n")


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write per-experiment CSVs and summary.json; returns written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for name, (header, rows) in report.tables.items():
        path = out / _CSV_NAME[name]
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                _write_rows(fh, rows)
        except OSError as exc:
            raise OSError(f"writing {path} failed: {exc}") from exc
        written.append(str(path))
    summary = {"criteria": report.criteria, "warnings": report.warnings,
               "environment": report.environment, "pass": report.passed}
    path = out / "summary.json"
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"writing {path} failed: {exc}") from exc
    written.append(str(path))
    return written
