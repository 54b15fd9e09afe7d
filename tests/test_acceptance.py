"""Acceptance criteria A1-A10, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from _oracles import distance, injectivity_scale
from torusbergman.basis import (
    build_basis,
    factor_harmonicity_residual,
    gram,
    harmonicity_residual,
)
from torusbergman.config import parse_config
from torusbergman.embedding import differential, injectivity_scan, well_defined_check
from torusbergman.experiment import run
from torusbergman.geometry import ProductModel, TorusFactor
from torusbergman.kernel import (
    density,
    disc_model_density,
    expansion_model,
    far_separation_check,
    leading_coefficient,
    offdiagonal_fit,
    ratio_profile,
    trace_density,
)
from torusbergman.pullback import convergence_report, derivative_sums, pullback_ddbar_many, pullback_jacobian_many
from torusbergman.report import emit_report

TAU = 1j
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

A1_CONFIGS = [(-1,), (-2,), (-1, 1), (-1, 2)]


def model(*degrees):
    return ProductModel.from_factors([TorusFactor(TAU, d) for d in degrees])


def report(cid, ok, measured, threshold, note=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{cid} {verdict}  measured={measured:.6g}  threshold={threshold:.6g}  {note}")
    return ok


def test_a1_dimension_law():
    ok = True
    worst = np.inf
    for degs in A1_CONFIGS:
        m = model(*degs)
        for k in (4, 8, 12, 16):
            b = build_basis(m, k)
            expected = k ** m.n * int(np.prod([abs(d) for d in degs]))
            eig = gram(b).diagonal       # the Gram is diagonal: its eigenvalues
            ok = ok and b.dim == expected and eig.min() > 1e-12
            worst = min(worst, eig.min())
    assert report("A1", ok, worst, 1e-12, "exact section counts, min Gram eigenvalue")


def test_a2_harmonicity():
    # unit-level certification config: every section of the k=1 bases
    worst = 0.0
    for degs in [(-1,), (-1, 1)]:
        m = model(*degs)
        for idx in product(*(range(s.level) for s in build_basis(m, 1).factor_sets)):
            worst = max(worst, harmonicity_residual(m, 1, idx, grid_n=64))
    control = factor_harmonicity_residual(
        TorusFactor(TAU, -1), 1, 0, grid_n=64,
        perturb=lambda A, B: 0.01 * np.cos(2 * np.pi * A) * np.cos(2 * np.pi * B))["laplacian"]
    ok = worst <= 1e-6 and control >= 1e-3
    assert report("A2", ok, worst, 1e-6, f"negative control residual {control:.2e}")


def test_a3_leading_coefficient_and_calibration():
    # (i) trace identity
    trace_dev = 0.0
    for degs, k in [((-1,), 8), ((-2,), 4), ((-1, 1), 4), ((-1, 2), 3)]:
        b = build_basis(model(*degs), k)
        trace_dev = max(trace_dev, abs(trace_density(b) / b.dim - 1.0))
    ok_i = trace_dev <= 1e-8
    # (ii) disc-model oracle pins the conventions
    disc_dev = 0.0
    for lam, k in [(np.pi / 2, 8), (np.pi, 6)]:
        disc_dev = max(disc_dev, abs(disc_model_density(lam, k) / (k * lam / np.pi) - 1.0))
    ok_ii = disc_dev <= 0.01
    # (iii) density/k^n within 2% of b0 for k >= 16 on all four configs
    dens_dev = 0.0
    rng = np.random.default_rng(0)
    for degs in A1_CONFIGS:
        m = model(*degs)
        b0 = leading_coefficient(m)
        for k in (16, 20):
            b = build_basis(m, k)
            d = density(b, rng.random((3, 2 * m.n)))
            dens_dev = max(dens_dev, float(np.max(np.abs(d / k ** m.n / b0 - 1.0))))
    ok_iii = dens_dev <= 0.02
    ok = ok_i and ok_ii and ok_iii
    assert report("A3", ok, max(trace_dev, disc_dev, dens_dev), 0.02,
                  f"trace {trace_dev:.2e}, disc {disc_dev:.2e}, density {dens_dev:.2e}")


@pytest.fixture(scope="module")
def decay_ladder():
    m = model(-1)
    return [build_basis(m, k) for k in range(8, 44, 4)]


def test_a4_offdiagonal_gaussian_decay(decay_ladder):
    y = np.array([0.35, 0.30])
    fit1 = offdiagonal_fit(decay_ladder, np.array([0.45, 0.30]), y)    # separation 0.10
    fit15 = offdiagonal_fit(decay_ladder, np.array([0.50, 0.30]), y)   # separation 0.15
    quad = offdiagonal_fit(decay_ladder, np.array([0.55, 0.30]), y)    # double of 0.10
    quad_dev = abs(quad.c_fit / fit1.c_fit / 4.0 - 1.0)
    ok = fit1.rel_dev <= 0.10 and fit15.rel_dev <= 0.10 and quad_dev <= 0.15
    assert report("A4", ok, max(fit1.rel_dev, fit15.rel_dev), 0.10,
                  f"quadratic-law deviation {quad_dev:.3f}")


def test_a5_far_field_decay(decay_ladder):
    m = model(-1)
    x, y = np.array([0.0, 0.0]), np.array([0.5, 0.5])
    assert distance(m, x, y) >= 0.4 * injectivity_scale(m)
    rep = far_separation_check(decay_ladder, x, y)
    ok = rep.gamma > 0 and all(rep.damped_decreasing.values())
    note = "k^N-damped decreasing for N in {1,2,4,8}"
    if rep.underflow_ks:
        note += f"; underflow at k={rep.underflow_ks}"
    assert report("A5", ok, rep.gamma, 0.0, note)


def test_a6_ratio_profile():
    m = model(-1)
    b = build_basis(m, 20)
    x, y = np.array([0.45, 0.30]), np.array([0.35, 0.30])
    ts = np.linspace(0.0, 1.0, 64)
    fk = ratio_profile(b, x, y, ts)
    em = expansion_model(m)
    dz = m.chart_dz(x, y)
    interior_dev = abs(fk[32] / np.exp(-2 * 20 * em.im_psi(ts[32] * dz)) - 1.0)
    ok = (abs(fk[0] - 1.0) <= 1e-12 and np.all(fk >= -1e-15)
          and np.all(fk <= 1 + 1e-12) and interior_dev <= 0.15)
    assert report("A6", ok, interior_dev, 0.15,
                  f"coincidence deviation {abs(fk[0] - 1.0):.2e}")


def test_a7_embedding_well_defined_injective_immersive():
    ok = True
    min_ratio = np.inf
    rng = np.random.default_rng(20260810)
    for degs, k, scan_n in [((-1,), 12, 64), ((-1, 1), 6, 64)]:
        m = model(*degs)
        b = build_basis(m, k)
        wd = well_defined_check(b, 32)
        scan = injectivity_scan(b, grid_n=scan_n, rng=rng)
        ok = ok and wd.min_ratio >= 0.5 and scan.min_fs_distance > 0 and scan.near_diagonal_alpha > 0
        min_ratio = min(min_ratio, wd.min_ratio)
        if b.dim > 2 * m.n:
            for _ in range(50):
                ok = ok and differential(b, rng.random(2 * m.n)).rank == 2 * m.n
    assert report("A7", ok, min_ratio, 0.5, "min density ratio; FS scans positive; rank 2n")


def test_a8_almost_isometry():
    rep10 = convergence_report(model(-1), [4, 6, 8, 10, 12, 14, 16], grid_n=9)
    rep11 = convergence_report(model(-1, 1), [4, 6, 8, 10, 12], grid_n=4)
    beta10 = -rep10.slopes["ddbar_log"].slope
    beta11 = -rep11.slopes["ddbar_log"].slope
    jac_ok = True
    for rep in (rep10, rep11):
        e = rep.errors["jacobian"]
        jac_ok = jac_ok and bool(np.all(np.diff(e[len(e) // 2:]) < 0))
    bpos = build_basis(model(1), 3)
    pts = np.random.default_rng(1).random((8, 2))
    gap = float(np.max(np.abs(pullback_jacobian_many(bpos, pts) - pullback_ddbar_many(bpos, pts))))
    ok = beta10 >= 0.8 and beta11 >= 0.8 and jac_ok and gap <= 1e-8
    assert report("A8", ok, min(beta10, beta11), 0.8,
                  f"jacobian monotone; positive-config method gap {gap:.2e}")


def test_a9_asymptotic_holomorphicity():
    m = model(-1, 1)
    n = m.n
    bases = [build_basis(m, k) for k in (8, 12, 16, 20, 24)]
    rep = derivative_sums(bases, np.array([0.31, 0.42, 0.56, 0.27]))
    special_ok = True
    generic_slopes = []
    special_slopes = []
    for d, fam in rep.families.items():
        if fam == "special":
            if d in rep.exact_zero:
                # flat-model degeneracy: identically-zero sums satisfy O(k^n)
                special_slopes.append(-np.inf)
            else:
                special_ok = special_ok and rep.slopes[d].slope <= n + 0.3
                special_slopes.append(rep.slopes[d].slope)
        else:
            generic_slopes.append(rep.slopes[d].slope)
    generic_ok = all(s >= n + 0.7 for s in generic_slopes)
    gap_ok = min(generic_slopes) - max(special_slopes) >= 0.4
    # positive-config special sums vanish identically
    mpos = model(2)
    rpos = derivative_sums([build_basis(mpos, k) for k in (4, 6, 8, 10)], np.array([0.4, 0.3]))
    pos_ok = all(d in rpos.exact_zero for d, fam in rpos.families.items() if fam == "special")
    ok = special_ok and generic_ok and gap_ok and pos_ok and rep.extremal_dev <= 1e-9
    note = (f"generic slopes {['%.3f' % s for s in generic_slopes]}, special exact-zero, "
            f"extremal dev {rep.extremal_dev:.1e}")
    assert report("A9", ok, min(generic_slopes), n + 0.7, note)


def test_a10_infrastructure(tmp_path):
    cfg = parse_config((CONFIG_DIR / "sig11_smoke.cfg").read_text())
    t0 = time.perf_counter()
    r1 = run(cfg)
    wall = time.perf_counter() - t0
    r2 = run(cfg)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    emit_report(r1, d1)
    emit_report(r2, d2)
    identical = all(
        (d1 / f.name).read_bytes() == (d2 / f.name).read_bytes()
        for f in d1.glob("*.csv")
    )
    malformed = [
        "factor = 0.0 1.0 0\nk_ladder = 1 2 3 4\n",                   # zero degree
        "factor = 0.0 -1.0 1\nk_ladder = 1 2 3 4\n",                  # Im tau <= 0
        "factor = 0.0 1.0 1\nk_ladder = 8 8 12\n",                    # non-monotone
        "factor = 0.0 1.0 1\nk_ladder = 1 2 3 4\ntheta_eps = 0\n",    # non-positive eps
        "factor = 0.0 1.0 1\nk_ladder = 1 2 3 4\nmystery = 1\n",
        "factor = 0.0 1.0 1\nk_ladder = 2 4 6\nexperiments = offdiag\n",
        "factor = 0.0 1.0 1\nk_ladder = 1 2 3 4\nseed = -1\n",          # negative seed
        "factor = 0.0 1.0 1\nk_ladder = 1 2 3 4\nembed_grid_n = 0\n",   # empty scan grid
        "factor = 0.0 1.0 1\nk_ladder = 1 2 3 4\nembed_grid_n = 1\n",   # one-point scan grid
    ]
    rejected = 0
    for text in malformed:
        try:
            parse_config(text)
        except Exception:
            rejected += 1
    ok = r1.passed and identical and rejected == len(malformed) and wall < 120.0
    assert report("A10", ok, wall, 120.0,
                  f"byte-identical reruns={identical}, {rejected}/{len(malformed)} malformed rejected")
