import tracemalloc

import numpy as np
import pytest

from _oracles import (
    RemixedBasis,
    chart_kernel,
    cholesky_disc_density,
    curvature_matrix,
    evaluate_combination,
    lattice_phase,
    normal_chart,
    product_density,
    product_kernel,
    product_ratio_profile,
    project_coefficients,
    psi,
)
from torusbergman import kernel
from torusbergman.basis import build_basis, default_resolution
from torusbergman.geometry import ProductModel, TorusFactor, factor_volume
from torusbergman.kernel import (
    _kernel_pair,
    _segment_points,
    density,
    disc_model_density,
    expansion_model,
    far_separation_check,
    leading_coefficient,
    offdiagonal_fit,
    ratio_profile,
    trace_density,
)

TAU = 1j


def model(*degrees, tau=TAU):
    return ProductModel.from_factors([TorusFactor(tau, d) for d in degrees])


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def basis_m1_k8():
    return build_basis(model(-1), 8)


class TestKernel:
    def test_diagonal_real_nonnegative(self, basis_m1_k8):
        v = _kernel_pair(basis_m1_k8, np.array([0.3, 0.4]), np.array([0.3, 0.4]))[0]
        assert abs(v.imag) < 1e-12 * abs(v)
        assert v.real > 0

    def test_hermitian_symmetry(self, basis_m1_k8):
        x, y = np.array([0.1, 0.8]), np.array([0.55, 0.21])
        a = _kernel_pair(basis_m1_k8, x, y)[0]
        b = _kernel_pair(basis_m1_k8, y, x)[0]
        assert abs(a - np.conj(b)) < 1e-12 * abs(a)

    def test_reproducing_property(self, basis_m1_k8):
        b = basis_m1_k8
        rng = np.random.default_rng(23)
        N = 64
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        samples = b.values(pts)[0]          # first orthonormal section
        coeff = project_coefficients(b, samples, N)
        xs = rng.random((10, 2))
        got = evaluate_combination(b, coeff, xs)
        want = b.values(xs)[0]
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_projector_idempotent_at_quadrature_level(self, basis_m1_k8):
        b = basis_m1_k8
        N = 64
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        rng = np.random.default_rng(5)
        # random smooth J0-coefficient field (weighted frame)
        A, B = pts[:, 0], pts[:, 1]
        u = (np.exp(2j * np.pi * A) + 0.5 * np.cos(2 * np.pi * B) + 0.2j).astype(complex)
        c1 = project_coefficients(b, u, N)
        pu = evaluate_combination(b, c1, pts)
        c2 = project_coefficients(b, pu, N)
        ppu = evaluate_combination(b, c2, pts)
        rel = np.linalg.norm(ppu - pu) / np.linalg.norm(pu)
        assert rel < 1e-6

    def test_truncated_basis_fails_to_reproduce_dropped_section(self, basis_m1_k8):
        b = basis_m1_k8
        N = 64
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        last = b.values(pts)[-1]
        # truncation: keep only the first half of the sections
        keep = b.dim // 2
        ct = project_coefficients(b, last, N)
        ct[keep:] = 0.0
        rec = evaluate_combination(b, ct, pts)
        rel = np.linalg.norm(rec - last) / np.linalg.norm(last)
        assert rel > 0.5

    def test_unitary_remix_invariance(self, basis_m1_k8):
        rng = np.random.default_rng(31)
        U = haar_unitary(basis_m1_k8.dim, rng)
        x, y = rng.random(2), rng.random(2)
        a = _kernel_pair(basis_m1_k8, x, y)[0]
        c = product_kernel(RemixedBasis(basis_m1_k8, U), x, y)
        assert abs(a - c) < 1e-10 * max(1.0, abs(a))


class TestDensity:
    def test_trace_identity(self):
        for degs, k in [((-1,), 8), ((-1, 2), 2)]:
            b = build_basis(model(*degs), k)
            tr = trace_density(b)
            assert abs(tr / b.dim - 1.0) < 1e-8

    def test_trace_identity_thin_torus(self):
        # max(6m, 24) points per side alias at Im tau = 0.05 (2.5e-5 off at
        # k = 4); the default grid also honours default_resolution(m, Im tau)
        for k in (4, 6):
            b = build_basis(model(-1, tau=0.05j), k)
            assert abs(trace_density(b) / b.dim - 1.0) < 1e-12

    def test_trace_density_streams_the_grid(self):
        # one 360 x 360 complex table of the k = 60 factor is 2 MB, the whole
        # (60, 360^2) table 124 MB; the trace sums by discrete orthogonality, without either
        b = build_basis(model(-1), 60)
        tracemalloc.start()
        try:
            tr = trace_density(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(tr / b.dim - 1.0) < 1e-8
        assert peak < 10e6

    def test_trace_density_matches_summed_grid_density(self):
        # the orthogonality sum against the point-by-point sum on the same grid:
        # the trace's own grid, and per factor a side 13 m that it does not use
        cases = [(model(-1), 8), (model(-1, tau=0.05j), 6), (model(2, tau=0.3 + 1.2j), 5),
                 (ProductModel.from_factors([TorusFactor(0.3 + 1.1j, -1), TorusFactor(TAU, 2)]), 3)]
        for m, k in cases:
            b = build_basis(m, k)
            want = 1.0
            for t, s in enumerate(b.factor_sets):
                N = max(6 * s.level, 24, default_resolution(s.level, s.factor.im_tau))
                want *= float(np.sum(b.grid_density(t, N))) * factor_volume(s.factor) / N**2
                N = 13 * s.level
                dense = float(np.sum(b.grid_density(t, N))) * factor_volume(s.factor) / N**2
                assert b.grid_gram(t, N).sum() == pytest.approx(dense, rel=1e-14, abs=0)
            assert trace_density(b) == pytest.approx(want, rel=1e-14, abs=0)

    def test_density_matches_40_digit_theta_sums(self):
        # at (0.3, 0.97) the term exponents -pi m r^2 - 2 pi m r y - pi m y^2
        # are each ~300 at k = 100 and cancel; the density must still carry
        # only rounding-level error against the textbook series summed in mpmath
        mp = pytest.importorskip("mpmath")
        for k in (16, 100):
            b = build_basis(model(-1), k)
            for a, y in [(0.3, 0.97), (0.71, 0.5)]:
                with mp.workdps(40):
                    z = mp.mpc(a, y)
                    phi = mp.pi * k * mp.mpf(y) ** 2
                    ref = mp.mpf(0)
                    for j in range(k):
                        n0 = int(np.floor(-y - j / k))
                        w = mp.fsum(mp.exp(1j * mp.pi * k * r**2 * 1j + 2j * mp.pi * k * r * z - phi)
                                    for r in (n + mp.mpf(j) / k for n in range(n0 - 4, n0 + 6)))
                        ref += abs(w) ** 2
                    ref = float(ref * mp.sqrt(mp.mpf(k) / 2))   # orthonormalizing scale^2, Im tau = 1
                got = density(b, np.array([a, y]))
                assert abs(got - ref) <= 2e-15 * ref, (k, a, y)

    def test_translation_invariance(self):
        b = build_basis(model(-1), 16)
        rng = np.random.default_rng(3)
        d = density(b, rng.random((100, 2)))
        assert (d.max() - d.min()) / d.mean() < 1e-9

    def test_leading_coefficient_match(self):
        m = model(-1)
        b0 = leading_coefficient(m)
        for k in (16, 20):
            b = build_basis(m, k)
            d = density(b, np.array([0.37, 0.81]))
            assert abs(d / k - b0) / b0 <= 0.02

    def test_tensor_power_rebookkeeping(self):
        # density of (k=4, d=-1) equals density of (k=1, d=-4): same bundle
        b1 = build_basis(model(-1), 4)
        b2 = build_basis(model(-4), 1)
        pts = np.random.default_rng(8).random((20, 2))
        assert np.max(np.abs(density(b1, pts) - density(b2, pts))) < 1e-10 * 4

    def test_positivity_on_grid(self):
        for degs, k in [((-1,), 8), ((-1, 1), 4)]:
            b = build_basis(model(*degs), k)
            for t in range(b.model.n):
                assert b.grid_density(t, 32).min() > 0

    def test_gauge_invariance_of_density(self):
        # P(x,x) computed in the global frame equals the chart frame value
        # (a self-check of the tests' chart oracle)
        m = model(-1)
        b = build_basis(m, 8)
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = rng.random(2)
            x = rng.random(2)
            v = _kernel_pair(b, x, x)[0]
            assert abs(chart_kernel(b, normal_chart(m, p), x, x) - v) < 1e-10 * abs(v)
            assert abs(v.real - density(b, x)) < 1e-10 * abs(v)


class TestCalibrationOracles:
    def test_disc_model_oracle(self):
        for lam, k in [(np.pi / 2, 8), (np.pi, 6)]:
            got = disc_model_density(lam, k)
            want = k * lam / np.pi
            assert abs(got / want - 1.0) < 0.01

    def test_disc_oracle_matches_cholesky_of_full_gram(self):
        for lam, k in [(np.pi / 2, 8), (np.pi, 6), (np.pi / 2, 40), (0.7, 3), (10 * np.pi, 8)]:
            assert disc_model_density(lam, k) == pytest.approx(cholesky_disc_density(lam, k),
                                                               rel=1e-14, abs=0)

    def test_disc_oracle_matches_40_digit_radial_rule(self):
        # the reference is the exact radial integral at 40 digits:
        # int_0^R r^(2p+1) e^(-a r^2) dr = gamma(p+1, a R^2) / (2 a^(p+1))
        mp = pytest.importorskip("mpmath")
        for lam, k in [(np.pi / 2, 8), (np.pi, 6), (np.pi / 2, 40), (0.7, 3), (10 * np.pi, 8)]:
            a = 2.0 * k * lam
            R = 6.0 / np.sqrt(a)
            with mp.workdps(40):
                am, z0 = mp.mpf(a), mp.mpf(0.25 * R)
                # G_pp = 2 pi VOL times the radial integral, VOL = 2
                ref = mp.fsum(z0 ** (2 * p) / (4 * mp.pi * mp.gammainc(p + 1, 0, am * mp.mpf(R) ** 2)
                                               / (2 * am ** (p + 1)))
                              for p in range(int(np.ceil(a * (0.25 * R) ** 2)) + 12))
                ref = float(ref * mp.exp(-am * z0**2))
            assert disc_model_density(lam, k) == pytest.approx(ref, rel=1e-15, abs=0)

    def test_disc_oracle_holds_no_monomial_table(self):
        tracemalloc.start()
        try:
            disc_model_density(np.pi / 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_b0_from_curvature(self):
        assert leading_coefficient(model(-1)) == pytest.approx(0.5)
        assert leading_coefficient(model(-1, 2)) == pytest.approx(0.5)
        assert leading_coefficient(model(-2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("factors", [[(TAU, -1), (TAU, 1)], [(0.3 + 1.2j, -2)], [(TAU, 2)],
                                         [(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2), (0.1 + 0.7j, 3)],
                                         [(TAU, -2), (0.5 + 2j, -1), (TAU, 2)]])
    def test_b0_is_the_curvature_determinant(self, factors):
        # the product of |2 lambda_t| against LAPACK's determinant of the oracle's
        # curvature matrix (its exp-of-log-sum is 4.4e-16 off at worst here) and
        # the exact prod_t |d_t| / (2 Im tau_t)
        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors])
        b0 = leading_coefficient(m)
        assert b0 == pytest.approx(abs(np.linalg.det(curvature_matrix(m))) / (2 * np.pi) ** m.n, rel=1e-15)
        assert b0 == pytest.approx(np.prod([abs(f.degree) / (2 * f.im_tau) for f in m.factors]), rel=1e-15)


class TestExpansionModel:
    # Psi itself is the tests' chart oracle; its imaginary part is ExpansionModel.im_psi

    def test_psi_vanishes_on_diagonal(self):
        m = model(-1, 2)
        rng = np.random.default_rng(2)
        z = rng.random(2) + 1j * rng.random(2)
        assert abs(psi(m, z, z)) < 1e-14

    def test_psi_antisymmetry(self):
        m = model(-1, 2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.random(2) + 1j * rng.random(2)
            w = rng.random(2) + 1j * rng.random(2)
            assert abs(psi(m, z, w) + np.conj(psi(m, w, z))) < 1e-13

    def test_im_psi_negative_line_bundle(self):
        em = expansion_model(model(-1))
        z = np.array([0.3 + 0.2j])
        assert em.im_psi(z) == pytest.approx((np.pi / 2) * abs(z[0]) ** 2)

    def test_im_psi_positive_and_lower_bound(self):
        em = expansion_model(model(-1, 2))
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.random(2) + 1j * rng.random(2)
            w = rng.random(2) + 1j * rng.random(2)
            im = np.imag(psi(model(-1, 2), z, w))
            assert im == pytest.approx(em.im_psi(z - w), rel=1e-14)
            assert im >= 0
            assert im >= em.c_lower * 2 * np.sum(np.abs(z - w) ** 2) - 1e-12
        # the best constant min|lambda| / 2, attained along the weaker axis
        assert em.c_lower == np.min(np.abs(model(-1, 2).lambdas)) / 2
        dz = np.zeros(2, dtype=complex)
        dz[np.argmin(np.abs(em.lam))] = 0.3 + 0.4j
        assert em.im_psi(dz) == pytest.approx(em.c_lower * 2 * np.sum(np.abs(dz) ** 2), rel=1e-14)


@pytest.fixture(scope="module")
def decay_ladder():
    m = model(-1)
    return [build_basis(m, k) for k in range(8, 44, 4)]


class TestOffdiagonal:
    def test_decay_matches_quadratic_model(self, decay_ladder):
        fit = offdiagonal_fit(decay_ladder, np.array([0.45, 0.3]), np.array([0.35, 0.3]))
        assert fit.rel_dev <= 0.10
        assert fit.phase_dev <= 1e-3

    def test_coincident_points_slope_zero(self, decay_ladder):
        y = np.array([0.35, 0.3])
        fit = offdiagonal_fit(decay_ladder, y, y)
        assert abs(fit.c_fit) < 1e-10

    def test_doubling_separation_quadruples_exponent(self, decay_ladder):
        y = np.array([0.35, 0.3])
        f1 = offdiagonal_fit(decay_ladder, np.array([0.45, 0.3]), y)
        f2 = offdiagonal_fit(decay_ladder, np.array([0.55, 0.3]), y)
        assert f2.c_fit / f1.c_fit == pytest.approx(4.0, rel=0.15)

    def test_too_few_powers_rejected(self, decay_ladder):
        with pytest.raises(ValueError):
            offdiagonal_fit(decay_ladder[:3], np.array([0.45, 0.3]), np.array([0.35, 0.3]))


class TestFarField:
    def test_antipodal_rapid_decay(self, decay_ladder):
        rep = far_separation_check(decay_ladder, np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        assert rep.gamma > 0
        assert all(rep.damped_decreasing.values())
        assert rep.underflow_ks == ()

    def test_coincident_control_fails(self, decay_ladder):
        y = np.array([0.2, 0.6])
        rep = far_separation_check(decay_ladder, y, y)
        assert not any(rep.damped_decreasing.values())   # density grows like k^n: damped sequences increase

    def test_one_underflowed_rung_does_not_pass(self, decay_ladder, monkeypatch):
        # the coincident control with its lowest rung floored: the rungs
        # above the floor still grow, so the underflow annotation is no pass
        floor = kernel.noise_floor
        floored = iter([np.inf])
        monkeypatch.setattr(kernel, "noise_floor", lambda kind, scale: next(floored, floor(kind, scale)))
        y = np.array([0.2, 0.6])
        rep = far_separation_check(decay_ladder, y, y)
        assert rep.underflow_ks == (decay_ladder[0].k,)
        assert not any(rep.damped_decreasing.values())

    def test_noise_floor_annotated_as_underflow(self):
        # thin torus: the true antipodal kernel sits far below the rounding
        # floor, so every ladder value is annotated and nothing is left to
        # fit: gamma reads inf and no damped sequence rises.  The decay fit
        # reports the same rungs as floored, and has no fit to give
        thin = ProductModel.from_factors([TorusFactor(0.05j, -1)])
        bases = [build_basis(thin, k) for k in (8, 12, 16, 20)]
        x, y = np.array([0.0, 0.0]), np.array([0.5, 0.0])
        rep = far_separation_check(bases, x, y)
        assert rep.underflow_ks == (8, 12, 16, 20)
        assert rep.gamma == np.inf and all(rep.damped_decreasing.values())
        fit = offdiagonal_fit(bases, x, y)
        assert fit.floored == (8, 12, 16, 20) and np.isnan(fit.c_fit) and np.isnan(fit.rel_dev)
        assert len(fit.log_ratio) == 4


class TestGaussianModelPointwise:
    def test_kernel_matches_phase_model_in_global_frame(self):
        # strongest structural check: the full complex kernel (modulus and
        # phase) equals b0 k^n exp(-k Im Psi(z - w) + i k Phi(z, w)), the
        # gamma = 0 lattice term in the global trivialization, up to the other
        # lattice terms, which are ~1e-11 at k=20
        for degs in [(-1,), (-1, 1)]:
            m = model(*degs)
            n, k = m.n, 20
            b = build_basis(m, k)
            b0 = leading_coefficient(m)
            em = expansion_model(m)
            rng = np.random.default_rng(0)
            for _ in range(6):
                y = rng.random(2 * n)
                x = y + (rng.random(2 * n) - 0.5) * 0.2
                z, w = m.chart_z(x), m.chart_z(y)
                want = b0 * k**n * np.exp(-k * em.im_psi(z - w) + 1j * k * lattice_phase(m, z, w))
                got = _kernel_pair(b, x, y)[0]
                assert abs(got - want) / abs(want) < 1e-9

    def test_generic_moduli_end_to_end(self):
        # non-square lattices, Re tau != 0, |d| > 1: same structure holds,
        # with lattice corrections set by the smallest Im tau
        m = ProductModel.from_factors([TorusFactor(0.3 + 1.2j, -2),
                                       TorusFactor(-0.25 + 0.8j, 1)])
        k = 12
        b = build_basis(m, k)
        assert b.dim == k**2 * 2
        assert abs(trace_density(b) / b.dim - 1.0) < 1e-8
        b0 = leading_coefficient(m)
        rng = np.random.default_rng(0)
        d = density(b, rng.random((5, 4)))
        assert np.max(np.abs(d / (b0 * k**2) - 1.0)) < 1e-5
        em = expansion_model(m)
        for _ in range(5):
            y = rng.random(4)
            x = y + (rng.random(4) - 0.5) * 0.15
            z, w = m.chart_z(x), m.chart_z(y)
            want = b0 * k**2 * np.exp(-k * em.im_psi(z - w) + 1j * k * lattice_phase(m, z, w))
            got = _kernel_pair(b, x, y)[0]
            assert abs(got - want) / abs(want) < 1e-5

    def test_chart_kernel_hermitian_after_transport(self):
        # a self-check of the tests' chart oracle
        m = model(-1, 1)
        b = build_basis(m, 6)
        rng = np.random.default_rng(2)
        p = rng.random(4)
        ch = normal_chart(m, p)
        x, y = p + 0.1 * rng.random(4), p - 0.1 * rng.random(4)
        a = chart_kernel(b, ch, x, y)
        c = chart_kernel(b, ch, y, x)
        assert abs(a - np.conj(c)) < 1e-12 * abs(a)

    # largest gap measured on these models at k = 4, 8, 16 with 20 pairs each:
    # 1.0e-14 at this seed, 2.0e-14 over seeds 1 and 2, on deviations up to 0.015
    PHASE_TOL = 5e-14

    @pytest.mark.parametrize("factors", [[(TAU, -1)], [(TAU, 1)], [(0.3 + 1.2j, 2)], [(TAU, -1), (TAU, 1)],
                                         [(0.1 + 0.7j, -3), (0.3 + 1.2j, 2)],
                                         [(TAU, -1), (0.3 + 1.2j, 1), (0.1 + 0.7j, 2)]])
    def test_phase_dev_matches_midpoint_chart_transport(self, factors):
        # offdiagonal_fit reads arg P_k - k Phi in the global trivialization;
        # the route it replaced transported P_k to the midpoint normal frame and
        # read arg - k Re Psi there.  A ladder of one rung repeated gives that
        # rung's deviation as its phase_dev (and a 0/0 slope, nan)
        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors])
        rng = np.random.default_rng(17)
        for k in (4, 8, 16):
            b = build_basis(m, k)
            for _ in range(20):
                y = rng.random(2 * m.n)
                x = y + (rng.random(2 * m.n) - 0.5) * 0.2
                ybase, mid, xcov = _segment_points(m, x, y, [0.0, 0.5, 1.0])
                ch = normal_chart(m, mid)
                chart_psi = psi(m, m.chart_z(xcov) - ch.z0, m.chart_z(ybase) - ch.z0)
                ph = np.angle(chart_kernel(b, ch, xcov, ybase)) - k * np.real(chart_psi)
                want = abs(np.angle(np.exp(1j * ph)))
                with np.errstate(invalid="ignore"):
                    got = offdiagonal_fit([b] * 4, x, y).phase_dev
                assert abs(got - want) <= self.PHASE_TOL, (k, got, want)


class TestRatioProfile:
    def test_bounds_and_coincidence(self):
        b = build_basis(model(-1), 20)
        ts = np.linspace(0, 1, 64)
        fk = ratio_profile(b, np.array([0.45, 0.3]), np.array([0.35, 0.3]), ts)
        assert abs(fk[0] - 1.0) <= 1e-12
        assert np.all(fk >= -1e-15)
        assert np.all(fk <= 1.0 + 1e-12)

    def test_interior_matches_gaussian_model(self):
        m = model(-1)
        b = build_basis(m, 20)
        x, y = np.array([0.45, 0.3]), np.array([0.35, 0.3])
        fk = ratio_profile(b, x, y, np.array([0.5]))
        em = expansion_model(m)
        want = np.exp(-2 * 20 * em.im_psi(0.5 * m.chart_dz(x, y)))
        assert fk[0] == pytest.approx(want, rel=0.15)

    def test_mixed_signature_profile(self):
        b = build_basis(model(-1, 1), 6)
        x = np.array([0.45, 0.3, 0.2, 0.7])
        y = np.array([0.35, 0.3, 0.25, 0.7])
        fk = ratio_profile(b, x, y, np.linspace(0, 1, 16))
        assert abs(fk[0] - 1.0) <= 1e-12
        assert np.all((fk >= -1e-15) & (fk <= 1 + 1e-12))


# the factor routes' test models: signatures (1,1) and (1,2) at tau = i, a
# degree-2 factor, and factors with Re tau != 0
FACTORED = {"sig11": [(TAU, -1), (TAU, 1)], "sig12": [(TAU, -1), (TAU, 1), (TAU, 1)],
            "deg21": [(TAU, -2), (TAU, 1)], "re_tau": [(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2)]}


class TestFactorRoutesMatchProductRoutes:
    # largest deviation measured on these models at k = 3, 6, 10: density 2.2e-15
    # relative, kernel 1.7e-16 of sqrt(P(x) P(y)), ratio 1.9e-15 (f_k is in [0, 1])
    TOL = 1e-14

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("name", list(FACTORED))
    def test_factor_routes_match_product_basis(self, name, k):
        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in FACTORED[name]])
        b = build_basis(m, k)
        pts = np.random.default_rng(k).random((20, 2 * m.n))
        d0 = product_density(b, pts)
        assert np.max(np.abs(density(b, pts) / d0 - 1.0)) <= self.TOL
        for i in range(0, len(pts), 2):
            x, y = pts[i], pts[i + 1]
            want = product_kernel(b, x, y)
            scale = np.sqrt(d0[i] * d0[i + 1])      # Cauchy-Schwarz bound on |P(x, y)|
            assert abs(_kernel_pair(b, x, y)[0] - want) <= self.TOL * scale
        ts = np.linspace(0.0, 1.0, 65)
        fk = ratio_profile(b, pts[0], pts[1], ts)
        assert np.max(np.abs(fk - product_ratio_profile(b, pts[0], pts[1], ts))) <= self.TOL

    def test_one_factor_runs_the_product_arithmetic(self, basis_m1_k8):
        b = basis_m1_k8
        pts = np.random.default_rng(2).random((6, 2))
        ts = np.linspace(0.0, 1.0, 65)
        assert density(b, pts).tolist() == product_density(b, pts).tolist()
        assert density(b, pts[0]) == product_density(b, pts[0])[0]
        assert _kernel_pair(b, pts[0], pts[1])[0] == product_kernel(b, pts[0], pts[1])
        assert ratio_profile(b, pts[2], pts[3], ts).tolist() == product_ratio_profile(b, pts[2], pts[3], ts).tolist()
