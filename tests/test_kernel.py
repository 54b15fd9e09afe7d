import tracemalloc

import numpy as np
import pytest

from _oracles import evaluate_combination, project_coefficients
from torusbergman.basis import build_basis
from torusbergman.geometry import ProductModel, TorusFactor, normal_chart
from torusbergman.kernel import (
    density,
    disc_model_density,
    expansion_model,
    far_separation_check,
    kernel,
    kernel_in_chart,
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
        s = kernel(basis_m1_k8, np.array([0.3, 0.4]), np.array([0.3, 0.4]))
        assert abs(s.value.imag) < 1e-12 * abs(s.value)
        assert s.value.real > 0

    def test_hermitian_symmetry(self, basis_m1_k8):
        x, y = np.array([0.1, 0.8]), np.array([0.55, 0.21])
        a = kernel(basis_m1_k8, x, y).value
        b = kernel(basis_m1_k8, y, x).value
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
        mix = np.zeros((b.dim, b.dim), dtype=complex)
        mix[:keep, :keep] = np.eye(keep)
        bt = b.remixed(mix)
        ct = project_coefficients(bt, last, N)
        rec = evaluate_combination(bt, ct, pts)
        rel = np.linalg.norm(rec - last) / np.linalg.norm(last)
        assert rel > 0.5

    def test_unitary_remix_invariance(self, basis_m1_k8):
        rng = np.random.default_rng(31)
        U = haar_unitary(basis_m1_k8.dim, rng)
        x, y = rng.random(2), rng.random(2)
        a = kernel(basis_m1_k8, x, y).value
        c = kernel(basis_m1_k8.remixed(U), x, y).value
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
        # (60, 360^2) table 124 MB; the density holds one member at a time
        b = build_basis(model(-1), 60)
        tracemalloc.start()
        try:
            tr = trace_density(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(tr / b.dim - 1.0) < 1e-8
        assert peak < 10e6

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
        # |P(x,x)| computed in the global frame equals the chart frame value
        m = model(-1)
        b = build_basis(m, 8)
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = rng.random(2)
            x = rng.random(2)
            ch = normal_chart(m, p)
            s = kernel_in_chart(b, ch, x, x)
            assert abs(s.chart_value - s.value) < 1e-10 * abs(s.value)
            assert abs(s.value.real - density(b, x)) < 1e-10 * abs(s.value)


class TestCalibrationOracles:
    def test_disc_model_oracle(self):
        for lam, k in [(np.pi / 2, 8), (np.pi, 6)]:
            got = disc_model_density(lam, k)
            want = k * lam / np.pi
            assert abs(got / want - 1.0) < 0.01

    def test_b0_from_curvature(self):
        assert leading_coefficient(model(-1)) == pytest.approx(0.5)
        assert leading_coefficient(model(-1, 2)) == pytest.approx(0.5)
        assert leading_coefficient(model(-2)) == pytest.approx(1.0)


class TestExpansionModel:
    def test_psi_vanishes_on_diagonal(self):
        em = expansion_model(model(-1, 2), np.array([0.3, 0.4, 0.1, 0.9]))
        rng = np.random.default_rng(2)
        z = rng.random(2) + 1j * rng.random(2)
        assert abs(em.psi(z, z)) < 1e-14

    def test_psi_antisymmetry(self):
        em = expansion_model(model(-1, 2), np.zeros(4))
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.random(2) + 1j * rng.random(2)
            w = rng.random(2) + 1j * rng.random(2)
            assert abs(em.psi(z, w) + np.conj(em.psi(w, z))) < 1e-13

    def test_im_psi_negative_line_bundle(self):
        em = expansion_model(model(-1), np.zeros(2))
        z = np.array([0.3 + 0.2j])
        assert em.im_psi(z) == pytest.approx((np.pi / 2) * abs(z[0]) ** 2)

    def test_im_psi_positive_and_lower_bound(self):
        em = expansion_model(model(-1, 2), np.zeros(4))
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.random(2) + 1j * rng.random(2)
            w = rng.random(2) + 1j * rng.random(2)
            im = np.imag(em.psi(z, w))
            assert im >= 0
            assert im >= em.c_lower * 2 * np.sum(np.abs(z - w) ** 2) - 1e-12


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
        assert rep.passed

    def test_coincident_control_fails(self, decay_ladder):
        y = np.array([0.2, 0.6])
        rep = far_separation_check(decay_ladder, y, y)
        assert not rep.passed   # density grows like k^n: damped sequences increase

    def test_noise_floor_annotated_as_underflow(self):
        # thin torus: the true antipodal kernel sits far below the rounding
        # floor, so every ladder value is annotated and the check still passes
        thin = ProductModel.from_factors([TorusFactor(0.05j, -1)])
        bases = [build_basis(thin, k) for k in (8, 12, 16, 20)]
        x, y = np.array([0.0, 0.0]), np.array([0.5, 0.0])
        rep = far_separation_check(bases, x, y)
        assert rep.underflow_ks == (8, 12, 16, 20)
        assert rep.passed
        with pytest.raises(FloatingPointError, match="k=8"):
            offdiagonal_fit(bases, x, y)


class TestGaussianModelPointwise:
    def test_kernel_matches_phase_model_in_midpoint_chart(self):
        # strongest structural check: the full complex kernel (modulus and
        # phase) equals e^{ik Psi} b0 k^n in the midpoint normal frame up to
        # lattice-periodization terms, which are ~1e-11 at k=20
        for degs in [(-1,), (-1, 1)]:
            m = model(*degs)
            n, k = m.n, 20
            b = build_basis(m, k)
            em0 = leading_coefficient(m)
            rng = np.random.default_rng(0)
            for _ in range(6):
                y = rng.random(2 * n)
                d = (rng.random(2 * n) - 0.5) * 0.2
                x, mid = y + d, y + d / 2
                ch = normal_chart(m, mid)
                em = expansion_model(m, mid)
                ux = m.chart_z(x) - ch.z0
                uy = m.chart_z(y) - ch.z0
                want = em0 * k**n * np.exp(1j * k * em.psi(ux, uy))
                got = kernel_in_chart(b, ch, x, y).chart_value
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
        for _ in range(5):
            y = rng.random(4)
            dd = (rng.random(4) - 0.5) * 0.15
            x, mid = y + dd, y + dd / 2
            ch = normal_chart(m, mid)
            em = expansion_model(m, mid)
            ux, uy = m.chart_z(x) - ch.z0, m.chart_z(y) - ch.z0
            want = b0 * k**2 * np.exp(1j * k * em.psi(ux, uy))
            got = kernel_in_chart(b, ch, x, y).chart_value
            assert abs(got - want) / abs(want) < 1e-5

    def test_chart_kernel_hermitian_after_transport(self):
        m = model(-1, 1)
        b = build_basis(m, 6)
        rng = np.random.default_rng(2)
        p = rng.random(4)
        ch = normal_chart(m, p)
        x, y = p + 0.1 * rng.random(4), p - 0.1 * rng.random(4)
        a = kernel_in_chart(b, ch, x, y).chart_value
        c = kernel_in_chart(b, ch, y, x).chart_value
        assert abs(a - np.conj(c)) < 1e-12 * abs(a)


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
        em = expansion_model(m, (x + y) / 2)
        want = np.exp(-2 * 20 * em.im_psi(0.5 * m.chart_dz(x, y)))
        assert fk[0] == pytest.approx(want, rel=0.15)

    def test_mixed_signature_profile(self):
        b = build_basis(model(-1, 1), 6)
        x = np.array([0.45, 0.3, 0.2, 0.7])
        y = np.array([0.35, 0.3, 0.25, 0.7])
        fk = ratio_profile(b, x, y, np.linspace(0, 1, 16))
        assert abs(fk[0] - 1.0) <= 1e-12
        assert np.all((fk >= -1e-15) & (fk <= 1 + 1e-12))
