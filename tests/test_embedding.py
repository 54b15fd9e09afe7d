import numpy as np
import pytest

from _oracles import evaluate_combination, project_coefficients
from torusbergman.basis import build_basis
from torusbergman.embedding import (
    ProjectivePoint,
    convergence_report,
    derivative_sums,
    differential,
    fs_distance,
    injectivity_scan,
    phi,
    pullback_ddbar,
    pullback_ddbar_many,
    pullback_jacobian,
    pullback_jacobian_many,
    hermitian_to_real_form,
    well_defined_check,
)
from torusbergman.experiment import parse_config, run
from torusbergman.geometry import ProductModel, TorusFactor, omega
from torusbergman.kernel import density

TAU = 1j


def model(*degrees, tau=TAU):
    return ProductModel.from_factors([TorusFactor(tau, d) for d in degrees])


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPhi:
    def test_scalar_rescale_gives_same_projective_point(self):
        b = build_basis(model(-1), 8)
        z = np.array([0.3, 0.4])
        p = phi(b, z)
        q = ProjectivePoint(homogeneous=(0.3 - 1.7j) * p.homogeneous)
        assert fs_distance(p, q) <= 1e-12

    def test_degenerate_single_section_target(self):
        b = build_basis(model(1), 1)
        p = phi(b, np.array([0.2, 0.9]))   # CP^0: a single point, no error
        assert p.homogeneous.shape == (1,)

    def test_lift_norm_squared_is_density(self):
        b = build_basis(model(-1), 8)
        rng = np.random.default_rng(4)
        for z in rng.random((16, 2)):
            p = phi(b, z)
            assert np.linalg.norm(p.homogeneous) ** 2 == pytest.approx(density(b, z), rel=1e-12)
        # min over the full 64^2 grid of the lift norm stays positive
        assert b.grid_density(0, 64).min() > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(homogeneous=np.zeros(3, dtype=complex))


class TestFsDistance:
    def test_self_distance_zero(self):
        v = ProjectivePoint(np.array([1.0, 2j, -0.5]))
        assert fs_distance(v, v) == 0

    def test_orthogonal_points(self):
        a = ProjectivePoint(np.array([1.0, 0.0], dtype=complex))
        b = ProjectivePoint(np.array([0.0, 1.0], dtype=complex))
        assert fs_distance(a, b) == pytest.approx(np.pi / 2)

    def test_invariant_under_rescalings(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        d0 = fs_distance(ProjectivePoint(v), ProjectivePoint(w))
        d1 = fs_distance(ProjectivePoint(2.3j * v), ProjectivePoint(-0.7 * w))
        assert d0 == pytest.approx(d1, abs=1e-12)


class TestWellDefined:
    def test_ratio_near_one_for_k_at_least_8(self):
        for degs, k in [((-1,), 8), ((-1,), 16), ((-2,), 8), ((-1, 1), 8), ((-1, 2), 8)]:
            b = build_basis(model(*degs), k)
            rep = well_defined_check(b, 32)
            assert 0.9 <= rep.min_ratio <= 1.1
            assert rep.passed

    def test_ratio_increases_toward_one(self):
        m = model(-1)
        ratios = [well_defined_check(build_basis(m, k), 32).min_ratio for k in (4, 8, 12, 16)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1) < 1e-6

    def test_truncated_basis_positive_but_not_reproducing(self):
        b = build_basis(model(-1), 8)
        keep = b.dim // 2
        mix = np.zeros((b.dim, b.dim), dtype=complex)
        mix[:keep, :keep] = np.eye(keep)
        bt = b.remixed(mix)
        rep = well_defined_check(bt, 32)
        assert rep.min_ratio > 0
        N = 64
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        dropped = b.values(pts)[-1]
        c = project_coefficients(bt, dropped, N)
        rec = evaluate_combination(bt, c, pts)
        assert np.linalg.norm(rec - dropped) / np.linalg.norm(dropped) > 0.5


class TestInjectivity:
    def test_exhaustive_scan_single_factor(self):
        b = build_basis(model(-1), 12)
        rep = injectivity_scan(b, grid_n=64)
        assert rep.min_fs_distance > 0
        assert rep.offending_pair is None
        assert rep.near_diagonal_alpha > 0

    def test_near_diagonal_distance_is_order_one_in_k(self):
        m = model(-1)
        ds = []
        for k in (8, 16, 24, 32):
            b = build_basis(m, k)
            p = np.array([0.3, 0.4])
            step = 1.0 / np.sqrt(2.0 * k)   # g-distance 1/sqrt(k)
            q = p + np.array([step, 0.0])
            ds.append(fs_distance(phi(b, p), phi(b, q)))
        ds = np.array(ds)
        assert ds.max() / ds.min() < 1.5
        assert 0.05 < ds.min() and ds.max() < np.pi / 2 - 0.05

    def test_collision_detected_for_rank_deficient_basis(self):
        b = build_basis(model(-1), 2)
        # duplicate section 0, drop section 1: the lift becomes [g0 : g0]
        mix = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        bt = b.remixed(mix)
        rep = injectivity_scan(bt, grid_n=16)
        assert rep.min_fs_distance < 1e-10
        assert rep.offending_pair is not None


class TestDifferential:
    def test_full_rank_at_random_points(self):
        rng = np.random.default_rng(2)
        for degs, k in [((-1,), 12), ((-1, 1), 6)]:
            m = model(*degs)
            b = build_basis(m, k)
            assert b.dim > 2 * m.n
            for _ in range(50):
                d = differential(b, rng.random(2 * m.n))
                assert d.rank == 2 * m.n

    def test_matches_finite_differences(self):
        m = model(-1, 1)
        b = build_basis(m, 3)
        z = np.array([0.31, 0.41, 0.13, 0.77])
        d = differential(b, z)
        h = 1e-6
        for t in range(m.n):
            tau = m.taus[t]
            # recover complex derivatives from the chart real partials
            dz = d.partials[2 * t] / 2.0 - 0.5j * d.partials[2 * t + 1]
            dzb = d.partials[2 * t] / 2.0 + 0.5j * d.partials[2 * t + 1]
            for col in (2 * t, 2 * t + 1):   # lattice directions a_t, b_t
                e = np.zeros(4)
                e[col] = h
                fd = (b.values(z + e)[:, 0] - b.values(z - e)[:, 0]) / (2 * h)
                if col % 2 == 0:
                    want = dz + dzb                 # d/da = d/dz + d/dzbar
                else:
                    want = tau * dz + np.conj(tau) * dzb
                err = np.linalg.norm(fd - want) / max(np.linalg.norm(want), 1e-30)
                assert err < 1e-6

    def test_degenerate_target_rank_zero(self):
        b = build_basis(model(1), 1)
        d = differential(b, np.array([0.4, 0.3]))
        assert d.rank == 0

    @pytest.mark.parametrize("degs, k, rank", [((-1,), 12, 2), ((-1, 1), 4, 4), ((-1, 1), 16, 4),
                                               ((1,), 1, 0)])
    def test_stacked_ranks_match_single_points(self, degs, k, rank):
        from torusbergman.embedding import _differential_many

        b = build_basis(model(*degs), k)
        pts = np.random.default_rng(17).random((50, 2 * b.model.n))
        ranks = _differential_many(b, pts).rank
        assert ranks.tolist() == [differential(b, p).rank for p in pts] == [rank] * 50

    def test_embed_scan_bytes_unchanged(self, tmp_path):
        # embed_scan.csv of configs/sig11_smoke.cfg as the per-point rank loop
        # wrote it: the 50-point draw keeps the seeded stream that the second
        # rung's injectivity scan reads next
        from pathlib import Path

        from torusbergman.experiment import emit_report

        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "sig11_smoke.cfg"
        emit_report(run(parse_config(cfg_path.read_text()), experiments=("embed",)), tmp_path)
        assert (tmp_path / "embed_scan.csv").read_text() == (
            "k,min_ratio,min_fs,alpha,rank_ok\n"
            "4,0.98626893811761007,0.33420298317881558,0.70927114311388628,1\n"
            "10,0.99999881755223496,0.54595119762724387,0.7628368642459803,1\n")


class TestPullback:
    def test_degree_calibration_positive_curve(self):
        # theta embedding of a degree-1 curve at k=3 into CP^2
        m = model(1)
        b = build_basis(m, 3)
        N = 48
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        F = pullback_jacobian_many(b, pts)
        integral = 3.0 * F[:, 0, 1].mean() * TAU.imag
        assert integral == pytest.approx(3.0, abs=1e-6)

    def test_antisymmetry(self):
        b = build_basis(model(-1, 1), 4)
        F = pullback_jacobian(b, np.array([0.3, 0.1, 0.7, 0.2])).form
        assert np.max(np.abs(F + F.T)) < 1e-12

    def test_unitary_composition_invariance(self):
        b = build_basis(model(-1), 8)
        rng = np.random.default_rng(7)
        U = haar_unitary(b.dim, rng)
        z = np.array([0.21, 0.67])
        F0 = pullback_jacobian(b, z).form
        F1 = pullback_jacobian(b.remixed(U), z).form
        assert np.max(np.abs(F0 - F1)) < 1e-12

    def test_projective_gauge_invariance(self):
        # multiply the lift by a smooth nonvanishing scalar field: form unchanged
        from torusbergman.embedding import _real_partials_many

        b = build_basis(model(-1), 6)
        z = np.atleast_2d(np.array([0.3, 0.4]))
        jets = b.jets(z)
        w = jets["val"][:, 0]
        V = _real_partials_many(jets)[:, :, 0]
        rng = np.random.default_rng(3)
        chi = complex(*rng.normal(size=2))
        dchi = rng.normal(size=2) + 1j * rng.normal(size=2)   # d(chi)/dx_a

        def fs_form(w, V, k):
            nrm2 = np.vdot(w, w).real
            vw = V @ w.conj()
            vv = V @ V.conj().T
            num = np.outer(vw, vw.conj()) - vv * nrm2
            F = np.imag(num) / (np.pi * nrm2**2) / k
            return 0.5 * (F - F.T)

        F0 = fs_form(w, V, b.k)
        Vg = chi * V + dchi[:, None] * w[None, :]
        F1 = fs_form(chi * w, Vg, b.k)
        assert np.max(np.abs(F0 - F1)) < 1e-10 * max(1.0, np.max(np.abs(F0)))

    def test_methods_agree_for_holomorphic_map(self):
        b = build_basis(model(1), 3)
        rng = np.random.default_rng(11)
        pts = rng.random((10, 2))
        gap = np.max(np.abs(pullback_jacobian_many(b, pts) - pullback_ddbar_many(b, pts)))
        assert gap < 1e-8

    def test_omega_term_alone_reproduces_omega(self):
        # for large k the correction term dies; the base term is exactly omega
        m = model(-1)
        w0 = omega(m)
        b = build_basis(m, 24)
        F = pullback_ddbar(b, np.array([0.3, 0.8])).form
        assert np.max(np.abs(F - w0)) < 1e-9

    def test_correction_term_bounded_by_c_over_k(self):
        m = model(-1)
        rng = np.random.default_rng(5)
        pts = rng.random((32, 2))
        w0 = omega(m)
        sup = []
        for k in (4, 6, 8, 10):
            b = build_basis(m, k)
            F = pullback_ddbar_many(b, pts)
            sup.append(np.max(np.abs(F - w0)))
        sup = np.array(sup)
        assert np.all(sup * np.arange(4, 11, 2) < sup[0] * 4 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_to_real_form_stacks(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(5, 3, n, n)) + 1j * rng.normal(size=(5, 3, n, n))
        H = A + np.conj(np.swapaxes(A, -1, -2))
        F = hermitian_to_real_form(H)
        assert F.shape == (5, 3, 2 * n, 2 * n)
        # the earlier single-matrix route: dz_a and dzbar_b as rows on (x, y) directions
        Aa = np.zeros((n, 2 * n), dtype=complex)
        Ab = np.zeros((n, 2 * n), dtype=complex)
        for c in range(n):
            Aa[c, 2 * c:2 * c + 2] = (1.0, 1j)
            Ab[c, 2 * c:2 * c + 2] = (1.0, -1j)
        for i in range(5):
            for j in range(3):
                single = hermitian_to_real_form(H[i, j])
                assert np.array_equal(F[i, j], single)
                M = Aa.T @ H[i, j] @ Ab
                assert np.max(np.abs(single - (1j * (M - M.T)).real)) <= 1e-15 * np.max(np.abs(H))

    def test_closedness_of_sampled_field(self):
        # discrete exterior derivative of the 2-form field vanishes (n=2)
        m = model(-1, 1)
        b = build_basis(m, 8)
        N = 6
        g = (np.arange(N) + 0.5) / N
        pts = np.stack([a.ravel() for a in np.meshgrid(*(g,) * 4, indexing="ij")], axis=1)
        F = pullback_jacobian_many(b, pts).reshape(N, N, N, N, 4, 4)
        dmax = 0.0
        for a in range(4):
            for bb in range(a + 1, 4):
                for c in range(bb + 1, 4):
                    term = ((np.roll(F, -1, axis=a) - np.roll(F, 1, axis=a))[..., bb, c]
                            + (np.roll(F, -1, axis=bb) - np.roll(F, 1, axis=bb))[..., c, a]
                            + (np.roll(F, -1, axis=c) - np.roll(F, 1, axis=c))[..., a, bb])
                    dmax = max(dmax, float(np.max(np.abs(term * N / 2.0))))
        assert dmax < 1e-2   # ripple-scale derivative at k=8; omega term is exact


class TestConvergence:
    def test_signature_10_rate(self):
        rep = convergence_report(model(-1), [4, 6, 8, 10, 12, 14, 16], grid_n=9)
        assert -rep.slopes["ddbar_log"].slope >= 0.8
        e = rep.errors["jacobian"]
        assert np.all(np.diff(e[len(e) // 2:]) < 0)

    def test_signature_11_rate_and_signature_preservation(self):
        m = model(-1, 1)
        rep = convergence_report(m, [4, 6, 8, 10], grid_n=4)
        assert -rep.slopes["ddbar_log"].slope >= 0.8
        assert rep.errors["jacobian"][-1] < 1e-4
        b = build_basis(m, 10)
        rng = np.random.default_rng(9)
        for p in rng.random((10, 4)):
            F = pullback_jacobian(b, p).form
            assert F[0, 1] < 0 and F[2, 3] > 0
            assert abs(np.linalg.det(F)) > 1e-6

    def test_identity_control_zero_error(self):
        w0 = omega(model(-1, 1))
        assert np.max(np.abs(w0 - w0)) == 0.0

    def test_short_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(model(-1), [4, 6, 8], grid_n=5)

    def test_float_floor_is_not_a_rise(self):
        # E(k) reaches the float floor at k = 24 and then wobbles there
        rep = convergence_report(model(-1), [16, 20, 24, 28, 32], grid_n=9)
        assert rep.floor == 1e-12
        for m in ("jacobian", "ddbar_log"):
            assert np.all(rep.errors[m][2:] <= rep.floor)
        cfg = parse_config("factor = 0.0 1.0 -1\nk_ladder = 16 20 24 28 32\nexperiments = pullback\n")
        rep = run(cfg)    # A8's jacobian monotonicity check is floor-aware too
        assert rep.passed and not rep.warnings

    def test_a8_rate_is_fitted_above_the_float_floor(self, monkeypatch):
        # E(k) is 2.4e-9 and 5.7e-12 at k = 16, 20 and at the floor from k = 24,
        # so a fit over the top half of the ladder reads beta = -0.83
        cfg = parse_config("factor = 0.0 1.0 -1\nk_ladder = 16 20 24 28 32 36 40 44 48\n"
                           "experiments = pullback\n")
        (a8,) = run(cfg).criteria
        assert a8["pass"] and "k = [24, 28, 32, 36, 40, 44, 48]" in a8["description"]
        # control: a basis that ignores k keeps E(k) constant above the floor
        from torusbergman import basis as basis_mod

        build = basis_mod.build_basis
        monkeypatch.setattr(basis_mod, "build_basis", lambda model, k, eps=1e-12: build(model, 4, eps=eps))
        (a8,) = run(cfg).criteria
        assert not a8["pass"] and abs(a8["measured"]) < 1e-6

    @pytest.mark.parametrize("factors, ks, grid_n", [
        (((1j, -1), (1j, 1)), (4, 8, 12, 16), 4),
        (((0.3 + 1.1j, -1), (1j, 1), (-0.2 + 0.9j, 1)), (2, 3, 4, 5), 3),
        (((1j, -2), (0.25 + 1.5j, 1)), (4, 8, 12, 16), 4),
    ])
    def test_factor_fields_match_product_route(self, factors, ks, grid_n):
        # the Segre identity against pullback_*_many on the full product basis
        from torusbergman.embedding import _form_field

        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors])
        n2 = 2 * m.n
        cross = np.arange(n2)[:, None] // 2 != np.arange(n2)[None, :] // 2
        rep = convergence_report(m, ks, grid_n=grid_n, keep_fields=True)
        cloud = np.random.default_rng(3).random((40, n2))
        product = {"jacobian": pullback_jacobian_many, "ddbar_log": pullback_ddbar_many}
        for k in ks:
            b = build_basis(m, k)
            for method, fn in product.items():
                for pts, field in ((rep.grid, rep.fields[(method, k)]),
                                   (cloud, _form_field(b, cloud, method))):
                    want = np.concatenate([fn(b, pts[i:i + 128]) for i in range(0, len(pts), 128)])
                    assert np.max(np.abs(field - want)) <= 1e-12, (method, k)
                    assert np.all(field[:, cross] == 0.0)

    def test_factor_points_sorted_once_per_factor(self, monkeypatch):
        # one np.unique per factor for the whole report, not one per
        # (method, rung, factor): here 2 instead of 2 * 4 * 2
        from torusbergman import embedding

        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(kwargs.get("axis"))
            return unique(*args, **kwargs)

        monkeypatch.setattr(embedding.np, "unique", counting)
        convergence_report(model(-1, 1), [4, 6, 8, 10], grid_n=3)
        assert calls == [0, 0]

    def test_remixed_basis_rejected(self):
        m = model(-1, 1)
        U = haar_unitary(16, np.random.default_rng(2))
        with pytest.raises(ValueError, match="mix"):
            convergence_report(m, [4, 5, 6, 7], grid_n=3,
                               basis_builder=lambda k: build_basis(m, 4).remixed(U))

    def test_nonmonotone_errors_detected(self):
        # builder that scrambles the ladder produces increasing E(k)
        m = model(-1)
        scramble = {4: 12, 6: 4, 8: 8, 10: 6}
        with pytest.raises(RuntimeError):
            convergence_report(m, [4, 6, 8, 10], grid_n=5,
                               basis_builder=lambda k: build_basis(m, scramble[k]))


class TestDerivativeSums:
    @pytest.fixture(scope="module")
    def mixed_report(self):
        m = model(-1, 1)
        bases = [build_basis(m, k) for k in (8, 12, 16, 20)]
        return derivative_sums(bases, np.array([0.31, 0.42, 0.56, 0.27])), m

    def test_special_directions_exactly_zero_on_flat_models(self, mixed_report):
        rep, m = mixed_report
        for d, fam in rep.families.items():
            if fam == "special":
                assert d in rep.exact_zero
                assert np.all(rep.sums[d] == 0.0)

    def test_generic_direction_slope_k_to_n_plus_one(self, mixed_report):
        rep, m = mixed_report
        for d, fam in rep.families.items():
            if fam == "generic":
                assert rep.slopes[d].slope == pytest.approx(m.n + 1, abs=0.05)
                assert rep.slopes[d].slope >= m.n + 0.7

    def test_extremal_identity(self, mixed_report):
        rep, _ = mixed_report
        assert rep.extremal_dev <= 1e-9

    def test_positive_config_special_family_vanishes(self):
        m = model(2)
        bases = [build_basis(m, k) for k in (4, 6, 8, 10)]
        rep = derivative_sums(bases, np.array([0.4, 0.3]))
        # q=0: the special family is all Lbar directions
        assert rep.families[(0, "Lbar")] == "special"
        assert (0, "Lbar") in rep.exact_zero

    def test_unitary_invariance_of_sums(self):
        m = model(-1, 1)
        rng = np.random.default_rng(13)
        p = np.array([0.1, 0.9, 0.3, 0.5])
        bases = [build_basis(m, k) for k in (4, 6, 8, 10)]
        rep0 = derivative_sums(bases, p)
        # remixing leaves sum_j |Z S_j|^2 unchanged: check via explicit jets
        U = haar_unitary(bases[-1].dim, rng)
        jets0 = bases[-1].jets(p)
        jets1 = bases[-1].remixed(U).jets(p)
        s0 = np.sum(np.abs(jets0["dz"][0]) ** 2)
        s1 = np.sum(np.abs(jets1["dz"][0]) ** 2)
        assert s0 == pytest.approx(s1, rel=1e-9)
        assert rep0.sums[(0, "Lbar")][-1] > 0
