#!/usr/bin/env python3
"""The projective embedding and its almost-isometry property.

The coefficient map into CP^(d_k) is well defined (the density never
vanishes), injective on grid scans, immersive (rank of the differential is
2n), and pulls the Fubini-Study form back to k * omega up to an error that
dies with k.  Both pullback routes are compared: the jacobian route through
the full real differential (ground truth for non-holomorphic maps) and the
del-delbar route applied to the log density.
"""

import numpy as np

from torusbergman import (
    ProductModel,
    TorusFactor,
    build_basis,
    convergence_report,
    differential,
    injectivity_scan,
    omega,
    pullback_ddbar_many,
    pullback_jacobian_many,
    well_defined_check,
)


def main():
    model = ProductModel.from_factors([TorusFactor(1j, -1), TorusFactor(1j, 1)])
    print("signature (1,1) product, J0 = (1,)\n")

    basis = build_basis(model, 8)
    wd = well_defined_check(basis, 32)
    scan = injectivity_scan(basis, grid_n=24)
    rank = differential(basis, np.array([0.3, 0.7, 0.2, 0.1])).rank
    print(f"k=8: min density / (b0 k^n)     = {wd.min_ratio:.6f}")
    print(f"     min pairwise FS distance   = {scan.min_fs_distance:.6f}")
    print(f"     near-diagonal alpha        = {scan.near_diagonal_alpha:.4f}")
    print(f"     rank of dPhi               = {rank}  (2n = {2 * model.n})\n")

    z = np.array([0.21, 0.37, 0.61, 0.13])
    w0 = omega(model)
    fj = pullback_jacobian_many(basis, z)[0]
    fd = pullback_ddbar_many(basis, z)[0]
    print(f"sup |jacobian pullback - omega| = {np.max(np.abs(fj - w0)):.3e}")
    print(f"sup |ddbar pullback - omega|    = {np.max(np.abs(fd - w0)):.3e}")
    print(f"sup |jacobian - ddbar|          = {np.max(np.abs(fj - fd)):.3e}\n")

    rep = convergence_report(model, [4, 6, 8, 10, 12], grid_n=4)
    print(" k    E_jacobian     E_ddbar")
    for i, k in enumerate(rep.ks):
        print(f"{k:3d}   {rep.errors['jacobian'][i]:.3e}     {rep.errors['ddbar_log'][i]:.3e}")
    print(f"\nfitted rate of the ddbar error: k^{rep.slopes['ddbar_log'].slope:.2f}")
    print("(only convergence E(k) -> 0 is guaranteed in general; on flat")
    print("homogeneous models the decay is exponential, so the power is large.)")


if __name__ == "__main__":
    main()
