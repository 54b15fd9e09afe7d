#!/usr/bin/env python3
"""Off-diagonal behavior of the projector kernel along a tensor-power ladder.

At fixed separation the normalized kernel ratio f_k decays like
exp(-2 k Im Psi) and its phase follows k Phi, the phase of the gamma = 0
term of the lattice sum of Bargmann-Fock kernels; at well-separated points
the kernel decays faster than any power of k.
"""

import numpy as np

from torusbergman import (
    ProductModel,
    TorusFactor,
    build_basis,
    expansion_model,
    far_separation_check,
    offdiagonal_fit,
    ratio_profile,
)


def main():
    model = ProductModel.from_factors([TorusFactor(1j, -1)])
    bases = [build_basis(model, k) for k in range(8, 44, 4)]
    x, y = np.array([0.45, 0.30]), np.array([0.35, 0.30])

    fit = offdiagonal_fit(bases, x, y)
    print(f"separation 0.10: fitted decay constant {fit.c_fit:.8f}")
    print(f"                 model 2 Im Psi        {fit.c_model:.8f}")
    print(f"                 relative deviation    {fit.rel_dev:.2e}")
    print(f"                 phase error vs k Phi  {fit.phase_dev:.2e}\n")

    far = far_separation_check(bases, np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    print(f"antipodal points: fitted exponential rate gamma = {far.gamma:.4f}")
    for N, dec in far.damped_decreasing.items():
        print(f"  k^{N} |P_k| decreasing on top half ladder: {dec}")

    basis = build_basis(model, 20)
    ts = np.linspace(0, 1, 9)
    fk = ratio_profile(basis, x, y, ts)
    em = expansion_model(model)
    dz = model.chart_dz(x, y)
    print("\n t     f_20(t)        exp(-2k Im Psi)")
    for t, v in zip(ts, fk):
        ref = np.exp(-2 * 20 * em.im_psi(t * dz))
        print(f"{t:4.2f}  {v:.10f}  {ref:.10f}")


if __name__ == "__main__":
    main()
