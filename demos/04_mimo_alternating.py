"""
Joint transmit and receive beamforming by block alternation
===========================================================

With multiple antennas at the source as well as the reader, the design
problem gains a transmit vector.  Fixing either side reduces the problem
to the single-transmit case on effective channels, so the solver simply
alternates: solve for the receive vector, then for the transmit
direction, seeding each inner solve with the incumbent so the SNR never
drops.  Once the rounds settle, one trade round lets one side leave slack
on the detection floors that the other side then spends.  This script runs the alternation on two 4x2 channel draws where
the detection constraints pull the design away from the obvious
singular-vector transmit choice, and checks the transmit side earns
its keep.
"""

import numpy as np

from backci.beamforming import alternating_mimo, consensual_sca
from backci.channel import SystemParams, gen_channel_set

params = SystemParams(K=1, M=4, Q=2)

for seed in (49, 81):
    chans = gen_channel_set(params, seed)
    G0, G1, Gs = chans.tag_channels(0)
    sol = alternating_mimo((G0, G1, Gs), params, "consensual")

    print(f"seed {seed}: feasible = {sol.feasible}, "
          f"{sol.iterations} rounds, converged = {sol.converged}")
    tr = np.asarray(sol.objective_trace)
    print("  SNR trace (dB): "
          + " -> ".join(f"{10 * np.log10(t):.3f}" for t in tr))
    print(f"  monotone = {bool(np.all(np.diff(tr) >= -1e-9))}")

    # The returned transmit vector carries the full power budget.
    print(f"  ||x||^2 = {float(np.vdot(sol.x, sol.x).real):.6f} "
          f"(budget {params.sigma_s2})")

    # Baseline: freeze the transmit direction at the dominant right
    # singular vector of the combined channel and only optimize the
    # receive side.  That is the alternation's own starting point, so
    # any gain is earned by moving the transmit side afterwards.
    _, _, vh = np.linalg.svd(G1)
    xt0 = vh[0].conj()
    fixed = consensual_sca((G0 @ xt0, G1 @ xt0, Gs @ xt0), params)
    gain = 10 * np.log10(sol.snr / fixed.snr)
    print(f"  fixed-transmit SNR = {10 * np.log10(fixed.snr):.3f} dB, "
          f"alternation = {10 * np.log10(sol.snr):.3f} dB "
          f"(gain {gain:+.3f} dB)")

    # Detection floors hold at the joint design too.
    st = sol.stats
    print(f"  KLD with DL = {st.kld_with:.3f}, without = "
          f"{st.kld_without:.3f}\n")
