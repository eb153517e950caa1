"""Acceptance battery: the eleven end-to-end criteria for this package.

Each test emits exactly one `acceptance NN PASS/FAIL` line and then
asserts.  The lines are buffered and replayed by a terminal-summary hook
in conftest.py, so they appear once at the end of the run even under
pytest's output capture.  Criteria that compare against the dense grid
oracles or run Monte Carlo sweeps dominate the runtime; the whole battery
stays well inside the ten-minute budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from backci.beamforming import consensual_sca, divergence_floors, evolved_sdp
from backci.channel import SystemParams, gen_channel_set
from backci.detection import (
    dep_lower_bound,
    dep_oracle,
    detection_stats,
    kld,
    kld_threshold,
)
from backci.harness import SweepConfig, run_sweep, write_csv
from backci.numerics import big_f
from backci.siso import ci_angle, theta_max_at_min_snr
from oracles import ci_inequality_margin, constrained_snr_oracle

_CACHE: dict = {}

REPORT_LINES: list = []


def _report(num: int, ok: bool, detail: str) -> bool:
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line, flush=True)
    return ok


def _consensual_feasible_m4(count=130):
    """First `count` seeds whose first tag is consensual-feasible at M=4."""
    key = ("m4", count)
    if key not in _CACHE:
        params = SystemParams(K=1, M=4)
        found = []
        seed = 0
        while len(found) < count:
            sol = consensual_sca(
                gen_channel_set(params, seed).tag_channels(0), params)
            if sol.feasible:
                found.append((seed, sol))
            seed += 1
        _CACHE[key] = (params, found)
    return _CACHE[key]


def test_criterion_01_threshold_anchor():
    ok = abs(kld_threshold(0.5) - 0.2876820724) <= 1e-9
    worst = 0.0
    for e in (0.1, 0.3, 0.5, 0.9):
        worst = max(worst, abs(dep_lower_bound(kld_threshold(e)) - e))
    ok = ok and worst <= 1e-12
    assert _report(1, ok, f"threshold anchor and round trip "
                          f"(worst {worst:.2e})")


def test_criterion_02_bound_validity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10000):
        d0 = float(rng.uniform(0.05, 5.0))
        d1 = float(rng.uniform(0.05, 5.0))
        n = int(rng.integers(1, 9))
        bound = dep_lower_bound(kld(d1, d0, n))
        exact = dep_oracle(d0, d1, n)
        violations += bound > exact + 1e-9
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 5.0
    assert _report(2, ok, f"dep bound below exact dep on 10^4 draws "
                          f"({violations} violations, {dt:.1f}s)")


def test_criterion_03_ratio_threshold_equivalence():
    rng = np.random.default_rng(3)
    violations = checked = 0
    while checked < 10000:
        x = float(rng.uniform(1.0, 30.0))
        f_min = float(rng.uniform(1.0, 5.0))
        lhs = math.log(x) + 1.0 / x - f_min
        rhs = x - big_f(f_min)
        if abs(lhs) <= 1e-9 or abs(rhs) <= 1e-9:
            continue
        checked += 1
        violations += (lhs >= 0.0) != (rhs >= 0.0)
    assert _report(3, violations == 0,
                   f"divergence floor <=> variance-ratio threshold on 10^4 "
                   f"draws ({violations} violations)")


def test_criterion_04_channel_inequality_equivalence():
    # the biconditional lives on the non-destructive branch delta1 >= delta0
    params = SystemParams(M=4)
    gamma = params.gamma
    rng = np.random.default_rng(4)
    violations = checked = 0
    while checked < 10000:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        h0 = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 0.4
        hs = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 0.4
        st = detection_stats(v, h0, h0 + hs, hs, params.sigma_s2,
                             params.sigma_w2, params.N)
        if st.delta1 < st.delta0:
            continue
        margin = ci_inequality_margin(v, h0, hs, gamma)
        if abs(margin) <= 1e-9 or abs(st.delta_kld) <= 1e-9:
            continue
        checked += 1
        violations += (margin >= 0.0) != (st.delta_kld >= 0.0)
    assert _report(4, violations == 0,
                   f"delta-KLD sign matches channel inequality on 10^4 "
                   f"draws ({violations} violations)")


def test_criterion_05_sca_contract():
    params, found = _consensual_feasible_m4()
    d_min, e_min, _fw, _fo = divergence_floors(params)
    n_mono = n_floors = 0
    for _seed, sol in found[:100]:
        tr = sol.objective_trace
        n_mono += all(b >= a - params.omega * max(1.0, abs(b))
                      for a, b in zip(tr, tr[1:]))
        n_floors += (sol.stats.kld_with >= d_min - 1e-6
                     and sol.stats.kld_without >= e_min - 1e-6)
    ok = n_mono == 100 and n_floors == 100
    assert _report(5, ok, f"sca traces monotone {n_mono}/100, divergence "
                          f"floors met {n_floors}/100")


def test_criterion_06_evolved_contract():
    params, found = _consensual_feasible_m4()
    n_rank = n_ci = n_done = 0
    for seed, _sol in found:
        if n_done == 100:
            break
        esol = evolved_sdp(
            gen_channel_set(params, seed).tag_channels(0), params)
        if not esol.feasible:
            continue
        n_done += 1
        n_rank += esol.rank_residual <= 1e-3
        n_ci += esol.stats.delta_kld >= -1e-6
    ok = n_done == 100 and n_rank >= 95 and n_ci == 100
    assert _report(6, ok, f"evolved rank residual <=1e-3 on {n_rank}/"
                          f"{n_done}, dl never hurts on {n_ci}/{n_done}")


def test_criterion_07_oracle_equivalence():
    params = SystemParams(K=1, M=2)
    d_min, e_min, _fw, _fo = divergence_floors(params)

    def scan(solver, mode, n=20, **solver_params):
        p = replace(params, **solver_params) if solver_params else params
        worst = 0.0
        seed = 0
        done = 0
        while done < n:
            h0, h1, hs = gen_channel_set(p, seed).tag_channels(0)
            seed += 1
            sol = solver((h0, h1, hs), p)
            if not sol.feasible:
                continue
            snr_ref, _v = constrained_snr_oracle(
                h0, h1, hs, p.sigma_s2, p.sigma_w2, p.N, d_min, e_min, mode)
            assert snr_ref is not None
            worst = max(worst, abs(sol.snr - snr_ref) / snr_ref)
            done += 1
        return worst

    worst_c = scan(consensual_sca, "consensual")
    # T = 200 keeps the auxiliary-grid quantization inside the tolerance
    worst_e = scan(evolved_sdp, "evolved", T=200)

    p1 = SystemParams(M=1, K=1)
    g_min = kld_threshold(p1.zeta_max) / p1.N + 1.0
    from backci.siso import snr_interval
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(500):
        h_sr = complex(*rng.normal(scale=0.12, size=2))
        h_str = complex(*rng.normal(scale=0.6, size=2))
        h0 = np.array([h_sr])
        hs = np.array([h_str])
        sol = evolved_sdp((h0, h0 + hs, hs), p1)
        region = snr_interval(h_sr, h_str, g_min)
        inside = region.gamma_lo <= p1.gamma <= region.gamma_hi
        disagreements += sol.feasible != inside
    ok = worst_c <= 1e-2 and worst_e <= 1e-2 and disagreements == 0
    assert _report(7, ok, f"grid-oracle gaps: consensual {worst_c:.1e}, "
                          f"evolved {worst_e:.1e} (20 seeds each); scalar "
                          f"interval disagreements {disagreements}/500")


def test_criterion_08_angle_anchor():
    params = SystemParams()
    gamma = params.gamma
    mag_str = 0.6
    mag_sr = 1.0 / (gamma * mag_str)   # gamma |h_sr| |h_str| = 1
    theta_ref = ci_angle(mag_sr, mag_str, gamma)
    anchor_ok = theta_ref is not None \
        and abs(theta_ref - math.pi / 3.0) <= 1e-9

    def dkl(theta):
        h0 = np.array([mag_sr + 0.0j])
        hs = np.array([mag_str * np.exp(1j * theta)])
        st = detection_stats(np.array([1.0 + 0j]), h0, h0 + hs, hs,
                             params.sigma_s2, params.sigma_w2, params.N)
        return st.delta_kld

    # the sign of the divergence gain flips exactly at the returned angle
    lo, hi = theta_ref - 0.2, theta_ref + 0.2
    assert dkl(lo) > 0.0 > dkl(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dkl(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    sweep_ok = abs(flip - theta_ref) <= 1e-4
    ok = anchor_ok and sweep_ok
    assert _report(8, ok, f"ci angle anchor pi/3 and sign flip at the "
                          f"boundary (offset {abs(flip - theta_ref):.1e} "
                          f"rad)")


def test_criterion_09_trend_reproduction():
    cfg = SweepConfig(
        sweep_var="sigma_s2", values=[0.2, 0.4, 0.6, 0.8], trials=200,
        algorithms=["consensual", "canceled_dli", "harmful_dli"],
        base=SystemParams(K=5, M=4, rho=3.0))
    records = run_sweep(cfg, workers=4)
    ok = True
    gaps = []
    for value in cfg.values:
        by_alg = {a: [r for r in records
                      if r.value == value and r.algorithm == a and
                      r.feasible]
                  for a in cfg.algorithms}
        n_cons = len(by_alg["consensual"])
        if n_cons < cfg.trials * 0.5:
            gaps.append(f"{value}:skipped({n_cons}feas)")
            continue
        mean = {a: np.mean([r.snr_db for r in rows]) if rows else -np.inf
                for a, rows in by_alg.items()}
        gap_c = mean["consensual"] - mean["canceled_dli"]
        gap_h = mean["consensual"] - mean["harmful_dli"]
        ok = ok and gap_c >= 0.0 and gap_h >= 0.0
        gaps.append(f"{value}:+{gap_c:.1f}/+{gap_h:.1f}dB")
    assert _report(9, ok, "mean snr gain over canceled/harmful dli per "
                          "watt value: " + " ".join(gaps))


def test_criterion_10_monotone_region():
    params = SystemParams()
    zs = np.linspace(0.05, 1.0, 10)
    mag_sr, mag_str = 0.7, 0.9
    g_mins = [kld_threshold(float(z)) / params.N + 1.0 for z in zs]
    los = [(big_f(g) - 1.0) / mag_str ** 2 for g in g_mins]
    his = [2.0 / (mag_sr * mag_str) for _ in g_mins]
    thetas = [theta_max_at_min_snr(mag_sr, mag_str, g) for g in g_mins]
    lo_ok = all(b <= a + 1e-12 for a, b in zip(los, los[1:]))
    th_ok = all(a is not None and b is not None and b >= a - 1e-12
                for a, b in zip(thetas, thetas[1:]))
    hi_ok = len(set(his)) == 1
    ok = lo_ok and th_ok and hi_ok
    assert _report(10, ok, f"snr floor nonincreasing ({lo_ok}), ci angle "
                           f"nondecreasing ({th_ok}), ceiling tolerance-"
                           f"independent ({hi_ok}) over 10-point grid")


def test_criterion_11_determinism(tmp_path):
    cfg = SweepConfig(
        sweep_var="sigma_s2", values=[0.2, 0.6], trials=3,
        algorithms=["consensual", "canceled_dli", "random_sel"],
        base=SystemParams(K=3, M=2))
    blobs = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        out = tmp_path / name
        write_csv(run_sweep(cfg, workers=workers), str(out))
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _report(11, ok, "sweep csv byte-identical across reruns and "
                           "worker counts")
