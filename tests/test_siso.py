import math

import numpy as np
import pytest

from backci.detection import detection_stats, kld_threshold
from backci.numerics import big_f
from backci.siso import snr_interval, ci_angle, theta_max_at_min_snr


class TestSnrInterval:
    def test_trivial_threshold(self):
        r = snr_interval(1.0, 0.5, 1.0)
        assert r.gamma_lo == 0.0
        assert r.gamma_hi == pytest.approx(4.0)
        assert r.nonempty

    def test_orthogonal_phases_empty(self):
        r = snr_interval(1.0, 1.0j, 1.2)
        assert r.gamma_hi == pytest.approx(0.0, abs=1e-15)
        assert r.gamma_lo > 0.0
        assert not r.nonempty

    def test_no_direct_link(self):
        r = snr_interval(0.0, 0.7, 1.3)
        assert r.gamma_hi == math.inf
        assert r.nonempty
        assert r.gamma_lo == pytest.approx((big_f(1.3) - 1.0) / 0.49)

    def test_errors(self):
        with pytest.raises(ValueError):
            snr_interval(1.0, 0.0, 1.2)
        with pytest.raises(ValueError):
            snr_interval(1.0, 1.0, 0.8)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="g_min"):
            snr_interval(1.0, 1.0, math.nan)

    @pytest.mark.parametrize("h_sr, h_str", [(math.nan, 1.0),
                                             (1.0, complex(math.inf, 0.0))])
    def test_non_finite_channel_rejected(self, h_sr, h_str):
        # Not a region with gamma_hi = nan.
        with pytest.raises(ValueError, match="finite"):
            snr_interval(h_sr, h_str, 1.2)

    def test_tiny_backscatter_link(self):
        # |h_str|^2 underflows; gamma_lo is beyond the float range.
        r = snr_interval(1.0, 1e-170, 1.2)
        assert r.gamma_lo == math.inf
        assert r.gamma_hi == pytest.approx(2e170, rel=1e-14)
        assert not r.nonempty

    def test_tiny_direct_link(self):
        # |h_sr|^2 underflows; gamma_hi is large and finite.
        r = snr_interval(1e-170, 1.0, 1.2)
        assert r.gamma_lo == big_f(1.2) - 1.0
        assert r.gamma_hi == pytest.approx(2e170, rel=1e-14)
        assert r.nonempty

    def test_both_bounds_beyond_float_range_refused(self):
        with pytest.raises(ValueError, match="too small"):
            snr_interval(1e-170, 1e-170, 1.2)

    def test_matches_squared_forms(self):
        # Dividing by each magnitude in turn moves the bounds at round-off.
        rng = np.random.default_rng(5)
        for _ in range(300):
            h_sr, h_str = (complex(*rng.normal(size=2)) * 10 ** rng.uniform(
                -3, 3) for _ in range(2))
            g_min = float(rng.uniform(1.0, 2.0))
            r = snr_interval(h_sr, h_str, g_min)
            a_sr, a_str = abs(h_sr) ** 2, abs(h_str) ** 2
            assert r.gamma_lo == pytest.approx(
                (big_f(g_min) - 1.0) / a_str, rel=1e-14)
            assert r.gamma_hi == pytest.approx(
                2.0 * (h_sr.conjugate() * h_str).real / (a_sr * a_str),
                rel=1e-13, abs=1e-13 / (abs(h_sr) * abs(h_str)))

    def test_first_principles_membership(self):
        """gamma in [lo, hi] iff (delta-KLD >= 0 and no-DL KLD >= E_min).

        Draws are conditioned on delta1 >= delta0 (equivalently
        2 Re(h_sr^* h_str) + |h_str|^2 >= 0, gamma-independent), the branch on
        which the interval is derived; destructive-cancellation draws make
        the DL detectable through a power drop instead and are out of scope.
        The pairing E_min = N (g_min - 1) makes the check N-independent,
        which random N here exercises.
        """
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(500):
            h_sr = complex(rng.normal(), rng.normal()) * rng.uniform(0, 1.2)
            h_str = complex(rng.normal(), rng.normal())
            if abs(h_str) < 1e-3:
                continue
            if 2.0 * (h_sr.conjugate() * h_str).real + abs(h_str) ** 2 < 0:
                continue
            n = int(rng.integers(1, 16))
            zeta = float(rng.uniform(0.05, 0.95))
            e_min = kld_threshold(zeta)
            g_min = e_min / n + 1.0
            gamma = float(10 ** rng.uniform(-2.0, 2.0))
            r = snr_interval(h_sr, h_str, g_min)
            if min(abs(gamma - r.gamma_lo),
                   abs(gamma - r.gamma_hi)) <= 1e-9 * max(1.0, gamma):
                continue
            inside = r.gamma_lo <= gamma <= r.gamma_hi
            s = detection_stats(np.array([1.0 + 0j]),
                                np.array([h_sr]),
                                np.array([h_sr + h_str]),
                                np.array([h_str]),
                                gamma, 1.0, n)
            holds = s.delta_kld >= -1e-12 and s.kld_without >= e_min - 1e-12
            assert inside == holds, (h_sr, h_str, gamma, r)
            checked += 1
        assert checked > 200


class TestCiAngle:
    def test_pi_third_anchor(self):
        assert ci_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3.0,
                                                        abs=1e-12)

    def test_zero_snr_cap(self):
        assert ci_angle(1.0, 1.0, 0.0) == pytest.approx(math.pi / 2.0)

    def test_empty_marker(self):
        assert ci_angle(1.0, 1.0, 2.5) is None

    def test_errors(self):
        with pytest.raises(ValueError):
            ci_angle(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ci_angle(1.0, 1.0, -0.5)

    @pytest.mark.parametrize("args", [(1.0, 1.0, math.nan),
                                      (math.nan, 1.0, 1.0),
                                      (1.0, math.inf, 0.0)])
    def test_non_finite_rejected(self, args):
        # None of these may read as the widest angle, pi/2.
        with pytest.raises(ValueError):
            ci_angle(*args)

    def test_nonincreasing_in_each_argument(self):
        gammas = np.linspace(0.1, 1.9, 25)
        angles = [ci_angle(1.0, 1.0, float(g)) for g in gammas]
        assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
        mags = np.linspace(0.1, 1.9, 25)
        angles = [ci_angle(float(m), 1.0, 1.0) for m in mags]
        assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
        angles = [ci_angle(1.0, float(m), 1.0) for m in mags]
        assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))

    def test_phase_sweep_boundary(self):
        """delta-KLD >= 0 exactly below the returned angle.

        Magnitudes keep |h_str| >= 2 |h_sr| so the variance ratio stays >= 1
        across the whole sweep and the angle is the unique sign change.
        """
        h_sr_mag, h_str_mag, gamma = 0.4, 1.0, 1.5
        boundary = ci_angle(h_sr_mag, h_str_mag, gamma)
        assert boundary is not None
        for theta in np.linspace(0.0, math.pi, 1500):
            if abs(theta - boundary) <= 1e-6:
                continue
            h_sr = h_sr_mag + 0j
            h_str = h_str_mag * np.exp(1j * theta)
            s = detection_stats(np.array([1.0 + 0j]), np.array([h_sr]),
                                np.array([h_sr + h_str]), np.array([h_str]),
                                gamma, 1.0, 10)
            assert (s.delta_kld >= 0) == (theta <= boundary), theta


class TestThetaMaxAtMinSnr:
    def test_trivial_threshold_cap(self):
        assert theta_max_at_min_snr(1.0, 1.0, 1.0) == pytest.approx(
            math.pi / 2.0)

    def test_pi_third(self):
        # F(g) - 1 = 1 at g = ln 2 + 1/2.
        g = math.log(2.0) + 0.5
        assert big_f(g) == pytest.approx(2.0, abs=1e-10)
        assert theta_max_at_min_snr(1.0, 1.0, g) == pytest.approx(
            math.pi / 3.0, abs=1e-9)

    def test_empty_marker(self):
        assert theta_max_at_min_snr(5.0, 0.1, 2.0) is None

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.5),
                                      (1.0, math.nan, 1.5),
                                      (1.0, 1.0, math.nan)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError):
            theta_max_at_min_snr(*args)

    def test_tiny_magnitudes(self):
        assert theta_max_at_min_snr(1.0, 1e-170, 1.2) is None
        assert theta_max_at_min_snr(1e-170, 1.0, 1.2) == math.pi / 2.0
        with pytest.raises(ValueError, match="too small"):
            theta_max_at_min_snr(1e-170, 1e-170, 1.2)

    def test_matches_arccos_form(self):
        # ci_angle at gamma_lo against arccos(|h_sr| (F - 1) / (2 |h_str|)).
        rng = np.random.default_rng(6)
        for _ in range(300):
            m_sr, m_str = 10 ** rng.uniform(-3, 3, size=2)
            g_min = float(rng.uniform(1.0, 2.0))
            arg = m_sr * (big_f(g_min) - 1.0) / (2.0 * m_str)
            theta = theta_max_at_min_snr(m_sr, m_str, g_min)
            if abs(arg - 1.0) < 1e-12:
                continue
            if arg > 1.0:
                assert theta is None
            else:
                assert theta == pytest.approx(math.acos(arg), abs=1e-12)

    def test_decreasing_in_g_min(self):
        # The angle exists while F(g) - 1 <= 2, i.e. g <= ln 3 + 1/3.
        gs = np.linspace(1.0, math.log(3.0) + 1.0 / 3.0 - 1e-6, 30)
        angles = [theta_max_at_min_snr(1.0, 1.0, float(g)) for g in gs]
        assert all(a is not None for a in angles)
        assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
        assert theta_max_at_min_snr(1.0, 1.0, 1.9) is None
