import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from backci import detection
from backci.detection import (
    hypothesis_variances,
    kld,
    kld_threshold,
    dep_lower_bound,
    dep_oracle,
    detection_stats,
)
from oracles import ci_inequality_margin, dep_oracle_quad

KLD_THR_HALF = 0.2876820724517809   # -ln(3/4)
KLD_THR_TENTH = 1.660731206821651   # -ln(0.19)


class TestHypothesisVariances:
    def test_orthogonal_beamformer(self):
        v = np.array([0, 0, 1.0])
        h0 = np.array([1.0, 0, 0])
        h1 = np.array([0, 1.0, 0])
        assert hypothesis_variances(v, h0, h1, 1.0, 0.03) == (0.03, 0.03)

    def test_no_direct_link(self):
        v = np.array([1.0, 2.0j])
        h1 = np.array([1.0, 1.0])
        d0, _ = hypothesis_variances(v, np.zeros(2), h1, 2.0, 0.5)
        assert d0 == pytest.approx(0.5 * 5.0)

    def test_direct_evaluation(self):
        v = np.array([1.0, 0.0])
        h1 = np.array([2.0, 5.0])
        _, d1 = hypothesis_variances(v, np.zeros(2), h1, 1.0, 0.03)
        assert d1 == pytest.approx(4.03)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hypothesis_variances(np.ones(2), np.ones(3), np.ones(3), 1.0, 1.0)

    def test_bad_powers(self):
        with pytest.raises(ValueError):
            hypothesis_variances(np.ones(2), np.ones(2), np.ones(2), 0.0, 1.0)


class TestKld:
    def test_equal_variances(self):
        assert kld(3.0, 3.0, 5) == 0.0

    def test_ratio_e(self):
        assert kld(math.e, 1.0, 1) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_linear_in_n(self):
        assert kld(2.5, 1.5, 7) == pytest.approx(7 * kld(2.5, 1.5, 1))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.1, 10.0, 2)
            assert kld(a, b, 3) >= 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.floats(0.01, 1000.0))
    def test_scale_invariance(self, a, b, c):
        assert kld(c * a, c * b, 4) == pytest.approx(kld(a, b, 4),
                                                     rel=1e-9, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            kld(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            kld(1.0, 1.0, 0)


class TestKldThreshold:
    def test_trivial_tolerance(self):
        assert kld_threshold(1.0) == 0.0
        # log1p(-0.0) is -0.0: the outer negation must make it +0.0.
        assert math.copysign(1.0, kld_threshold(1.0)) == 1.0

    def test_half(self):
        assert kld_threshold(0.5) == pytest.approx(KLD_THR_HALF, abs=1e-12)
        assert kld_threshold(0.5) == pytest.approx(math.log(4.0 / 3.0),
                                                   abs=1e-12)

    def test_tenth(self):
        assert kld_threshold(0.1) == pytest.approx(KLD_THR_TENTH, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            kld_threshold(0.0)
        with pytest.raises(ValueError):
            kld_threshold(1.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            kld_threshold(math.nan)


class TestDepLowerBound:
    def test_zero_kld(self):
        assert dep_lower_bound(0.0) == 1.0

    def test_half(self):
        assert dep_lower_bound(math.log(4.0 / 3.0)) == pytest.approx(0.5,
                                                                     abs=1e-12)

    def test_large_kld(self):
        assert dep_lower_bound(50.0) == pytest.approx(0.0, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dep_lower_bound(-1e-3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dep_lower_bound(math.nan)

    def test_threshold_round_trip(self):
        # The bound and the threshold are exact inverses on (0, 1].
        for e in [0.1, 0.3, 0.5, 0.9, 0.99, 1.0]:
            assert dep_lower_bound(kld_threshold(e)) == pytest.approx(
                e, abs=1e-12)


class TestDepOracle:
    def test_degenerate(self):
        assert dep_oracle(2.0, 2.0, 4) == 1.0

    def test_exponential_closed_form(self):
        # N = 1, delta1 = 2 delta0: errors are e^{-2 ln 2} and 1 - e^{-ln 2}.
        for d0 in [0.3, 1.0, 7.5]:
            assert dep_oracle(d0, 2 * d0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        assert dep_oracle(1.0, 3.0, 5) == pytest.approx(
            dep_oracle(3.0, 1.0, 5), abs=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d0, d1 = rng.uniform(0.05, 5.0, 2)
            n = int(rng.integers(1, 9))
            assert dep_oracle(d0, d1, n) == pytest.approx(
                dep_oracle_quad(d0, d1, n), abs=1e-9)

    def test_erlang_cdf_matches_scipy(self):
        y = np.logspace(-4.0, 3.5, 600)
        for n in range(1, 65):
            ours = np.array([detection._erlang_cdf(n, float(v)) for v in y])
            np.testing.assert_allclose(ours, gammainc(n, y), rtol=0.0,
                                       atol=1e-13)

    def test_erlang_cdf_limits(self):
        assert detection._erlang_cdf(5, 0.0) == 0.0
        assert detection._erlang_cdf(5, math.inf) == 1.0
        assert detection._erlang_cdf(400, 1e6) == 1.0

    @pytest.mark.parametrize("n", [2.5, 0, -3, math.nan, math.inf])
    def test_refuses_non_integer_n(self, n):
        with pytest.raises(ValueError, match="integer"):
            dep_oracle(1.0, 2.0, n)

    def test_bound_direction(self):
        # Bretagnolle-Huber never exceeds the true optimal DEP.
        rng = np.random.default_rng(21)
        for _ in range(2000):
            d0, d1 = rng.uniform(0.02, 8.0, 2)
            n = int(rng.integers(1, 9))
            bound = dep_lower_bound(kld(d1, d0, n))
            assert bound <= dep_oracle(d0, d1, n) + 1e-9


class TestDetectionStats:
    def test_consistency(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        h0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        hb = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = detection_stats(v, h0, h0 + hb, hb, 0.6, 0.03, 10)
        assert s.delta_kld == pytest.approx(s.kld_with - s.kld_without)
        assert s.dep_bound_with == pytest.approx(dep_lower_bound(s.kld_with))
        assert s.delta0_bar == pytest.approx(0.03)  # unit beamformer
        assert 0.0 <= s.dep_bound_with <= 1.0
        assert 0.0 <= s.dep_bound_without <= 1.0
        assert s.delta0 >= 0.03 - 1e-12 and s.delta1 >= 0.03 - 1e-12


class TestCiInequality:
    """Equivalence between the sign of delta-KLD and the channel inequality.

    The conversion of f(x) - f(x_bar) >= 0 into x >= x_bar uses monotonicity
    of f on [1, inf), so the biconditional lives on delta1 >= delta0 (x >= 1);
    draws below it (destructive cancellation) are excluded, matching the
    feasible-region restriction under which the inequality is derived.
    """

    def test_sign_equivalence(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(4000):
            m = 4
            v = rng.normal(size=m) + 1j * rng.normal(size=m)
            v /= np.linalg.norm(v)
            h0 = rng.normal(size=m) + 1j * rng.normal(size=m)
            hb = (rng.normal(size=m) + 1j * rng.normal(size=m)) * rng.uniform(
                0.2, 1.5)
            gamma = float(10 ** rng.uniform(-1.0, 1.5))
            s = detection_stats(v, h0, h0 + hb, hb, gamma, 1.0, 4)
            if s.delta1 < s.delta0:
                continue
            margin = ci_inequality_margin(v, h0, hb, gamma)
            if abs(margin) <= 1e-9 or abs(s.delta_kld) <= 1e-9:
                continue
            assert (s.delta_kld >= 0) == (margin >= 0)
            checked += 1
        assert checked > 1000

    def test_forward_direction_unconditional(self):
        # Inequality satisfied implies the DL helps, with no regime filter
        # (the inequality itself forces delta1 >= delta0).
        rng = np.random.default_rng(34)
        found = 0
        for _ in range(3000):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            h0 = rng.normal(size=4) + 1j * rng.normal(size=4)
            hb = rng.normal(size=4) + 1j * rng.normal(size=4)
            gamma = float(10 ** rng.uniform(-1.0, 1.0))
            if ci_inequality_margin(v, h0, hb, gamma) < 1e-9:
                continue
            s = detection_stats(v, h0, h0 + hb, hb, gamma, 1.0, 6)
            assert s.delta_kld >= -1e-9
            found += 1
        assert found > 200
