import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw

from backci.beamforming import divergence_floors
from backci.channel import SystemParams
from backci.numerics import (
    lambert_w0,
    big_f,
    hermitian_eig,
)
from oracles import (
    lambert_w0_oracle,
    big_f_oracle,
    big_f_lower_oracle,
    cubic_hermitian_eigvals,
)

INV_E = math.exp(-1.0)

# Frozen with the bisection oracles in oracles.py (cross-checked against
# scipy.special.lambertw, agreement to 16 digits).
OMEGA = 0.5671432904097838        # W0(1)
BIG_F_2 = 6.305395279271691       # ln y + 1/y = 2, upper branch
BIG_F_THR = 2.3816975062934334    # same equation at x = 1.2876820724


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_branch_point(self):
        assert lambert_w0(-INV_E) == pytest.approx(-1.0, abs=1e-9)

    def test_one(self):
        assert lambert_w0(1.0) == pytest.approx(OMEGA, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(lambert_w0_oracle(1.0), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            lambert_w0(math.nan)

    def test_infinity(self):
        assert lambert_w0(math.inf) == math.inf
        with pytest.raises(ValueError):
            lambert_w0(-math.inf)

    def test_largest_float(self):
        # w e^w overflows near here; the iteration must not.
        x = sys.float_info.max
        assert lambert_w0(x) == pytest.approx(lambertw(x).real, rel=1e-15)

    def test_matches_scipy_dense_grid(self):
        # The grid starts 1e-6 above -1/e: closer in, W0 is too
        # ill-conditioned for two implementations to agree to 1e-13.
        x = np.concatenate([
            -INV_E + np.logspace(-6.0, math.log10(INV_E), 20000),
            np.linspace(-0.3, 10.0, 20000),
            np.logspace(-300.0, 300.0, 20000),
            -np.logspace(-300.0, math.log10(0.36), 5000),
        ])
        ref = lambertw(x).real
        ours = np.array([lambert_w0(float(v)) for v in x])
        np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=0.0)

    def test_accurate_to_a_few_ulps(self):
        # w - W0(x) to first order is r / (e^w (1 + w)), r = w e^w - x in
        # 40 digits.  Near -1/e, where w e^w - x cancels in floats, this
        # holds only because the iteration runs on u = 1 + w there.
        x = np.concatenate([
            -INV_E + np.logspace(-13.5, math.log10(0.3), 3000),
            np.linspace(-0.3, 5.0, 1000),
            np.logspace(-300.0, 300.0, 500),
        ])
        with localcontext() as ctx:
            ctx.prec = 40
            for v in x:
                w = lambert_w0(float(v))
                dw = Decimal(w)
                ew = dw.exp()
                err = (dw * ew - Decimal(float(v))) / (ew * (dw + 1))
                assert abs(float(err)) <= 2e-15 * abs(w), v

    def test_default_divergence_floors_pinned(self):
        # Every identity family runs at these floors, so a W0 change that
        # moves them by one ulp shows here first.
        got = divergence_floors(SystemParams())
        assert [repr(v) for v in got] == [
            "0.2876820724517809", "0.2876820724517809",
            "1.2838362842023656", "1.2838362842023656"]

    def test_divergence_floors_follow_the_params_values(self):
        # The floors are cached on the tolerances' values, not on the
        # mutable params object: editing a field on the same object moves
        # them, and an equal fresh object reads the same values.
        params = SystemParams()
        before = divergence_floors(params)
        params.zeta_max = 0.1
        after = divergence_floors(params)
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1] > before[1] and after[3] > before[3]
        assert after == divergence_floors(SystemParams(zeta_max=0.1))
        params.N = 20
        assert divergence_floors(params)[3] != after[3]

    def test_residual_contract_grid(self):
        for x in [-INV_E + 1e-10, -0.3, -0.1, -1e-8, 1e-8, 0.5, 2.7, 10.0,
                  1e3, 1e8, 1e156, 1e200, 1e300]:
            w = lambert_w0(x)
            assert w >= -1.0 - 1e-12
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(min_value=-INV_E, max_value=1e6, allow_nan=False))
    def test_round_trip_hypothesis(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))


def test_round_trip_bulk_both_branches():
    rng = np.random.default_rng(7)
    # 10^4 draws on W0, mixing near-branch-point and far-field ranges.
    x0 = np.concatenate([
        rng.uniform(-INV_E, 0.0, 4000),
        rng.uniform(0.0, 10.0, 3000),
        10 ** rng.uniform(1.0, 8.0, 3000),
    ])
    for x in x0:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))


class TestBigF:
    def test_at_one(self):
        assert big_f(1.0) == 1.0

    def test_frozen_values(self):
        # Oracle-recomputed here so the frozen constants cannot drift.
        assert big_f_oracle(2.0) == pytest.approx(BIG_F_2, abs=1e-12)
        assert big_f(2.0) == pytest.approx(BIG_F_2, abs=1e-9)
        assert big_f_oracle(1.2876820724) == pytest.approx(BIG_F_THR, abs=1e-12)
        assert big_f(1.2876820724) == pytest.approx(BIG_F_THR, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            big_f(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="domain error"):
            big_f(math.nan)

    def test_defining_equation_grid(self):
        for x in np.linspace(1.0 + 1e-6, 30.0, 200):
            y = big_f(float(x))
            assert y >= 1.0
            assert math.log(y) + 1.0 / y == pytest.approx(x, abs=1e-10)

    def test_strictly_increasing_and_geq_one(self):
        xs = np.linspace(1.0, 20.0, 400)
        ys = np.array([big_f(float(x)) for x in xs])
        assert np.all(ys >= 1.0)
        assert np.all(np.diff(ys) > 0.0)

    def test_monotone_equivalence(self):
        # (ln y + 1/y >= x) <=> (y >= big_f(x)) outside a 1e-9 band.
        rng = np.random.default_rng(11)
        for _ in range(2000):
            x = float(rng.uniform(1.0 + 1e-6, 6.0))
            y = float(10 ** rng.uniform(0.0, 3.0))
            thr = big_f(x)
            if abs(y - thr) <= 1e-9:
                continue
            lhs = math.log(y) + 1.0 / y >= x
            rhs = y >= thr
            assert lhs == rhs, (x, y, thr)

    def test_discarded_branch(self):
        # ln y + 1/y = x also has a root below 1; big_f returns the one above.
        for x in [1.5, 2.0, 4.0]:
            lo = big_f_lower_oracle(x)
            hi = big_f(x)
            assert lo < 1.0 < hi
            assert math.log(lo) + 1.0 / lo == pytest.approx(x, abs=1e-9)


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = hermitian_eig(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.conj().T, np.eye(4))

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=5) + 1j * rng.normal(size=5)
        vals, vecs = hermitian_eig(np.outer(h, h.conj()))
        assert vals[0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)
        assert np.allclose(vals[1:], 0.0, atol=1e-10)
        # Dominant eigenvector is h up to a global phase.
        overlap = abs(np.vdot(vecs[:, 0], h)) / np.linalg.norm(h)
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_random_3x3_vs_cubic_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            H = A + A.conj().T
            vals, _ = hermitian_eig(H)
            ref = cubic_hermitian_eigvals(H)
            assert np.allclose(vals, ref, atol=1e-8 * max(1.0,
                               float(np.abs(ref).max())))

    def test_reconstruction_and_residual(self):
        rng = np.random.default_rng(9)
        for m in [2, 4, 8]:
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            H = A + A.conj().T
            vals, vecs = hermitian_eig(H)
            nrm = np.linalg.norm(H)
            assert np.all(np.diff(vals) <= 1e-12)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(recon - H) <= 1e-9 * nrm
            for i in range(m):
                res = H @ vecs[:, i] - vals[i] * vecs[:, i]
                assert np.linalg.norm(res) <= 1e-10 * max(1.0, nrm)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            hermitian_eig(np.ones((2, 3)))

    def test_top_eigvec(self):
        H = np.diag([1.0, 5.0, 2.0]).astype(complex)
        vals, vecs = hermitian_eig(H)
        assert vals == pytest.approx([5.0, 2.0, 1.0])
        assert abs(vecs[1, 0]) == pytest.approx(1.0)
