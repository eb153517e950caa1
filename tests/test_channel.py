import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backci.channel import (
    SystemParams,
    gen_rician_vector,
    cascade,
    gen_channel_set,
    to_text,
    from_text,
    format_complex,
    parse_complex,
)


def rng_of(seed):
    return np.random.default_rng(seed)


class TestSystemParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert p.M == 4 and p.K == 5 and p.kappa == 2.8
        assert p.gamma == pytest.approx(0.6 / 0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(K=0)
        with pytest.raises(ValueError):
            SystemParams(sigma_w2=0.0)
        with pytest.raises(ValueError):
            SystemParams(xi_max=0.0)
        with pytest.raises(ValueError):
            SystemParams(alpha=1.2)
        with pytest.raises(ValueError):
            SystemParams(d_st=-1.0)

    FLOAT_FIELDS = [f.name for f in fields(SystemParams)
                    if "float" in str(f.type)]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_refused(self, name, value):
        # Every comparison with nan is false, so range checks alone let a
        # nan through, and an inf passes any one-sided bound.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SystemParams(**{name: value})


class TestRicianVector:
    def test_los_limit(self):
        # Huge Rician factor: pure steering vector scaled by sqrt(d^-rho).
        h = gen_rician_vector(2.0, 0.4, 6, 1e12, 3.0, rng_of(0))
        scale = 2.0 ** -1.5
        assert np.allclose(np.abs(h), scale, rtol=1e-5)
        # Consecutive entries differ by the constant phase -pi sin(theta).
        ratios = h[1:] / h[:-1]
        assert np.allclose(np.angle(ratios), -np.pi * np.sin(0.4), atol=1e-5)

    def test_unit_distance_no_attenuation(self):
        h = gen_rician_vector(1.0, 0.0, 4, 1e12, 7.0, rng_of(1))
        assert np.allclose(np.abs(h), 1.0, rtol=1e-5)

    def test_mean_power(self):
        rng = rng_of(2)
        d, rho, M = 3.0, 2.0, 8
        total = 0.0
        draws = 12000
        for _ in range(draws):
            h = gen_rician_vector(d, 0.2, M, 2.8, rho, rng)
            total += float(np.sum(np.abs(h) ** 2))
        mean_entry_power = total / (draws * M)
        assert mean_entry_power == pytest.approx(d ** -rho, rel=0.02)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gen_rician_vector(0.0, 0.0, 4, 1.0, 3.0, rng_of(0))
        with pytest.raises(ValueError):
            gen_rician_vector(1.0, 0.0, 4, 1.0, -3.0, rng_of(0))


class TestCascade:
    def test_zero_alpha(self):
        assert np.allclose(cascade(2.0 + 1j, np.ones(3), 0.0), 0.0)

    def test_identity(self):
        h_tr = np.array([1.0 + 2j, 3.0])
        assert np.allclose(cascade(1.0, h_tr, 1.0), h_tr)

    def test_direct_evaluation(self):
        out = cascade(2j, np.array([1.0, -1.0]), 0.8)
        assert np.allclose(out, np.array([1.6j, -1.6j]))

    def test_mimo_shape(self):
        h_st = np.array([1.0, 1j])
        h_tr = np.array([1.0, 2.0, 3.0])
        out = cascade(h_st, h_tr, 0.5)
        assert out.shape == (3, 2)
        assert np.allclose(out, 0.5 * np.outer(h_tr, h_st.conj()))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            cascade(1.0, np.ones(2), 1.5)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_bilinearity(self, cr, ci):
        c = complex(cr, ci)
        h_tr = np.array([0.3 - 1j, 2.0, 1j])
        a = cascade(c * (1.0 + 0.5j), h_tr, 0.8)
        b = c * cascade(1.0 + 0.5j, h_tr, 0.8)
        assert np.allclose(a, b, atol=1e-12)


class TestGenChannelSet:
    def test_determinism(self):
        p = SystemParams(K=3, M=4, seed=5)
        a = gen_channel_set(p, np.random.SeedSequence((5, 0, 7)))
        b = gen_channel_set(p, np.random.SeedSequence((5, 0, 7)))
        assert np.array_equal(a.h_sr, b.h_sr)
        assert np.array_equal(a.h_st, b.h_st)
        assert np.array_equal(a.h_tr, b.h_tr)
        assert np.array_equal(a.h1, b.h1)

    # sha256 of to_text plus the drawn distances, frozen from the per-link
    # draws the batched generator replaced: the same keyed streams must
    # give the same bits.
    FROZEN = {
        "default": (SystemParams(), "1c7773a7b42ac1db7011bc51478a9a36"
                    "46f72b8397f897130163f04eee787250"),
        "fixed_distances": (SystemParams(d_st=2.5, d_sr=3.0, d_tr=1.5),
                            "9cd6a1382884b0f9f780135f58ce7cd7"
                            "aa4d90f71b9ab9b791e497016a096d36"),
        "m1": (SystemParams(M=1), "0999bf461b0aefa7e104e72c52c473bf"
               "a3f6accb483ecaaa59a2d8ec7ee0e62a"),
        "mimo_q2": (SystemParams(Q=2), "d89a978800e44061541d212ef1d55287"
                    "90b187fa18b1983415f3a226b6857cb0"),
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_draws_frozen(self, case):
        params, want = self.FROZEN[case]
        c = gen_channel_set(params, np.random.SeedSequence((7, 2, 13)))
        text = to_text(c) + repr(sorted(c.distances.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_different_trials_differ(self):
        p = SystemParams(K=2)
        a = gen_channel_set(p, np.random.SeedSequence((5, 0)))
        b = gen_channel_set(p, np.random.SeedSequence((5, 1)))
        assert not np.allclose(a.h_sr, b.h_sr)

    def test_composites_simo(self):
        p = SystemParams(K=4, M=3)
        c = gen_channel_set(p, 9)
        assert c.h_str.shape == (4, 3)
        for k in range(4):
            # Bit-exact by construction; the difference form only up to
            # one rounding of the addition.
            assert np.array_equal(c.h1[k], c.h0 + c.h_str[k])
            assert np.allclose(c.h1[k] - c.h0, c.h_str[k], rtol=0, atol=1e-15)
            assert np.allclose(c.h_str[k], 0.8 * c.h_st[k] * c.h_tr[k])

    def test_fixed_distances(self):
        p = SystemParams(K=2, d_st=2.5, d_sr=3.0, d_tr=1.5)
        c = gen_channel_set(p, 1)
        assert c.distances["sr"] == 3.0
        assert c.distances["st_0"] == 2.5 and c.distances["tr_1"] == 1.5

    def test_backscatter_power_scaling(self):
        # ||h_str||^2 averages to alpha^2 (d_st d_tr)^-rho times M.
        p = SystemParams(K=1, M=4, d_st=2.0, d_tr=3.0, d_sr=2.0, rho=2.0,
                         alpha=0.8)
        total = 0.0
        draws = 10000
        for t in range(draws):
            c = gen_channel_set(p, np.random.SeedSequence((3, t)))
            total += float(np.sum(np.abs(c.h_str[0]) ** 2))
        expected = 0.8 ** 2 * (2.0 * 3.0) ** -2.0 * p.M
        assert total / draws == pytest.approx(expected, rel=0.05)

    def test_mimo_shapes(self):
        p = SystemParams(K=2, M=3, Q=2)
        c = gen_channel_set(p, 11)
        assert c.h_sr.shape == (2, 3)
        assert c.h_st.shape == (2, 2)
        assert c.h_str.shape == (2, 3, 2)
        assert c.h0.shape == (3, 2)
        assert np.array_equal(c.h0, c.h_sr.conj().T)
        for k in range(2):
            assert np.array_equal(c.h1[k], c.h0 + c.h_str[k])


# A real to_text output (SIMO, K=2, M=3) for the malformed-input cases.
_TEXT = to_text(gen_channel_set(SystemParams(K=2, M=3), 23))
_LINES = _TEXT.splitlines()


class TestSerialization:
    def test_token_format(self):
        tok = format_complex(1.5 - 2.25j)
        assert tok.endswith("i") and "+" not in tok[1:]
        assert parse_complex(tok) == 1.5 - 2.25j

    def test_token_exponents(self):
        for z in [1e-17 + 2e-13j, -3.5e8 - 1e-300j, 0.0 + 0.0j]:
            assert parse_complex(format_complex(z)) == z

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_complex("1.0+2.0")
        with pytest.raises(ValueError):
            parse_complex("nonsense")

    def test_round_trip_simo(self):
        p = SystemParams(K=3, M=4)
        c = gen_channel_set(p, 21)
        d = from_text(to_text(c))
        assert np.array_equal(c.h_sr, d.h_sr)
        assert np.array_equal(c.h_st, d.h_st)
        assert np.array_equal(c.h_tr, d.h_tr)
        assert np.array_equal(c.h_str, d.h_str)
        assert np.array_equal(c.h1, d.h1)

    def test_round_trip_mimo(self):
        p = SystemParams(K=2, M=3, Q=4)
        c = gen_channel_set(p, 22)
        d = from_text(to_text(c))
        assert np.array_equal(c.h_sr, d.h_sr)
        assert np.array_equal(c.h1, d.h1)
        assert d.Q == 4

    def test_header_errors(self):
        with pytest.raises(ValueError):
            from_text("wrong 1 2 3 0.8\n")

    @pytest.mark.parametrize("n", range(len(_LINES)))
    def test_truncated_refused(self, n):
        # Every prefix that drops lines; n = 0 is the empty text.
        text = "\n".join(_LINES[:n])
        with pytest.raises(ValueError, match="channelset|block"):
            from_text(text)

    @pytest.mark.parametrize("head", ["channelset 0 3 1 0.8",
                                      "channelset 2 0 1 0.8",
                                      "channelset 2 3 0 0.8"])
    def test_zero_count_refused(self, head):
        with pytest.raises(ValueError, match="K, M, Q >= 1"):
            from_text(head)
        with pytest.raises(ValueError, match="K, M, Q >= 1"):
            from_text("\n".join([head] + _LINES[1:]))

    def test_trailing_block_refused(self):
        extra = _TEXT + "h_tr\n" + _LINES[-1] + "\n"
        with pytest.raises(ValueError, match="after block 'h_tr'"):
            from_text(extra)

    def test_short_row_refused(self):
        lines = list(_LINES)
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
        with pytest.raises(ValueError, match="block 'h_tr' needs 3 entries"):
            from_text("\n".join(lines))
