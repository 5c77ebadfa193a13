import warnings

import numpy as np
import pytest

from cwsep import IdentityModel
from cwsep.cirm import (
    NetworkOutput,
    _sigmoid,
    apply_cirm,
    cirm_gradients,
)
from cwsep.spectral import MagPhase, to_magphase


def random_magphase(shape=(2, 6, 257), seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return to_magphase(data), data


def constant_output(shape, mask=0.0, pr=1.0, pi=0.0, q=0.0):
    return NetworkOutput(
        mask_logits=np.full(shape, mask),
        phase_real=np.full(shape, pr),
        phase_imag=np.full(shape, pi),
        mag_residual=np.full(shape, q),
    )


class TestApply:
    def test_identity_reproduces_mixture(self):
        mp, data = random_magphase()
        rec = apply_cirm(mp, IdentityModel().forward(mp.magnitude)[0])
        assert np.max(np.abs(rec - data)) <= 1e-6

    def test_null_mask_zeros(self):
        mp, _ = random_magphase(seed=1)
        rec = apply_cirm(mp, constant_output(mp.magnitude.shape, mask=-40.0))
        assert np.max(np.abs(rec)) <= 1e-12

    def test_relu_clips_negative_magnitude(self):
        # |X| = 2, M = 0, Q = -3: relu(2*0.5 - 3) = 0 regardless of phase
        mp = MagPhase(
            magnitude=np.full((1, 1, 1), 2.0),
            phase=np.full((1, 1, 1), 0.6 + 0.8j),
        )
        rec = apply_cirm(mp, constant_output((1, 1, 1), mask=0.0, q=-3.0))
        assert np.all(rec == 0)

    def test_single_bin_hand_value(self):
        # |X|=1, angle 0, M=0, Q=0.5, (Pr,Pi)=(1/sqrt2, 1/sqrt2):
        # mag = relu(0.5 + 0.5) = 1, rotation 45 degrees
        mp = MagPhase(
            magnitude=np.ones((1, 1, 1)),
            phase=np.ones((1, 1, 1), dtype=complex),
        )
        s = 1 / np.sqrt(2)
        rec = apply_cirm(mp, constant_output((1, 1, 1), q=0.5, pr=s, pi=s))
        assert abs(rec[0, 0, 0].real - 0.7071) <= 1e-4
        assert abs(rec[0, 0, 0].imag - 0.7071) <= 1e-4

    def test_magnitude_nonnegative(self):
        mp, _ = random_magphase(seed=2)
        rng = np.random.default_rng(3)
        out = NetworkOutput(*[rng.standard_normal(mp.magnitude.shape) for _ in range(4)])
        rec = apply_cirm(mp, out)
        assert np.all(np.abs(rec) >= 0)

    def test_magnitude_independent_of_phase_tensors(self):
        mp, _ = random_magphase(seed=4)
        shape = mp.magnitude.shape
        rng = np.random.default_rng(5)
        base = apply_cirm(mp, constant_output(shape, mask=0.3, q=0.1))
        for seed in range(3):
            r = np.random.default_rng(seed + 10)
            # unit-or-larger phase vectors keep the eps stabilizer negligible
            theta = r.uniform(-np.pi, np.pi, shape)
            mag_v = r.uniform(1.0, 3.0, shape)
            out = NetworkOutput(
                mask_logits=np.full(shape, 0.3),
                phase_real=mag_v * np.cos(theta),
                phase_imag=mag_v * np.sin(theta),
                mag_residual=np.full(shape, 0.1),
            )
            rec = apply_cirm(mp, out)
            assert np.max(np.abs(np.abs(rec) - np.abs(base))) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0, 10.0])
    def test_phase_scaling_invariance(self, alpha):
        mp, _ = random_magphase(seed=6)
        shape = mp.magnitude.shape
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, shape)
        mag_v = rng.uniform(2.0, 4.0, shape)
        pr, pi = mag_v * np.cos(theta), mag_v * np.sin(theta)
        a = apply_cirm(mp, NetworkOutput(np.zeros(shape), pr, pi, np.zeros(shape)))
        b = apply_cirm(mp, NetworkOutput(np.zeros(shape), alpha * pr, alpha * pi, np.zeros(shape)))
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_shape_mismatch(self):
        mp, _ = random_magphase()
        with pytest.raises(ValueError):
            apply_cirm(mp, constant_output((1, 1, 1)))


OUTPUT_FIELDS = ("mask_logits", "phase_real", "phase_imag", "mag_residual")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", OUTPUT_FIELDS)
def test_non_finite_output_names_the_field(field, bad):
    fields = {name: np.zeros((1, 2, 3)) for name in OUTPUT_FIELDS}
    fields[field][0, 1, 2] = bad
    with pytest.raises(ValueError, match=f"^{field} contains NaN/Inf$"):
        NetworkOutput(**fields)


class TestGradients:
    def test_residual_gradient_is_one_when_active(self):
        mp, _ = random_magphase(seed=8)
        shape = mp.magnitude.shape
        out = constant_output(shape, mask=40.0, q=0.5)  # pre-activation > 0 everywhere
        # upstream aligned with the output phase isolates d(mag)/dQ
        rec = apply_cirm(mp, out)
        mag = np.abs(rec)
        cos_o = np.where(mag > 0, rec.real / np.where(mag > 0, mag, 1), 1.0)
        sin_o = np.where(mag > 0, rec.imag / np.where(mag > 0, mag, 1), 0.0)
        g = cirm_gradients(mp, out, cos_o, sin_o)
        assert np.allclose(g.mag_residual, 1.0, atol=1e-9)

    def test_mask_gradient_hand_value(self):
        # d(mag)/dM = |X| * sigmoid'(0) = 2 * 0.25 = 0.5
        mp = MagPhase(
            magnitude=np.full((1, 1, 1), 2.0),
            phase=np.ones((1, 1, 1), dtype=complex),
        )
        out = constant_output((1, 1, 1), mask=0.0, q=0.5)
        g = cirm_gradients(mp, out, np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        # eps in the phase normalization perturbs cos(theta) by ~5e-9
        assert abs(g.mask_logits[0, 0, 0] - 0.5) <= 1e-8

    def test_against_finite_differences(self):
        rng = np.random.default_rng(9)
        n = 64
        shape = (1, 1, n)
        angle = rng.uniform(-np.pi, np.pi, shape)
        mp = MagPhase(
            magnitude=np.abs(rng.standard_normal(shape)) + 0.1,
            phase=np.exp(1j * angle),
        )
        out = NetworkOutput(
            mask_logits=rng.standard_normal(shape),
            phase_real=rng.standard_normal(shape) * 2,
            phase_imag=rng.standard_normal(shape) * 2,
            mag_residual=rng.standard_normal(shape),
        )
        gre = rng.standard_normal(shape)
        gim = rng.standard_normal(shape)
        grads = cirm_gradients(mp, out, gre, gim)

        pre = mp.magnitude / (1 + np.exp(-out.mask_logits)) + out.mag_residual
        away_from_kink = np.abs(pre) > 1e-3

        h = 1e-4
        for name in ("mask_logits", "phase_real", "phase_imag", "mag_residual"):
            analytic = getattr(grads, name)
            fd = np.zeros(shape)
            for i in range(n):
                fields = {f: np.array(getattr(out, f)) for f in
                          ("mask_logits", "phase_real", "phase_imag", "mag_residual")}
                fields[name] = fields[name].copy()
                fields[name][0, 0, i] += h
                plus = apply_cirm(mp, NetworkOutput(**fields))
                fields[name][0, 0, i] -= 2 * h
                minus = apply_cirm(mp, NetworkOutput(**fields))
                d = (plus - minus) / (2 * h)
                fd[0, 0, i] = np.sum(gre * d.real + gim * d.imag)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
            assert np.max(rel[away_from_kink]) <= 1e-5, name

    def test_shape_mismatch(self):
        mp, _ = random_magphase()
        with pytest.raises(ValueError):
            cirm_gradients(mp, constant_output((1, 1, 1)),
                           np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_logits_raise_no_warning(dtype):
    # a sigmoid written as 1/(1+exp(-x)) overflows exp for large negative x
    mp, _ = random_magphase(seed=12)
    shape = mp.magnitude.shape
    logits = np.where(np.arange(shape[-1]) % 2 == 0, 1e4, -1e4) * np.ones(shape)
    out = NetworkOutput(
        mask_logits=logits.astype(dtype),
        phase_real=np.ones(shape, dtype=dtype),
        phase_imag=np.zeros(shape, dtype=dtype),
        mag_residual=np.zeros(shape, dtype=dtype),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = apply_cirm(mp, out)
        g = cirm_gradients(mp, out, np.ones(shape), np.zeros(shape))
    on = logits > 0
    assert np.allclose(np.abs(rec)[on], mp.magnitude[on], rtol=1e-6)
    assert not np.any(rec[~on])
    assert not np.any(g.mask_logits)


def test_huge_phase_vectors_match_unit_vectors():
    # squaring a float32 phase vector beyond ~1.8e19 overflows; the
    # rotation depends only on the direction of (Pr, Pi)
    mp, _ = random_magphase(seed=13)
    shape = mp.magnitude.shape
    rng = np.random.default_rng(14)
    sr = rng.choice([-1.0, 1.0], shape).astype(np.float32)
    si = rng.choice([-1.0, 1.0], shape).astype(np.float32)
    zeros = np.zeros(shape, dtype=np.float32)
    huge = NetworkOutput(zeros, np.float32(1e25) * sr, np.float32(1e25) * si, zeros)
    unit = NetworkOutput(zeros, sr / np.sqrt(np.float32(2)), si / np.sqrt(np.float32(2)), zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = apply_cirm(mp, huge)
    ref = apply_cirm(mp, unit)
    assert np.allclose(np.abs(rec), 0.5 * mp.magnitude, rtol=1e-6)
    assert np.max(np.abs(rec - ref)) <= 1e-6 * np.max(mp.magnitude)


def test_phase_vectors_near_float32_max():
    # hypot itself overflows float32 once |Pr| and |Pi| are both near
    # 3e38; the pyproject filter turns that RuntimeWarning into an error
    mp, _ = random_magphase(seed=15)
    shape = mp.magnitude.shape
    rng = np.random.default_rng(16)
    sr = rng.choice([-1.0, 1.0], shape).astype(np.float32)
    si = rng.choice([-1.0, 1.0], shape).astype(np.float32)
    zeros = np.zeros(shape, dtype=np.float32)
    edge = NetworkOutput(zeros, np.float32(3e38) * sr, np.float32(3e38) * si, zeros)
    unit = NetworkOutput(zeros, sr / np.sqrt(np.float32(2)), si / np.sqrt(np.float32(2)), zeros)
    up_re, up_im = rng.standard_normal(shape), rng.standard_normal(shape)
    rec = apply_cirm(mp, edge)
    g = cirm_gradients(mp, edge, up_re, up_im)
    ref = apply_cirm(mp, unit)
    g_ref = cirm_gradients(mp, unit, up_re, up_im)
    assert np.max(np.abs(rec - ref)) <= 1e-6 * np.max(mp.magnitude)
    assert np.allclose(g.mask_logits, g_ref.mask_logits, rtol=1e-5, atol=1e-6)
    assert np.allclose(g.mag_residual, g_ref.mag_residual, rtol=1e-5, atol=1e-6)
    # the rotation hardly moves for a vector this long
    assert np.all(np.isfinite(g.phase_real)) and np.all(np.isfinite(g.phase_imag))
    assert np.max(np.abs(g.phase_real) + np.abs(g.phase_imag)) <= 1e-30


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identity_logit_is_exactly_one(self, dtype):
        # IdentityModel relies on sigmoid(40) == 1 for a bit-exact mixture
        s = _sigmoid(np.full(4, 40.0, dtype=dtype))
        assert s.dtype == dtype
        assert np.all(s == 1.0)

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigmoid(np.array([1e4, -1e4], dtype=np.float32))
        assert s.dtype == np.float32
        assert s[0] == 1.0 and s[1] == 0.0

    def test_float32_within_one_ulp_of_float64(self):
        # one ulp of float32 at 1.0, the top of the sigmoid's range
        x = np.random.default_rng(17).uniform(-40.0, 40.0, 200_000).astype(np.float32)
        ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        s = _sigmoid(x)
        assert s.dtype == np.float32
        err = np.abs(s - ref)
        assert np.max(err) <= np.finfo(np.float32).eps
        # and a few ulps of its own size in the exponentially small tail
        assert np.all(err <= 8 * np.spacing(ref.astype(np.float32)))
