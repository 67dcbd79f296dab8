"""Channel model: config validation, quantizer, modulation, block sampling,
and the package root that exports the config."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import SystemConfig
from phaseq.core import (
    modulate,
    ramp_dither,
    resolve_dither,
    sample_blocks,
    sector_index,
)
from phaseq.sim import DEFAULT_CHUNK
from phaseq.transition import sector_offset_probability, sector_probability
# the checked density wrapper is test code, kept with the density tests
from test_transition import phase_offset_pdf

TWO_PI = 2.0 * math.pi


class ScriptedNormals:
    """Stands in for an rng whose standard normals are the scripted arrays.

    Takes numpy's size= and out= forms. A draw returns the next array; a
    draw into out fills it from the next arrays in turn, so one (2, n, L)
    draw reads a real and then an imaginary (n, L) array.
    """

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.draws.pop(0).reshape(size)
        flat = out.reshape(-1)
        filled = 0
        while filled < flat.size:
            draw = self.draws.pop(0).ravel()
            flat[filled : filled + draw.size] = draw
            filled += draw.size
        return out


class TestSystemConfig:
    def test_basic_fields(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
        assert cfg.a == 2
        assert cfg.snr_linear == pytest.approx(10 ** 0.6)
        assert cfg.sigma == pytest.approx(math.sqrt(0.5 / 10 ** 0.6))
        assert not cfg.is_dithered
        assert cfg.dither == (0.0, 0.0, 0.0)

    def test_k_must_be_multiple_of_m(self):
        with pytest.raises(ValueError, match="multiple of M"):
            SystemConfig(M=4, K=10, L=2, snr_db=0.0)
        with pytest.raises(ValueError, match="multiple of M"):
            SystemConfig(M=4, K=2, L=2, snr_db=0.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(M=1, K=8, L=2, snr_db=0.0)
        with pytest.raises(ValueError):
            SystemConfig(M=4, K=8, L=0, snr_db=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"snr_db": math.nan},
            {"snr_db": math.inf},
            {"theta0": math.inf},
            {"theta0": -math.nan},
            {"dither": (0.0, math.nan)},
            {"dither": (-math.inf, 0.0)},
            {"dither": "0.1,nan"},
        ],
    )
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SystemConfig(**{"M": 4, "K": 8, "L": 2, "snr_db": 0.0, **bad})

    @pytest.mark.parametrize(
        "field, value",
        [("M", 4.0), ("K", 8.0), ("L", 2.5), ("L", "2"), ("K", None)],
    )
    def test_sizes_must_be_integers(self, field, value):
        # K=8.0 used to pass and fail later inside the sampler's quantizer,
        # L=2.5 with a raw TypeError from the dither tuple
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SystemConfig(**{"M": 4, "K": 8, "L": 2, "snr_db": 0.0, field: value})

    @pytest.mark.parametrize("snr_db", [4000.0, 3084, -4000.0, -3077.0])
    def test_snr_beyond_float_range_rejected(self, snr_db):
        # 10**(snr_db/10) overflows above about 3083 dB, and below about
        # -3076.5 dB it is subnormal or 0, so that sigma would overflow
        with pytest.raises(ValueError, match="snr_db=.* is out of range"):
            SystemConfig(M=4, K=8, L=2, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [3082.0, -3076.0])
    def test_snr_near_float_range_is_usable(self, snr_db):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=snr_db)
        assert 0.0 < cfg.snr_linear < math.inf
        assert math.isfinite(cfg.sigma)

    def test_numpy_integer_sizes_are_plain_ints(self):
        cfg = SystemConfig(M=np.int64(4), K=np.int32(8), L=np.uint8(2), snr_db=0.0)
        assert cfg == SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        assert all(type(v) is int for v in (cfg.M, cfg.K, cfg.L))

    def test_dither_length_enforced(self):
        with pytest.raises(ValueError, match="exactly L"):
            SystemConfig(M=4, K=8, L=3, snr_db=0.0, dither=(0.1, 0.2))

    def test_replace_block_length_of_undithered_config(self):
        # the stored all-zero dither has the old length; it still means
        # undithered, while a real dither of the wrong length is rejected
        moved = replace(SystemConfig(M=4, K=12, L=6, snr_db=6.0), L=8)
        assert moved.dither == (0.0,) * 8 and not moved.is_dithered
        assert SystemConfig(M=4, K=8, L=3, snr_db=0.0, dither=(0.0, -0.0)).dither == (0.0,) * 3
        with pytest.raises(ValueError, match="exactly L"):
            replace(SystemConfig(M=4, K=12, L=6, snr_db=6.0, dither="ramp"), L=8)

    def test_dither_token_strings(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0, dither="ramp")
        assert cfg.dither == ramp_dither(2, 8)
        assert cfg.is_dithered
        none_cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0, dither="none")
        assert not none_cfg.is_dithered

    def test_with_snr_preserves_rest(self):
        cfg = SystemConfig(M=4, K=12, L=4, snr_db=3.0, theta0=0.2, dither="ramp")
        moved = cfg.with_snr(9.0)
        assert moved.snr_db == 9.0
        assert moved.K == 12 and moved.theta0 == 0.2 and moved.dither == cfg.dither


# ---- huge angles ---------------------------------------------------------------


@pytest.mark.parametrize("value", [1e15, 1e17, -7.5e20, 1e300, TWO_PI + 1e-9, -13.0])
def test_angles_outside_two_turns_are_reduced(value):
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=0.0, theta0=value, dither=(0.0, value, 0.2))
    want = math.remainder(value, TWO_PI)
    assert -math.pi <= want <= math.pi
    assert cfg.theta0 == want and cfg.dither == (0.0, want, 0.2)


@pytest.mark.parametrize("value", [0.3, -0.0, TWO_PI, -TWO_PI, 6.0, -5e-324, math.pi])
def test_angles_inside_two_turns_keep_their_bits(value):
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=0.0, theta0=value, dither=(0.1, value, 0.2))
    assert cfg.theta0.hex() == float(value).hex()
    assert cfg.dither[1].hex() == float(value).hex()


@pytest.mark.parametrize("theta0", [1e15, 1e17])
def test_huge_theta0_mutual_information_is_bounded(theta0):
    # unreduced, the sampler and the kernels round such a rotation apart:
    # H(Z|X) of 65.2 bits against a bound of L*log2(K) = 9 at 1e15, and NaN
    # MI with a RuntimeWarning at 1e17
    from phaseq.capacity import mutual_information_mc

    cfg = SystemConfig(M=4, K=8, L=3, snr_db=40.0, theta0=theta0)
    reduced = SystemConfig(M=4, K=8, L=3, snr_db=40.0, theta0=math.remainder(theta0, TWO_PI))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mutual_information_mc(cfg, 2000, np.random.default_rng(0))
    bound = cfg.L * math.log2(cfg.K)
    assert 0.0 <= got.h_cond <= bound and 0.0 <= got.h_out <= bound
    assert math.isfinite(got.mi) and -1e-9 <= got.mi <= cfg.L * math.log2(cfg.M) + 3 * got.error_bar
    assert got == mutual_information_mc(reduced, 2000, np.random.default_rng(0))


def test_huge_dither_entry_raises_no_warning():
    # unreduced, a 1e300 dither entry overflows the sweep's int64 cast
    # ("invalid value encountered in cast") in run_ser and the demod entry points
    from phaseq.demod import brute_force_glrt, demodulate_rows, glrt_demodulate_dithered
    from phaseq.sim import run_ser
    from phaseq.transition import kernel_bank_for

    cfg = SystemConfig(M=4, K=8, L=3, snr_db=40.0, dither=(0.0, 1e300, 0.2))
    reduced = SystemConfig(
        M=4, K=8, L=3, snr_db=40.0, dither=(0.0, math.remainder(1e300, TWO_PI), 0.2)
    )
    Z = np.random.default_rng(3).integers(0, cfg.K, size=(20, cfg.L))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = run_ser(cfg, 2000, seed=0)
        records = demodulate_rows(Z, cfg, kernel_bank_for(cfg))
        single = [glrt_demodulate_dithered(z, cfg) for z in Z]
        brute = [brute_force_glrt(z, cfg) for z in Z]
    assert point == run_ser(reduced, 2000, seed=0)
    for rec, want in zip(records, demodulate_rows(Z, reduced, kernel_bank_for(reduced))):
        assert rec.candidates.tobytes() == want.candidates.tobytes()
        assert rec.log_metrics.tobytes() == want.log_metrics.tobytes()
    assert single == [glrt_demodulate_dithered(z, reduced) for z in Z]
    assert brute == [brute_force_glrt(z, reduced) for z in Z]


def test_ramp_dither_values():
    # l-th symbol rotated by l * 2*pi / (L*K): spreads L offsets uniformly
    # across one sector width
    d = ramp_dither(4, 8)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(TWO_PI / 32)
    assert d[3] == pytest.approx(3 * TWO_PI / 32)
    assert max(d) < TWO_PI / 8


def test_resolve_dither():
    assert resolve_dither("none", 3, 8) is None
    assert resolve_dither("", 3, 8) is None
    assert resolve_dither("ramp", 3, 8) == ramp_dither(3, 8)
    assert resolve_dither("0.1, 0.2, 0.3", 3, 8) == (0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        resolve_dither("0.1,0.2", 3, 8)


class TestQuantize:
    def test_sector_centers(self):
        K = 8
        centers = (np.arange(K) + 0.5) * TWO_PI / K
        assert sector_index(centers, K).tolist() == list(range(K))

    def test_lower_boundary_belongs_to_sector(self):
        # boundary angle exactly 2*pi*z/K falls in sector z
        assert sector_index(0.0, 8) == 0
        assert sector_index(np.angle(np.exp(1j * TWO_PI / 8)), 8) == 1

    def test_negative_angles_wrap(self):
        assert sector_index(np.angle(np.exp(-1j * 0.01)), 8) == 7
        # -1e-18 mod 2*pi rounds to exactly 2*pi: still the top sector
        assert sector_index(-1e-18, 8) == 7

    @given(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_angle_arithmetic(self, theta):
        K = 12
        expected = min(int(theta / (TWO_PI / K)), K - 1)
        assert sector_index(np.angle(np.exp(1j * theta)), K) == expected


def _sector_by_mod(angles, K):
    """Sector indices by the plain formula: np.mod, then floor and clamp."""
    angles = np.asarray(angles, dtype=float)
    return np.minimum(np.floor(np.mod(angles, TWO_PI) * K / TWO_PI), K - 1).astype(np.int64)


@pytest.mark.parametrize("K", [4, 8, 12, 64])
def test_in_range_edges_match_mod(K):
    # -0.0 gains +0.0, and the shifted tiny negatives round to 2*pi
    edges = [-0.0, -5e-324, -TWO_PI, np.nextafter(TWO_PI, 0.0), -1e-18]
    want = _sector_by_mod(edges, K)
    assert np.array_equal(sector_index(edges, K), want)
    assert [int(sector_index(v, K)) for v in edges] == want.tolist()


@given(
    st.lists(
        st.floats(min_value=-TWO_PI, max_value=TWO_PI, exclude_max=True), min_size=1, max_size=40
    ),
    st.sampled_from([4, 8, 12, 64]),
)
@settings(max_examples=200, deadline=None)
def test_in_range_angles_match_mod(angles, K):
    # angles in [-2*pi, 2*pi) skip np.mod: 2*pi * (angle < 0) is added to each
    assert np.array_equal(sector_index(angles, K), _sector_by_mod(angles, K))


def test_sector_index_matches_scalar(rng):
    K = 12
    angles = rng.uniform(-10, 10, size=64)
    vec = sector_index(angles, K)
    scalar = [min(int((a % TWO_PI) * K / TWO_PI), K - 1) for a in angles]
    assert vec.tolist() == scalar


_CFG = SystemConfig(M=4, K=8, L=2, snr_db=6.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda v: sector_index([v, 0.5], 8), "angles"),
        (lambda v: sample_blocks([[0, 1]], _CFG, np.random.default_rng(0), phi=v), "phi"),
        (lambda v: sector_probability(1, 0, v, _CFG), "phi"),
        (lambda v: phase_offset_pdf([0.0, 1.0], v), "snr_linear"),
        (lambda v: phase_offset_pdf([v, 1.0], 2.0), "u"),
        (lambda v: sector_offset_probability(v, 0.7, 2.0), "t and width"),
        (lambda v: sector_offset_probability(0.1, v, 2.0), "t and width"),
        (lambda v: sector_offset_probability(0.1, 0.7, v), "snr_linear"),
    ],
    ids=[
        "sector_index",
        "sample_blocks",
        "sector_probability",
        "phase_offset_pdf",
        "phase_offset_pdf_u",
        "sector_offset_probability_t",
        "sector_offset_probability_width",
        "sector_offset_probability_snr",
    ],
)
def test_non_finite_angles_phases_and_snrs_refused(call, name, bad):
    # no sector index or probability exists for a NaN or infinite input
    with pytest.raises(ValueError, match=f"{name} must be"):
        call(bad)


def test_modulate_unit_energy_and_phase(qpsk8_l3):
    x = np.array([0, 1, 3])
    s = modulate(x, qpsk8_l3)
    assert np.allclose(np.abs(s), 1.0)
    assert np.allclose(np.angle(s) % TWO_PI, (x * math.pi / 2) % TWO_PI, atol=1e-12)


def test_symbol_phases_include_theta0_and_dither():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0, theta0=0.3, dither=(0.0, 0.1))
    phases = cfg.symbol_phases([1, 2])
    assert phases[0] == pytest.approx(0.3 + math.pi / 2)
    assert phases[1] == pytest.approx(0.3 + math.pi + 0.1)
    with pytest.raises(ValueError):
        cfg.symbol_phases([4, 0])


class TestSampling:
    def test_seeded_reproducibility(self, qpsk8_l3):
        a = sample_blocks([[0, 1, 2]], qpsk8_l3, np.random.default_rng(5))
        b = sample_blocks([[0, 1, 2]], qpsk8_l3, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_phi_override_and_noise_free_limit(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=60.0)
        # phi at a sector center: z = a*x + quantized offset, deterministically
        phis, Z = sample_blocks([[0, 1, 2]], cfg, np.random.default_rng(0), phi=math.pi / 8)
        assert phis[0] == pytest.approx(math.pi / 8)
        assert Z[0].tolist() == [0, 2, 4]

    def test_zero_sample_is_redrawn(self):
        # a zero received sample has no phase, so its noise is drawn again
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        cancel = -1.0 / cfg.sigma
        assert 1.0 + cfg.sigma * cancel == 0.0

        rng = ScriptedNormals(
            [np.array([[cancel, 0.0]]), np.zeros((1, 2)), np.array([1.0]), np.zeros(1)]
        )
        _, Z = sample_blocks([[0, 0]], cfg, rng, phi=0.0)
        assert rng.draws == []
        assert Z.tolist() == [[0, 0]]

    def test_block_shape_and_range(self, rng):
        cfg = SystemConfig(M=4, K=12, L=4, snr_db=3.0)
        X = rng.integers(0, 4, size=(50, 4))
        phis, Z = sample_blocks(X, cfg, rng)
        assert phis.shape == (50,)
        assert Z.shape == (50, 4)
        assert Z.min() >= 0 and Z.max() < 12
        assert np.all((phis >= 0) & (phis < TWO_PI))

    def test_common_phase_within_block(self):
        # at extreme SNR the sector pattern reveals the shared offset:
        # identical symbols land in identical sectors
        cfg = SystemConfig(M=4, K=8, L=6, snr_db=60.0)
        rng = np.random.default_rng(11)
        _, Z = sample_blocks(np.zeros((20, 6), dtype=int), cfg, rng)
        assert np.all(Z == Z[:, :1])


def _pinned_sample_blocks(X, config, rng, phi=None):
    """The sampler's defining formula: one complex exp per sample, the whole
    batch at once, then np.mod quantization."""
    X = np.asarray(X, dtype=np.int64)
    n = X.shape[0]
    clean = np.exp(1j * config.symbol_phases(X))
    phis = rng.uniform(0.0, TWO_PI, size=n) if phi is None else np.full(n, float(phi))
    sigma = config.sigma
    y = clean * np.exp(1j * phis)[:, None] + sigma * (
        rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
    )
    dead = y == 0
    while np.any(dead):
        idx = np.nonzero(dead)
        y[idx] = clean[idx] * np.exp(1j * phis[idx[0]]) + sigma * (
            rng.standard_normal(idx[0].shape) + 1j * rng.standard_normal(idx[0].shape)
        )
        dead = y == 0
    ang = np.mod(np.angle(y), TWO_PI)
    Z = np.minimum(np.floor(ang * config.K / TWO_PI).astype(np.int64), config.K - 1)
    return phis, Z


class TestSamplerPin:
    """sample_blocks is bitwise the pinned formula, and draws the same stream."""

    @pytest.mark.parametrize("n", [1, DEFAULT_CHUNK + 1, 20_000])
    @pytest.mark.parametrize(
        "cfg, phi",
        [
            (SystemConfig(M=4, K=12, L=8, snr_db=6.0), None),
            (SystemConfig(M=4, K=8, L=8, snr_db=14.0, theta0=0.3, dither="ramp"), None),
            (SystemConfig(M=8, K=16, L=4, snr_db=20.0, dither=(0.0, 0.05, 0.11, 0.3)), None),
            (SystemConfig(M=2, K=6, L=7, snr_db=-3.0), 2.5),
        ],
        ids=["undithered", "ramp", "tuple", "phi"],
    )
    def test_matches_pinned_formula(self, cfg, phi, n):
        X = np.random.default_rng(30).integers(0, cfg.M, size=(n, cfg.L))
        rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
        phis, Z = sample_blocks(X, cfg, rng_a, phi=phi)
        want_phis, want_Z = _pinned_sample_blocks(X, cfg, rng_b, phi=phi)
        assert phis.tobytes() == want_phis.tobytes()
        assert Z.dtype == want_Z.dtype and np.array_equal(Z, want_Z)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_redraws_in_nonzero_order(self):
        # zero samples in three rows, one of them zero again on its first
        # redraw: the redraws run in np.nonzero order over the batch
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        cancel = -1.0 / cfg.sigma
        re = np.full((5, 2), 0.3)
        re[0, 1] = re[3, 0] = re[4, 1] = cancel
        im = np.zeros((5, 2))
        im[~(re == cancel)] = 0.2

        redraws = [np.array([cancel, 1.0, 0.5]), np.zeros(3), np.array([2.0]), np.zeros(1)]
        a, b = ScriptedNormals([re, im, *redraws]), ScriptedNormals([re, im, *redraws])
        _, Z = sample_blocks(np.zeros((5, 2), dtype=int), cfg, a, phi=0.0)
        _, want = _pinned_sample_blocks(np.zeros((5, 2), dtype=int), cfg, b, phi=0.0)
        assert a.draws == [] and b.draws == []
        assert np.array_equal(Z, want)

    @pytest.mark.parametrize("K", [8, 12])
    def test_sector_index_edges(self, K):
        edges = np.array([
            0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI,
            np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0), -1e-18, 1e3, -1e6,
        ])
        want = np.minimum(np.floor(np.mod(edges, TWO_PI) * K / TWO_PI), K - 1).astype(np.int64)
        # all at once (some out of [-2*pi, 2*pi)), the in-range ones alone,
        # and one at a time
        assert np.array_equal(sector_index(edges, K), want)
        inside = (edges >= -TWO_PI) & (edges < TWO_PI)
        assert np.array_equal(sector_index(edges[inside], K), want[inside])
        assert [int(sector_index(v, K)) for v in edges] == want.tolist()

    def test_invalid_inputs_raise_before_drawing(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="X components must lie in 0..M-1"):
            sample_blocks([[0, 4]], cfg, rng)
        with pytest.raises(ValueError, match="X components must lie in 0..M-1"):
            sample_blocks([[-1, 0]], cfg, rng)
        with pytest.raises(ValueError, match="X must have L=2 entries"):
            sample_blocks([[0, 1, 2]], cfg, rng)
        assert rng.bit_generator.state == state

    def test_fractional_symbols_rejected_not_truncated(self):
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for X in ([[0.7, 1.9]], [[0, np.nan]], [[0, np.inf]]):
            with pytest.raises(ValueError, match="X components must be integers"):
                sample_blocks(X, cfg, rng)
        assert rng.bit_generator.state == state
        for x in ([0.5, 1], [[0, 1], [1, 2.5]]):
            with pytest.raises(ValueError, match="x components must be integers"):
                modulate(x, cfg)

    def test_one_block_must_be_stacked(self):
        # a single (L,) block is refused with a message about X's shape, not
        # numpy's "not enough values to unpack" from inside the sampler;
        # modulate and symbol_phases still take one block of shape (L,)
        cfg = SystemConfig(M=4, K=8, L=2, snr_db=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for X in ([0, 1], 1, [[[0, 1]]]):
            with pytest.raises(ValueError, match=r"X must be an \(n, L\) array"):
                sample_blocks(X, cfg, rng)
        assert rng.bit_generator.state == state
        assert modulate([0, 1], cfg).shape == (2,)
        assert cfg.symbol_phases([0, 1]).shape == (2,)

    def test_integer_symbols_of_any_dtype_draw_alike(self):
        cfg = SystemConfig(M=4, K=8, L=3, snr_db=5.0, dither="ramp")
        X = np.array([[0, 1, 3], [2, 2, 0]])
        draws = [
            sample_blocks(v, cfg, np.random.default_rng(5))
            for v in (X, X.astype(np.int32), X.astype(np.uint8), X.astype(float), X.tolist())
        ]
        for phi, Z in draws[1:]:
            assert np.array_equal(phi, draws[0][0]) and np.array_equal(Z, draws[0][1])
        assert np.array_equal(modulate(X.astype(float), cfg), modulate(X, cfg))


def test_package_root_holds_only_the_config():
    # every other name is imported from its module (phaseq.sim.run_ser);
    # submodules appear on the root once something has imported them
    import types

    import phaseq

    public = {name for name in vars(phaseq) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(phaseq, name), types.ModuleType)}
    assert public - modules == {"SystemConfig"}
    assert all(getattr(phaseq, name).__name__ == f"phaseq.{name}" for name in modules)
    assert phaseq.__all__ == ["SystemConfig"]
    assert phaseq.SystemConfig is SystemConfig
    assert phaseq.__version__ == "0.1.0"
