"""Channel model: config validation, quantizer, modulation, block sampling,
and the package root that exports the config."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import SystemConfig
from phaseq.core import (
    modulate,
    parse_config_text,
    ramp_dither,
    resolve_dither,
    sample_blocks,
    sector_index,
)
from phaseq.sim import DEFAULT_CHUNK

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
        assert cfg.sector_width == pytest.approx(math.pi / 4)
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
        ],
    )
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SystemConfig(**{"M": 4, "K": 8, "L": 2, "snr_db": 0.0, **bad})

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


def test_sector_index_matches_scalar(rng):
    K = 12
    angles = rng.uniform(-10, 10, size=64)
    vec = sector_index(angles, K)
    scalar = [min(int((a % TWO_PI) * K / TWO_PI), K - 1) for a in angles]
    assert vec.tolist() == scalar


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


def test_parse_config_text_roundtrip(tmp_path):
    text = """
    # experiment setup
    M = 4
    K = 12
    L = 3
    snr_db = 7.5
    theta0 = 0.1
    dither = ramp
    """
    cfg = parse_config_text(text)
    assert (cfg.M, cfg.K, cfg.L) == (4, 12, 3)
    assert cfg.snr_db == 7.5
    assert cfg.dither == ramp_dither(3, 12)

    path = tmp_path / "cfg.txt"
    path.write_text("M=4\nK=8\nL=2\nsnr_db=0\n")
    assert SystemConfig.from_file(path) == SystemConfig(M=4, K=8, L=2, snr_db=0.0)


def test_parse_config_text_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        parse_config_text("M=4\nK=8\nL=2\nsnr_db=6\ndither=0.1,nan\n")


def test_parse_config_text_missing_key():
    with pytest.raises(ValueError, match="snr_db"):
        parse_config_text("M=4\nK=8\nL=2\n")


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
