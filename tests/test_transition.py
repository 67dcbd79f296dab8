"""Transition law: phase density, sector probabilities, kernels, block laws.

The Monte Carlo oracles here are the independent ground truth for the
quadrature path: they sample the physical channel (signal + noise + sector
count) with no shared code beyond the quantizer.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from phaseq import (
    SystemConfig,
    block_conditional,
    block_conditional_batch,
    export_kernel_csv,
    glrt_demodulate,
    kernel_bank_for,
    kernel_for,
    load_kernel_csv,
    phase_offset_pdf,
    sample_blocks,
    sector_offset_probability,
    sector_probability,
)
from phaseq import transition
from phaseq.capacity import _input_average
from phaseq.demod import _scan_bank, _scan_grid
from phaseq.transition import _MAX_GRID, _grid_size, _log_grid_mean

TWO_PI = 2.0 * math.pi


# ---- phase offset density ----------------------------------------------------


@pytest.mark.parametrize("snr_db", [-40.0, 0.0, 6.0, 20.0])
def test_density_normalizes(snr_db):
    rho = 10 ** (snr_db / 10)
    total, err = quad(phase_offset_pdf, -math.pi, math.pi, args=(rho,), limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_density_even_and_peaked():
    rho = 10.0
    for u in (0.3, 1.1, 2.9):
        assert phase_offset_pdf(u, rho) == pytest.approx(phase_offset_pdf(-u, rho), rel=1e-12)
    assert phase_offset_pdf(0.0, rho) > phase_offset_pdf(0.5, rho) > phase_offset_pdf(2.0, rho)


def test_density_uniform_limit():
    # at -40 dB the signal is invisible: density collapses to 1/(2*pi)
    vals = [phase_offset_pdf(u, 1e-4) for u in np.linspace(-3, 3, 7)]
    assert np.allclose(vals, 1 / TWO_PI, rtol=2e-2)


def test_density_nonnegative_at_high_snr():
    # cancellation region: u near pi at large rho must clamp to 0, not go negative
    for u in np.linspace(2.0, math.pi, 50):
        assert phase_offset_pdf(u, 1e4) >= 0.0


# ---- scalar sector probabilities ----------------------------------------------


def mc_sector_probability(z, x, phi, cfg, draws, seed):
    """Channel-level oracle: count noise draws landing in sector z."""
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 2_000_000
    theta = cfg.theta0 + x * TWO_PI / cfg.M + phi
    remaining = draws
    while remaining > 0:
        n = min(chunk, remaining)
        noise = rng.normal(scale=cfg.sigma, size=(n, 2))
        sig = np.empty((n, 2))
        sig[:, 0] = math.cos(theta) + noise[:, 0]
        sig[:, 1] = math.sin(theta) + noise[:, 1]
        ang = np.arctan2(sig[:, 1], sig[:, 0]) % TWO_PI
        sectors = np.minimum((ang * cfg.K / TWO_PI).astype(np.int64), cfg.K - 1)
        hits += int(np.count_nonzero(sectors == z))
        remaining -= n
    return hits / draws


def test_sector_probability_against_channel_mc():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
    p = sector_probability(0, 0, math.pi / 8, cfg)
    draws = 10_000_000
    p_mc = mc_sector_probability(0, 0, math.pi / 8, cfg, draws, seed=99)
    se = math.sqrt(p_mc * (1 - p_mc) / draws)
    assert abs(p - p_mc) < 3 * se


def test_sector_probability_basic_identities():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
    phi = 0.7312
    base = sector_probability(3, 1, phi, cfg)
    assert sector_probability(4, 1, phi + TWO_PI / 8, cfg) == pytest.approx(base, rel=1e-11)
    # stepping the symbol jumps a=2 sectors
    assert sector_probability(5, 2, phi, cfg) == pytest.approx(base, rel=1e-11)


def test_sector_probability_sums_to_one():
    cfg = SystemConfig(M=4, K=12, L=1, snr_db=6.0)
    total = sum(sector_probability(z, 1, 1.234, cfg) for z in range(12))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sector_probability_noise_dominated_limit():
    # first-order deviation from uniform is (1/2)sqrt(rho/pi) * 2 sin(pi/K):
    # 2.2e-3 at -40 dB for K=8, 2.2e-4 at -60 dB
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=-40.0)
    for z in range(8):
        assert sector_probability(z, 0, 0.3, cfg) == pytest.approx(1 / 8, abs=2.5e-3)
    deep = cfg.with_snr(-60.0)
    for z in range(8):
        assert sector_probability(z, 0, 0.3, deep) == pytest.approx(1 / 8, abs=1e-3)


def test_sector_probability_noise_free_limit():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=40.0)
    # symbol parked at the sector-0 center
    assert sector_probability(0, 0, math.pi / 8, cfg) >= 1 - 1e-6


def test_sector_probability_validates_inputs():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
    with pytest.raises(ValueError):
        sector_probability(8, 0, 0.0, cfg)
    with pytest.raises(ValueError):
        sector_probability(0, 4, 0.0, cfg)


def test_offset_probability_symmetric_window():
    # integral of the density over [t, t+w] is symmetric about t = -w/2
    w = TWO_PI / 8
    for snr in (1.0, 10.0):
        for t in (0.1, 0.9, 2.2):
            left = sector_offset_probability(t, w, snr)
            right = sector_offset_probability(-w - t, w, snr)
            assert left == pytest.approx(right, rel=1e-11)


# ---- kernel ------------------------------------------------------------------


def test_grid_size_follows_snr_and_block_length():
    # criterion 6 at 6 dB, L = 6: K = 12, 64 and 8
    criterion_6 = [SystemConfig(M=4, K=K, L=6, snr_db=6.0) for K in (12, 64, 8)]
    assert [_grid_size(cfg) for cfg in criterion_6] == [192, 192, 184]
    assert kernel_for(criterion_6[0]).n_phi == 192
    for K in (8, 12, 64):
        short, long = (
            [_grid_size(SystemConfig(M=4, K=K, L=L, snr_db=s)) for s in (-10, 6, 20, 40)]
            for L in (2, 200)
        )
        assert all(n % K == 0 for n in short + long)
        assert short == sorted(short) and long == sorted(long)
        assert all(a < b for a, b in zip(short, long))


def test_table_refuses_grid_above_limit():
    # the kernel is only a key (SER runs there); its table of about 6.8M
    # points would take 3.5 GB
    k = kernel_for(SystemConfig(M=4, K=64, L=8, snr_db=100.0))
    assert k.n_phi > _MAX_GRID
    with pytest.raises(ValueError, match="phase grid"):
        k.table


def test_kernel_invariants(qpsk8):
    k = kernel_for(qpsk8)
    n = k.n_phi
    assert k.table.shape == (8, n)
    assert k.table.min() >= 0.0 and k.table.max() <= 1.0
    assert np.abs(k.table.sum(axis=0) - 1.0).max() < 1e-11
    # one-sector shift of z matches one-sector shift of the grid, exactly
    step = n // 8
    assert np.array_equal(k.table[3], np.roll(k.table[4], -step))


def test_kernel_lookup_index_arithmetic(qpsk8):
    # (z, x) reads the x = 0 row (z - a*x) mod K, here a = 2
    k = kernel_for(qpsk8)
    expected = np.mean(k.table[3] * k.table[(0 - 6) % 8])
    assert block_conditional([5, 0], [1, 3], qpsk8) == pytest.approx(expected, rel=1e-15)


def test_kernel_matches_direct_quadrature(qpsk8, rng):
    k = kernel_for(qpsk8)
    for _ in range(10):
        z = int(rng.integers(8))
        i = int(rng.integers(k.n_phi))
        direct = sector_probability(z, 0, float(k.phi_grid[i]), qpsk8)
        assert k.table[z, i] == pytest.approx(direct, rel=1e-12, abs=1e-250)


@pytest.mark.parametrize("K", [8, 12, 64])
@pytest.mark.parametrize("snr_db", [0.0, 6.0, 14.0, 20.0, 30.0, 40.0, 60.0])
def test_arc_fill_matches_quadrature_oracle(K, snr_db, rng):
    # above 14 dB the density's own tail cancellation limits both paths
    rel = 1e-12 if snr_db <= 14.0 else 1e-10
    cfg = SystemConfig(M=4, K=K, L=1, snr_db=snr_db, theta0=0.3)
    width = TWO_PI / K
    k = kernel_for(cfg)
    # row 0 of both tables holds the arc probabilities g in reverse grid order
    kernel_base = k.table[0, (-np.arange(k.n_phi) - 1) % k.n_phi]
    _, logtab, _ = _scan_bank(cfg)[0]
    n_scan = logtab.shape[1]
    scan_base = np.exp(logtab[0, (-np.arange(n_scan)) % n_scan])
    for n, probs, half in ((k.n_phi, kernel_base, 0.5), (n_scan, scan_base, 0.0)):
        stride = n // 20
        for m in range(int(rng.integers(stride)), n, stride):
            t = (m + half) * TWO_PI / n - cfg.theta0
            direct = sector_offset_probability(t, width, cfg.snr_linear)
            assert probs[m] == pytest.approx(direct, rel=rel, abs=1e-250)


def test_demod_tables_shared_across_block_lengths():
    # the scan grid and table depend on (K, SNR, theta0), not on M or the
    # L-dependent phase grid, so L = 8 and M = 8 reuse what L = 4 built; the
    # envelope depends on M, so the M = 8 config has its own
    short = SystemConfig(M=4, K=64, L=4, snr_db=10.0)
    long, octal = replace(short, L=8), replace(short, M=8)
    assert _grid_size(short) != _grid_size(long)
    for cfg in (short, long, octal):
        glrt_demodulate(np.zeros(cfg.L, dtype=np.int64), cfg)
    base = _scan_bank(short)[0]
    phi_scan, table = _scan_grid(short.K, short.snr_db, short.theta0)
    assert phi_scan is base[0] and table is base[1]
    for cfg in (long, octal):
        assert kernel_for(cfg) is not kernel_for(short)
        phi_scan, table, _ = _scan_bank(cfg)[0]
        assert phi_scan is base[0] and table is base[1]
    assert np.array_equal(_scan_bank(long)[0][2], base[2])
    assert _scan_bank(octal)[0][2].shape != base[2].shape


def test_kernel_bank_undithered_shares_kernel(qpsk8):
    bank = kernel_bank_for(qpsk8)
    assert len(bank) == qpsk8.L
    assert bank[0] is bank[1]
    assert bank[0] is kernel_for(qpsk8)


def test_kernel_bank_dithered_offsets():
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0, dither="ramp")
    bank = kernel_bank_for(cfg)
    assert len({id(k) for k in bank}) == 3
    assert bank[1].theta0 == pytest.approx(cfg.dither[1])


# ---- block probabilities -----------------------------------------------------


def test_single_symbol_block_is_uniform():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
    for z in range(8):
        for x in range(4):
            assert block_conditional([z], [x], cfg) == pytest.approx(1 / 8, abs=1e-12)


def test_block_constant_addition_identity():
    cfg = SystemConfig(M=4, K=8, L=4, snr_db=6.0)
    x = np.array([1, 0, 2, 3])
    p1 = block_conditional([5, 7, 2, 4], x, cfg)
    p2 = block_conditional([6, 0, 3, 5], x, cfg)
    assert p2 == pytest.approx(p1, rel=1e-12)


def test_block_permutation_identity(rng):
    cfg = SystemConfig(M=4, K=8, L=5, snr_db=6.0)
    z = rng.integers(0, 8, size=5)
    x = rng.integers(0, 4, size=5)
    perm = rng.permutation(5)
    assert block_conditional(z[perm], x[perm], cfg) == pytest.approx(
        block_conditional(z, x, cfg), rel=1e-10
    )


def test_block_normalization_over_all_outputs():
    from itertools import product

    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    k = kernel_for(cfg)
    x = np.array([0, 1, 2])
    Z = np.array(list(product(range(8), repeat=3)), dtype=np.int64)
    total = block_conditional_batch(Z, k, x=x).sum()
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "z, x, match",
    [
        ([9, 0, 0], [0, 0, 0], "z components must lie in 0..K-1"),
        ([-1, 0, 0], [0, 0, 0], "z components must lie in 0..K-1"),
        ([0, 0, 0], [5, 0, 0], "x components must lie in 0..M-1"),
        ([1.7, 0, 0], [0, 0, 0], "z components must be integers"),
        ([0, 0, 0], [0, 0.5, 0], "x components must be integers"),
        ([0, 0, 0], [0, 0], "x must have L=3 entries"),
        ([0, 0], [0, 0, 0], "must have L=[23] entries"),
        ([], [], "z must (be a nonempty block|have L=3 entries)"),
    ],
)
@pytest.mark.parametrize("dithered", [False, True])
def test_block_probability_rejects_bad_blocks(qpsk8_l3, z, x, match, dithered):
    # an index out of range must not wrap, nor a fraction truncate
    cfg = replace(qpsk8_l3, dither="ramp") if dithered else qpsk8_l3
    with pytest.raises(ValueError, match=match):
        block_conditional(z, x, cfg)


def test_dithered_config_cannot_build_shared_kernel():
    # the symmetry-reduced path assumes one constellation for every position
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
    with pytest.raises(ValueError, match="dither"):
        kernel_for(cfg)


def test_dithered_block_reduces_to_plain():
    # an all-zero dither is the undithered config, so its block probability
    # is the shared kernel's product
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    zero = replace(cfg, dither=(0.0,) * 3)
    k = kernel_for(cfg)
    for z, x in (([0, 3, 5], [1, 2, 0]), ([7, 7, 1], [3, 3, 3])):
        rows = (np.array(z) - 2 * np.array(x)) % 8
        plain = np.mean(np.prod([k.table[r] for r in rows], axis=0))
        assert block_conditional(z, x, zero) == pytest.approx(plain, rel=1e-12)


def test_dithered_single_symbol_uniform():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0, dither=(0.7,))
    for z in range(8):
        assert block_conditional([z], [2], cfg) == pytest.approx(1 / 8, abs=1e-12)


def test_dithered_block_against_channel_mc():
    cfg = SystemConfig(M=4, K=8, L=2, snr_db=6.0, dither="ramp")
    x = np.array([1, 2])
    z = np.array([3, 5])
    p = block_conditional(z, x, cfg)

    draws = 10_000_000
    rng = np.random.default_rng(17)
    hits = 0
    chunk = 1_000_000
    remaining = draws
    theta = cfg.theta0 + x * TWO_PI / cfg.M + np.asarray(cfg.dither)
    while remaining > 0:
        n = min(chunk, remaining)
        phi = rng.uniform(0, TWO_PI, size=n)
        ok = np.ones(n, dtype=bool)
        for l in range(2):
            noise = rng.normal(scale=cfg.sigma, size=(n, 2))
            re = np.cos(theta[l] + phi) + noise[:, 0]
            im = np.sin(theta[l] + phi) + noise[:, 1]
            ang = np.arctan2(im, re) % TWO_PI
            sec = np.minimum((ang * cfg.K / TWO_PI).astype(np.int64), cfg.K - 1)
            ok &= sec == z[l]
        hits += int(np.count_nonzero(ok))
        remaining -= n
    p_mc = hits / draws
    se = math.sqrt(max(p_mc * (1 - p_mc), 1e-12) / draws)
    assert abs(p - p_mc) < 3 * se


def _plain_grid_mean(tables, S):
    return np.prod([t[S[:, l]] for l, t in enumerate(tables)], axis=0).mean(axis=1)


def test_log_grid_mean_linear_and_log_paths(rng, monkeypatch):
    normal = [rng.uniform(1e-3, 1.0, size=(4, 256)) for _ in range(20)]
    S = rng.integers(0, 4, size=(50, 20))
    assert np.exp(_log_grid_mean(normal, S)) == pytest.approx(
        _plain_grid_mean(normal, S), rel=1e-12
    )
    # sector 0 carries an extra 1e-3 at all 200 positions, so the even rows
    # (all sector 0) underflow the linear product and the odd rows do not
    u = [rng.uniform(0.5, 1.0, size=(4, 256)) for _ in range(200)]
    tables = [np.vstack([1e-3 * t[:1], t[1:]]) for t in u]
    S = rng.integers(1, 4, size=(10, 200))
    S[::2] = 0
    out = _log_grid_mean(tables, S)
    expected = 200 * math.log(1e-3) + np.log(_plain_grid_mean(u, S[::2]))
    assert out[::2] == pytest.approx(expected, rel=1e-12)
    assert np.exp(out[1::2]) == pytest.approx(_plain_grid_mean(tables, S[1::2]), rel=1e-12)
    # 3-row chunks, which split deep and normal rows, change no row
    monkeypatch.setattr(transition, "_CHUNK_ELEMENTS", 3 * 256)
    assert np.array_equal(_log_grid_mean(tables, S), out)


def test_log_grid_mean_all_zero_row_is_minus_inf():
    tables = [np.array([[0.5, 0.25], [0.0, 0.0]])] * 3
    out = _log_grid_mean(tables, np.array([[0, 0, 0], [0, 1, 0]]))
    assert out[0] == pytest.approx(math.log((0.5**3 + 0.25**3) / 2), rel=1e-12)
    assert out[1] == -np.inf


# ---- phase grid accuracy -------------------------------------------------------

# (M, K, L, snr_db, dither): M in {2, 4, 8}, -10 to 40 dB, L up to 200, and
# ramp dither. The fixed 2048-point grid used before missed the M=4, K=8,
# L=8, 40 dB case by about 5e-9.
_GRID_CASES = [
    (2, 4, 8, -10.0, "none"),
    (2, 32, 40, 30.0, "none"),
    (4, 8, 8, 40.0, "none"),
    (4, 12, 2, 20.0, "none"),
    (4, 64, 8, 40.0, "none"),
    (4, 8, 200, 20.0, "none"),
    (4, 8, 8, 30.0, "ramp"),
    (8, 16, 40, 10.0, "none"),
    (8, 24, 8, 40.0, "ramp"),
]


def _block_log_probs(kernels, X, Z, M, K):
    """log P(z | x) and log P(z) of each block row, as capacity forms them."""
    mixed = {id(k): _input_average(k.table, M, K // M) for k in kernels}
    log_cond = _log_grid_mean([k.table for k in kernels], (Z - (K // M) * X) % K)
    log_out = _log_grid_mean([mixed[id(k)] for k in kernels], Z)
    return log_cond, log_out


@pytest.mark.parametrize("M, K, L, snr_db, dither", _GRID_CASES)
def test_phase_grid_matches_finer_grid(M, K, L, snr_db, dither):
    cfg = SystemConfig(M=M, K=K, L=L, snr_db=snr_db, theta0=0.3, dither=dither)
    bank = kernel_bank_for(cfg)
    fine = {id(k): replace(k, n_phi=8 * k.n_phi) for k in bank}
    rng = np.random.default_rng(7)
    X = rng.integers(0, M, size=(100, L))
    _, Z = sample_blocks(X, cfg, rng)
    got = _block_log_probs(bank, X, Z, M, K)
    want = _block_log_probs([fine[id(k)] for k in bank], X, Z, M, K)
    for g, w in zip(got, want):
        assert np.isfinite(w).all()
        assert np.abs(g - w).max() <= 1e-12


# ---- CSV round trip -----------------------------------------------------------


def test_kernel_csv_roundtrip(tmp_path, qpsk8):
    k = kernel_for(qpsk8)
    path = tmp_path / "kernel.csv"
    export_kernel_csv(k, path)
    table = load_kernel_csv(path)
    assert table.shape == k.table.shape
    assert np.array_equal(table, k.table)


def test_kernel_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_kernel_csv(path)


def test_kernel_csv_rejects_missing_cells(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("phi_index,z,probability\n0,0,0.5\n1,1,0.5\n")
    with pytest.raises(ValueError, match="missing"):
        load_kernel_csv(path)
