"""Transition law: phase density, sector probabilities, kernels, block laws.

The Monte Carlo oracles here are the independent ground truth for the
quadrature path: they sample the physical channel (signal + noise + sector
count) with no shared code beyond the quantizer.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr

from phaseq import SystemConfig, transition
from phaseq.capacity import mutual_information, mutual_information_mc
from phaseq.cli import main
from phaseq.core import _CHUNK_ELEMENTS, _KEPT_BYTES, _Workspace, _thread_workspace, sample_blocks
from phaseq.demod import _SCAN_TARGET, _scan_bank, glrt_demodulate
from phaseq.sim import run_ser
from phaseq.transition import (
    _MAX_GRID,
    _arc_probabilities,
    _arc_sums,
    _check_snr_linear,
    _fold_inputs,
    _grid_size,
    _kernel_cached,
    _log_grid_mean,
    _log_table,
    _phase_offset_pdf,
    block_conditional,
    block_conditional_batch,
    kernel_bank_for,
    kernel_for,
    sector_offset_probability,
    sector_probability,
)

TWO_PI = 2.0 * math.pi


def phase_offset_pdf(u, snr_linear: float) -> np.ndarray:
    """Density of (received phase - clean phase) at the angles u."""
    _check_snr_linear(snr_linear)
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    flat = u.reshape(-1)
    pdf = _phase_offset_pdf(np.cos(flat), np.sin(flat), snr_linear, _Workspace())
    return pdf.reshape(u.shape)


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


def test_sector_probability_checks_its_indices():
    cfg = SystemConfig(M=4, K=8, L=1, snr_db=6.0)
    base = sector_probability(3, 1, 0.7312, cfg)
    for z, x in ((3.0, 1), (np.int8(3), np.uint16(1)), (np.array(3), 1.0)):
        assert sector_probability(z, x, 0.7312, cfg) == base
    for z, x, name in ((1.5, 0, "z"), (0, 0.5, "x"), (np.nan, 0, "z")):
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            sector_probability(z, x, 0.7312, cfg)
    with pytest.raises(ValueError, match="z must be a single index"):
        sector_probability([3], 1, 0.7312, cfg)
    with pytest.raises(ValueError, match="z must lie in 0..K-1"):
        sector_probability(8, 0, 0.7312, cfg)
    with pytest.raises(ValueError, match="x must lie in 0..M-1"):
        sector_probability(0, -1, 0.7312, cfg)


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


@pytest.mark.parametrize("M, K", [(2, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("theta0", [0.0, 0.3, math.pi / 4])
def test_kernel_matches_one_bit_iq_closed_form(M, K, theta0):
    # At K = 4 the sectors are the quadrants and the I and Q noise are
    # independent, so P(z = 0 | psi) = Phi(s cos psi) Phi(s sin psi) with
    # s = sqrt(2 rho) and psi = theta0 + phi_i; at K = 2, Phi(s sin psi).
    # Row z is the form at psi - z*2*pi/K. The closed form shares no code
    # with the fill. A grid angle carries about 1e-15 rad of rounding, so
    # an entry may deviate by its conditioning: 2e-15 * (1 + s*(1 + the
    # tail slope sqrt(-2 ln P))), wherever P > 1e-300
    for snr_db in range(-10, 61, 10):
        kernel = kernel_for(SystemConfig(M=M, K=K, L=1, snr_db=snr_db, theta0=theta0))
        s = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
        psi = theta0 + kernel.phi_grid - (2.0 * math.pi / K) * np.arange(K)[:, None]
        log_p = log_ndtr(s * np.sin(psi))
        if K == 4:
            log_p += log_ndtr(s * np.cos(psi))
        held = log_p > math.log(1e-300)
        p, log_p = np.exp(log_p[held]), log_p[held]
        bound = 2e-15 * (1.0 + s * (1.0 + np.sqrt(-2.0 * log_p)))
        assert held.any()
        assert np.all(np.abs(kernel.table[held] - p) <= bound * p), snr_db


@pytest.mark.parametrize("K", [8, 12, 64])
@pytest.mark.parametrize("snr_db", [0.0, 6.0, 14.0, 20.0, 30.0, 40.0, 60.0])
def test_arc_fill_matches_quadrature_oracle(K, snr_db, rng):
    # above 14 dB the density's own tail cancellation limits both paths
    rel = 1e-12 if snr_db <= 14.0 else 1e-10
    cfg = SystemConfig(M=4, K=K, L=1, snr_db=snr_db, theta0=0.3)
    width = TWO_PI / K
    k = kernel_for(cfg)
    # row 0 of both tables holds the arc probabilities g(m*2*pi/n - theta0)
    # at column -m mod n
    kernel_base = k.table[0, (-np.arange(k.n_phi)) % k.n_phi]
    _, logtab, _ = _scan_bank(cfg)[0]
    n_scan = logtab.shape[1]
    scan_base = np.exp(logtab[0, (-np.arange(n_scan)) % n_scan])
    for n, probs in ((k.n_phi, kernel_base), (n_scan, scan_base)):
        stride = n // 20
        for m in range(int(rng.integers(stride)), n, stride):
            t = m * TWO_PI / n - cfg.theta0
            direct = sector_offset_probability(t, width, cfg.snr_linear)
            assert probs[m] == pytest.approx(direct, rel=rel, abs=1e-250)


def _arc_fill_node_by_node(start, n, K, snr_linear):
    """The arc fill's cells with one density call per Gauss node over all n
    cells, each node's cosine and sine by angle addition from its cell's
    left edge, then the fill's own arc sums."""
    delta = TWO_PI / n
    parts = max(1, math.ceil(delta * math.sqrt(2.0 * snr_linear)))
    h = delta / parts
    lo = start + delta * np.arange(n)
    cl, sl = np.cos(lo), np.sin(lo)
    cells = np.zeros(n)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for part in range(parts):
        offsets = part * h + 0.5 * h * (nodes + 1.0)
        for co, so, w in zip(np.cos(offsets), np.sin(offsets), weights):
            pdf = _phase_offset_pdf(co * cl - so * sl, co * sl + so * cl, snr_linear, _Workspace())
            cells += w * pdf
    cells *= 0.5 * h
    return _arc_sums(cells, n // K)


@pytest.mark.parametrize("K", [4, 8, 12, 64])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 14.0, 30.0, 40.0, 45.0])
def test_arc_fill_bitwise_matches_node_by_node(K, snr_db):
    # 1 to 3 parts per cell on the scan grid; the third size spans two full
    # blocks of _CHUNK_ELEMENTS // 16 cells and a ragged third
    rho = 10 ** (snr_db / 10)
    n_phi = _grid_size(SystemConfig(M=4, K=K, L=8, snr_db=snr_db))
    n_scan = K * math.ceil(_SCAN_TARGET / K)
    n_wide = K * math.ceil((2 * (_CHUNK_ELEMENTS // 16) + 7) / K)
    for theta in (0.0, 0.3, -1.234):
        for start, n in (
            (0.5 * TWO_PI / n_phi - theta, n_phi),
            (-theta, n_scan),
            (-theta, n_wide),
        ):
            expected = _arc_fill_node_by_node(start, n, K, rho)
            assert np.array_equal(_arc_probabilities(start, n, K, rho), expected)


def test_arc_fill_memory_is_bounded():
    # 2**18 cells are 2 MB an array; a (16, n) evaluation of all nodes at
    # once would hold 32 MB temporaries. The wide K keeps the final arc sums
    # (n/K cells each) short.
    n = 2**18
    tracemalloc.start()
    try:
        _arc_probabilities(0.1, n, n // 4, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_arc_fill_keeps_no_buffer_above_the_kept_size():
    # a fill works in (16, _CHUNK_ELEMENTS // 16) planes whatever its grid
    # or SNR, so it grows no workspace buffer that a call would drop: a
    # 60 dB K=4 L=8 kernel (67,948 cells, 16 parts each) and a 2**18-cell
    # fill leave none above core._KEPT_BYTES on a fresh thread
    largest = []

    def fill():
        cfg = SystemConfig(M=4, K=4, L=8, snr_db=60.0)
        # a kernel of its own, not the cached one an earlier test filled
        transition.TransitionKernel(60.0, 4, 0.0, _grid_size(cfg)).table
        _arc_probabilities(0.1, 2**18, 2**16, 10.0)
        largest.append(max(v.size for v in _thread_workspace()._bytes.values()))

    thread = threading.Thread(target=fill)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(largest) == 1
    assert largest[0] <= _KEPT_BYTES


def test_arc_fills_on_threads_match_serial():
    # each thread fills in its own workspace: concurrent fills, switched
    # often, give the serial bits (a shared workspace would mix their planes)
    args = [(-0.3, 720, 8, 10 ** (db / 10)) for db in (0.0, 6.0, 11.0, 14.0, 20.0, 30.0)]
    serial = [_arc_probabilities(*a) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_arc_probabilities, *a) for a in args * 4]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, g in enumerate(got):
        assert np.array_equal(g, serial[i % len(args)])


def test_ndtr_matches_scipy():
    # Phi(x) = a - b*exp(-z*z)/2 against the Cephes ndtr that SciPy ships,
    # over +-40, both branch edges (|x| = sqrt(2) and 8*sqrt(2), i.e. z = 1
    # and 8) with their neighbours, and +-0: within 4 ulp wherever SciPy's
    # value is a normal float (the two exps may differ by an ulp each, and
    # the products are rounded in another order), and within the smallest
    # normal below that
    from scipy.special import ndtr

    edges = np.array([math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
    edges = np.concatenate([edges, -edges])
    x = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 400_001),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [0.0, -0.0, 1e-300, -1e-300],
        ]
    )
    a = x.copy()
    b = transition._ndtr(a, _Workspace())
    z = np.abs(x * math.sqrt(0.5))
    phi = a - b * np.exp(-z * z) / 2
    want = ndtr(x)
    tiny = np.finfo(float).tiny
    normal = want >= tiny
    assert np.all(np.abs(phi - want)[normal] <= 4 * np.spacing(want[normal]))
    assert np.all(np.abs(phi - want)[~normal] <= tiny)
    assert set(phi[np.abs(x) < 1e-200].tolist()) == {0.5}


def test_ndtr_tails_of_huge_arguments_are_exact():
    # the tail rational is capped, so Phi reaches exactly 0 and 1 far out
    # with no overflow in R/S (a RuntimeWarning fails the suite)
    x = np.array([-1e150, -1e40, -50.0, 50.0, 1e40, 1e150])
    a = x.copy()
    b = transition._ndtr(a, _Workspace())
    z = np.abs(x * math.sqrt(0.5))
    assert (a - b * np.exp(-z * z) / 2).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert np.isfinite(b).all()


@pytest.mark.parametrize(
    "n, s", [(1, 1), (7, 1), (7, 7), (12, 5), (720, 90), (1000, 999), (4096, 1365)]
)
def test_arc_sums_match_exact_window_sums(n, s):
    # each cyclic window of s cells, within a few ulps of its exact sum;
    # positive terms only, so no window loses relative accuracy
    rng = np.random.default_rng(n + s)
    cells = rng.uniform(0.0, 1.0, n) * np.exp(rng.uniform(-300.0, 0.0, n))
    twice = np.concatenate([cells, cells])
    exact = np.array([math.fsum(twice[m : m + s]) for m in range(n)])
    got = _arc_sums(cells, s)
    assert got.shape == (n,)
    assert np.all(np.abs(got - exact) <= 4 * math.ceil(math.log2(s) + 1) * np.spacing(exact))


# ---- sector tables as views of one base row ------------------------------------


def _gathered(base, K, shift):
    """The materialised table: cell (z, i) is base[(z*n/K - i + shift) mod n]."""
    n = base.size
    return base[(n // K * np.arange(K)[:, None] - np.arange(n)[None, :] + shift) % n]


def _owner(view):
    """The array that owns the memory a view reads."""
    while not (isinstance(view, np.ndarray) and view.flags.owndata):
        view = view.base
    return view


def _assert_read_only(table):
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


# the 100 dB case fills at 1,100+ parts per cell and leaves -inf log cells
@pytest.mark.parametrize(
    "K, snr_db, theta0", [(8, 6.0, 0.0), (12, 11.0, 0.3), (64, 10.0, 0.1), (8, 100.0, 0.05)]
)
def test_sector_tables_are_read_only_views_of_one_row(K, snr_db, theta0, monkeypatch):
    # the tables and their gathered oracles share each arc fill, as copies
    fills = {}

    def fill_once(*args):
        if args not in fills:
            fills[args] = _arc_probabilities(*args)
        return fills[args].copy()

    monkeypatch.setattr(transition, "_arc_probabilities", fill_once)
    M = 4
    cfg = SystemConfig(M=M, K=K, L=2, snr_db=snr_db, theta0=theta0)
    n_scan = K * math.ceil(_SCAN_TARGET / K)
    k = kernel_for(cfg)
    if k.n_phi > _MAX_GRID:
        k = replace(k, n_phi=n_scan)
    n = k.n_phi
    g = fill_once(-theta0, n, K, cfg.snr_linear)
    kernel_want = _gathered(g, K, 0)
    a, period = K // M, n // M
    inputs = (np.arange(K)[:, None] - a * np.arange(M)[None, :]) % K
    mixed_full = kernel_want[inputs].mean(axis=1)
    # the input average is 2*pi/M-periodic, so its table holds one period of
    # the full row 0 rolled by n/K per residue; on the full grid, cells of
    # rows r > 0 that wrap come from another period, a few ulps away
    mixed_want = mixed_full[0, (np.arange(period) - (period // a) * np.arange(a)[:, None]) % period]
    assert (np.abs(mixed_want - mixed_full[:a, :period]) <= 8 * np.spacing(mixed_want)).all()
    with np.errstate(divide="ignore"):
        scan_want = _gathered(np.log(fill_once(-theta0, n_scan, K, cfg.snr_linear)), K, 0)
        log_want = np.log(kernel_want)
    phi_scan, scan, env = _scan_bank(cfg)[0]
    # the envelope: max over m of the gathered log table's rows z - a*m, on
    # the residues and one period of the scan grid
    P = n_scan // M
    env_want = scan_want[inputs[:a]].max(axis=1)[:, :P]
    with np.errstate(divide="ignore"):
        log_kernel = _log_table(k.table)
    views = (
        (k.table, kernel_want),
        (_fold_inputs(k.table, M, np.mean), mixed_want),
        (scan, scan_want),
        (env, env_want),
        (log_kernel, log_want),
    )
    for view, want in views:
        # byte for byte, so -0.0, -inf and every last bit count
        assert view.shape == want.shape
        assert np.ascontiguousarray(view).tobytes() == want.tobytes()
        _assert_read_only(view)
        # one doubled row backs the whole table: 2n values, 2n/M for the
        # input average and the envelope
        assert np.shares_memory(view[0], view[-1])
        assert _owner(view).size == 2 * view.shape[1]
    if snr_db == 100.0:
        assert np.isneginf(scan_want).any() and np.isneginf(log_want).any()
    with pytest.raises(ValueError, match="read-only"):
        phi_scan[0] = 1.0


def test_log_table_of_a_plain_table_is_elementwise(rng):
    t = rng.uniform(0.0, 1.0, size=(8, 64))
    t[3, 5] = 0.0
    with np.errstate(divide="ignore"):
        assert np.log(t).tobytes() == _log_table(t).tobytes()
        # a reversed copy steps back n elements per row, not n/K
        assert np.log(t[::-1]).tobytes() == _log_table(t[::-1]).tobytes()


_FOOTPRINT_SCRIPT = """
import sys
import numpy as np
import phaseq.capacity
import phaseq.cli
import phaseq.sim
from phaseq.capacity import mutual_information, mutual_information_mc
from phaseq.core import SystemConfig
from phaseq.sim import run_ser
from phaseq.transition import sector_probability

cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
ramp = SystemConfig(M=4, K=8, L=4, snr_db=10.0, dither="ramp")
run_ser(ramp, 200, seed=1)
mutual_information_mc(ramp, 200, np.random.default_rng(1))
mutual_information(cfg)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(repr(sector_probability(3, 1, 0.4, cfg)))
print("scipy.integrate" in sys.modules)
"""


def test_run_paths_load_no_quadrature_scipy():
    # the run paths load no SciPy module at all; scipy.integrate (which loads
    # optimize, sparse and linalg) waits for the quadrature reference
    src = os.path.dirname(os.path.dirname(transition.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    out = run.stdout.split("\n")
    assert out[0] == "[]"
    cfg = SystemConfig(M=4, K=8, L=3, snr_db=6.0)
    value = float(out[1])
    assert value == sector_probability(3, 1, 0.4, cfg)
    lo = 3 * TWO_PI / 8 - (cfg.theta0 + TWO_PI / 4 + 0.4)
    direct = quad(
        lambda u: phase_offset_pdf(u, cfg.snr_linear), lo, lo + TWO_PI / 8, epsrel=1e-13
    )[0]
    assert value == pytest.approx(direct, rel=1e-12)
    assert out[2] == "True"


def _count_fills(monkeypatch):
    """Count each distinct arc fill, from empty table caches."""
    fills = {}

    def counting_fill(*args):
        fills[args] = fills.get(args, 0) + 1
        return _arc_probabilities(*args)

    monkeypatch.setattr(transition, "_arc_probabilities", counting_fill)
    _kernel_cached.cache_clear()
    _scan_bank.cache_clear()
    return fills


def test_demod_tables_shared_across_block_lengths(monkeypatch):
    # the scan kernel depends on (K, SNR, theta0), not on M or the
    # L-dependent phase grid, so L = 8 and M = 8 reuse what L = 4 filled;
    # the envelope depends on M, so the M = 8 config has its own. The
    # block-probability kernel depends on the phase grid but not on M, so
    # only M = 8 shares it
    fills = _count_fills(monkeypatch)
    short = SystemConfig(M=4, K=64, L=4, snr_db=10.0)
    long, octal = replace(short, L=8), replace(short, M=8)
    assert _grid_size(short) != _grid_size(long)
    banks = {}
    for cfg in (short, long, octal):
        glrt_demodulate(np.zeros(cfg.L, dtype=np.int64), cfg)
        banks[cfg] = _scan_bank(cfg)[0]
    n_scan = 64 * math.ceil(_SCAN_TARGET / 64)
    assert list(fills) == [(-short.theta0, n_scan, 64, short.snr_linear)]
    base = banks[short]
    for cfg in (long, octal):
        phi_scan, table, _ = banks[cfg]
        assert phi_scan.tobytes() == base[0].tobytes()
        assert np.ascontiguousarray(table).tobytes() == np.ascontiguousarray(base[1]).tobytes()
    assert np.array_equal(banks[long][2], base[2])
    assert banks[octal][2].shape != base[2].shape
    assert kernel_for(long) is not kernel_for(short)
    assert kernel_for(octal) is kernel_for(short)


@pytest.mark.parametrize(
    "K, snr_db, dither", [(8, 6.0, None), (8, 14.0, "ramp"), (64, 10.0, "ramp"), (8, 100.0, None)]
)
def test_scan_tables_are_logs_of_scan_grid_kernels(K, snr_db, dither):
    # byte for byte, -inf cells included: each position's scan table is
    # the log of the kernel at its rotation on the scan grid
    cfg = SystemConfig(M=4, K=K, L=4, snr_db=snr_db, theta0=0.3, dither=dither)
    n_scan = K * math.ceil(_SCAN_TARGET / K)
    for d, (phi_scan, table, _) in zip(cfg.dither, _scan_bank(cfg)):
        kernel = _kernel_cached(K, snr_db, cfg.theta0 + d, n_scan)
        with np.errstate(divide="ignore"):
            want = _log_table(kernel.table)
        assert np.ascontiguousarray(table).tobytes() == np.ascontiguousarray(want).tobytes()
        assert phi_scan.tobytes() == kernel.phi_grid.tobytes()
        assert not phi_scan.flags.writeable
    if snr_db == 100.0:
        assert np.isneginf(table).any()


def test_every_path_fills_each_table_once(monkeypatch):
    # exact MI, Monte Carlo MI and SER on one operating point, undithered
    # and ramp, twice over: each (K, SNR, rotation, grid) is filled once,
    # on the block-probability grid and on the scan grid
    fills = _count_fills(monkeypatch)
    cfg = SystemConfig(M=4, K=8, L=4, snr_db=10.0)
    ramp = replace(cfg, dither="ramp")
    for _ in range(2):
        mutual_information(cfg)
        for c in (cfg, ramp):
            mutual_information_mc(c, 200, np.random.default_rng(1))
            run_ser(c, 1_000, seed=1, workers=1)
    n_scan = 8 * math.ceil(_SCAN_TARGET / 8)
    want = {
        (-(ramp.theta0 + d), n, 8, ramp.snr_linear)
        for d in ramp.dither
        for n in (_grid_size(ramp), n_scan)
    }
    assert set(fills) == want and len(want) == 2 * ramp.L
    assert set(fills.values()) == {1}


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
    total = block_conditional_batch((Z - cfg.a * x) % cfg.K, k).sum()
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
    mixed = {id(k): _fold_inputs(k.table, M, np.mean) for k in kernels}
    log_cond = _log_grid_mean([k.table for k in kernels], (Z - (K // M) * X) % K)
    log_out = _log_grid_mean([mixed[id(k)] for k in kernels], Z % (K // M))
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
    argv = ["tables", "--M", "4", "--K", "8", "--L", "2", "--snr-db", "6"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "kernel.csv"
    assert path.read_text().startswith("phi_index,z,probability\n")
    i, z, p = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    table = np.full(k.table.shape, np.nan)
    table[z.astype(int), i.astype(int)] = p
    # repr of each float reads back to the same float, and every cell is written
    assert np.array_equal(table, k.table)
