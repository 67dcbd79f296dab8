"""Cache-sized blocks: outputs do not depend on the block size.

Every large temporary (phase-grid products, demod scans) is processed in
blocks of about core._CHUNK_ELEMENTS elements. Each row (each candidate in
the oracle scan) is reduced on its own, so a one-row block, a three-row block
and one block for everything must give bitwise the same outputs. The oracle's memory is
bounded by the same blocks.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from phaseq import SystemConfig, demod, transition
from phaseq.core import sample_blocks
from phaseq.demod import _scan_bank, _sweep_rows, brute_force_glrt, demodulate_rows
from phaseq.transition import _UNDERFLOW_FLOOR, _fold_inputs, _log_grid_mean, kernel_bank_for

# a block of this many rows, or (None) the old 4M-element budget
_BLOCK_ROWS = [1, 3, None]


def _set_block(monkeypatch, rows: int | None, row_elements: int) -> None:
    """Point every module that reads the block constant at `rows` rows."""
    value = 4_000_000 if rows is None else rows * row_elements
    for module in (transition, demod):
        monkeypatch.setattr(module, "_CHUNK_ELEMENTS", value)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", _BLOCK_ROWS)
def test_log_grid_mean_linear_rows(rows, monkeypatch):
    cfg = SystemConfig(M=4, K=12, L=8, snr_db=6.0)
    tables = [k.table for k in kernel_bank_for(cfg)]
    rng = np.random.default_rng(21)
    S = rng.integers(0, cfg.K, size=(200, cfg.L))
    want = _log_grid_mean(tables, S)
    assert np.isfinite(want).all()
    _set_block(monkeypatch, rows, tables[0].shape[1])
    assert _same(_log_grid_mean(tables, S), want)


@pytest.mark.parametrize("rows", _BLOCK_ROWS)
def test_log_grid_mean_deep_rows(rows, monkeypatch):
    # L = 200 at K = 64: every row takes the linear pass first, and most
    # sampled rows underflow it and are redone in log space. With the ramp
    # dither each of the 200 positions has its own table, and the log of
    # each is built the first time a row underflows
    cases = []
    for dither in ("none", "ramp"):
        cfg = SystemConfig(M=4, K=64, L=200, snr_db=0.0, dither=dither)
        tables = [k.table for k in kernel_bank_for(cfg)]
        rng = np.random.default_rng(22)
        X = rng.integers(0, cfg.M, size=(40, cfg.L))
        _, Z = sample_blocks(X, cfg, rng)
        S = (Z - cfg.a * X) % cfg.K
        want = _log_grid_mean(tables, S)
        assert np.isfinite(want).all()
        assert (want < math.log(_UNDERFLOW_FLOOR)).sum() >= 10
        cases.append((tables, S, want))
    assert len({id(t) for t in cases[1][0]}) == 200
    _set_block(monkeypatch, rows, cases[0][0][0].shape[1])
    for tables, S, want in cases:
        assert _same(_log_grid_mean(tables, S), want)


@pytest.mark.parametrize("rows", _BLOCK_ROWS)
def test_log_grid_mean_peak_skip(rows, monkeypatch):
    # input-averaged rows at L = 200, K = 64, 0 dB: the tables are so flat
    # that their peaks multiply to below the floor, so every row skips the
    # linear pass, which would have sent it to log space anyway
    for dither in ("none", "ramp"):
        cfg = SystemConfig(M=4, K=64, L=200, snr_db=0.0, dither=dither)
        bank = kernel_bank_for(cfg)
        averaged = {id(k): _fold_inputs(k.table, cfg.M, np.mean) for k in bank}
        tables = [averaged[id(k)] for k in bank]
        assert sum(math.log(t[0].max()) for t in tables) < math.log(_UNDERFLOW_FLOOR) - 1.0
        rng = np.random.default_rng(23)
        X = rng.integers(0, cfg.M, size=(40, cfg.L))
        _, Z = sample_blocks(X, cfg, rng)
        # input-averaged tables hold one row per residue mod a
        Z %= cfg.a
        acc = tables[0][Z[:, 0]].copy()
        logs = np.log(acc)
        for l in range(1, cfg.L):
            acc *= tables[l][Z[:, l]]
            logs += np.log(tables[l][Z[:, l]])
        assert (acc.mean(axis=1) < _UNDERFLOW_FLOOR).all()
        peak = logs.max(axis=1)
        want = peak + np.log(np.exp(logs - peak[:, None]).mean(axis=1))
        assert np.isfinite(want).all()
        with monkeypatch.context() as m:
            _set_block(m, rows, tables[0].shape[1])
            assert _same(_log_grid_mean(tables, Z), want)


def _record_bytes(rec) -> tuple:
    return (
        rec.candidates.tobytes(),
        rec.log_metrics.tobytes(),
        rec.winner_index,
        rec.tie,
        rec.tie_gap,
    )


@pytest.mark.parametrize("rows", _BLOCK_ROWS)
@pytest.mark.parametrize(
    "cfg",
    [
        SystemConfig(M=4, K=8, L=8, snr_db=12.0),
        SystemConfig(M=4, K=8, L=8, snr_db=14.0, dither="ramp"),
    ],
    ids=["undithered", "ramp"],
)
def test_demodulate_rows_records(cfg, rows, monkeypatch):
    bank = kernel_bank_for(cfg)
    rng = np.random.default_rng(23)
    _, Z = sample_blocks(rng.integers(0, cfg.M, size=(400, cfg.L)), cfg, rng)
    if not cfg.is_dithered:
        Z = Z % cfg.a
    want = [_record_bytes(r) for r in demodulate_rows(Z, cfg, bank)]
    if not cfg.is_dithered:
        assert any(w[3] for w in want)  # K = 2M without dither ties rows
    phi_scan = _scan_bank(cfg)[0][0]
    _set_block(monkeypatch, rows, phi_scan.size // cfg.M + 1)
    assert [_record_bytes(r) for r in demodulate_rows(Z, cfg, bank)] == want


@pytest.mark.parametrize("rows", _BLOCK_ROWS)
def test_brute_force_glrt(rows, monkeypatch):
    cfg = SystemConfig(M=4, K=8, L=6, snr_db=10.0, dither="ramp")
    z = [1, 0, 3, 7, 2, 5]
    want = brute_force_glrt(z, cfg)
    # rows counts scan rows of one candidate here: one candidate per block
    _set_block(monkeypatch, rows, _scan_bank(cfg)[0][0].size)
    assert repr(brute_force_glrt(z, cfg)) == repr(want)


def test_brute_force_glrt_memory_is_bounded(monkeypatch):
    # 4^7 = 16,384 orbits; one accumulator over all of them would hold
    # 16,384 x 720 scan values (94 MB) and peak near 180 MB
    cfg = SystemConfig(M=4, K=8, L=8, snr_db=10.0)
    z = [1, 0, 3, 7, 2, 5, 6, 4]
    _scan_bank(cfg)
    tracemalloc.start()
    try:
        got = brute_force_glrt(z, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # one block for every candidate: the full scan
    monkeypatch.setattr(demod, "_CHUNK_ELEMENTS", 2**40)
    full = brute_force_glrt(z, cfg)
    assert got.winner == full.winner
    assert (got.tie, got.tie_gap) == (full.tie, full.tie_gap)
    assert got.candidates == full.candidates


def test_sweep_rows_memory_is_bounded(monkeypatch):
    # 200 residue rows of a 200-position ramp at K = 64: about 200
    # candidates a row, so the candidates C (n, D, L) alone are about
    # 61 MiB. Their float planes are built in row blocks, and the
    # empty-segment fallback (most segments here hold no grid point) is
    # summed one position at a time, so the sweep peaks near C; with all
    # rows at once it peaked at 129.5 MiB
    cfg = SystemConfig(M=4, K=64, L=200, snr_db=10.0, dither="ramp")
    rng = np.random.default_rng(24)
    _, Z = sample_blocks(rng.integers(0, cfg.M, size=(200, cfg.L)), cfg, rng)
    rows = Z % cfg.a
    _scan_bank(cfg)
    tracemalloc.start()
    try:
        got = _sweep_rows(rows, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.candidates.nbytes > 48 * 2**20
    assert peak < got.candidates.nbytes + 16 * 2**20
    # one block for every row
    monkeypatch.setattr(demod, "_CHUNK_ELEMENTS", 2**40)
    full = _sweep_rows(rows, cfg)
    for a, b in zip(got, full):
        assert _same(a, b)
    # the fallback's metrics, summed over a (pairs, L) plane in position
    # order, on the first rows
    Z, C = rows[:20], got.candidates[:20]
    edges, n_distinct = demod._distinct_crossovers(Z, cfg)
    scans = _scan_bank(cfg)
    P = scans[0][0].size // cfg.M
    bounds = np.minimum(np.searchsorted(scans[0][0][: P + 1], edges), P)
    valid = np.arange(edges.shape[1]) < n_distinct[:, None]
    empty = valid[:, 1:] & (bounds[:, 1:] == bounds[:, :-1])
    r, d = np.nonzero(empty)
    d += 1
    assert r.size > 1000
    S = (Z[r] - cfg.a * C[r, d]) % cfg.K
    around = bounds[r, d][:, None] - np.array([[1, 0]])
    want = sum(t[1][S[:, l, None], around] for l, t in enumerate(scans)).max(axis=1)
    assert _same(got.log_metrics[r, d], want)
