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
from phaseq.demod import _scan_bank, brute_force_glrt, demodulate_rows
from phaseq.transition import _UNDERFLOW_FLOOR, _log_grid_mean, kernel_bank_for

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
    # L = 200 at K = 64: most sampled rows underflow the linear product and
    # take the log path, some after a linear pass
    cfg = SystemConfig(M=4, K=64, L=200, snr_db=0.0)
    tables = [k.table for k in kernel_bank_for(cfg)]
    rng = np.random.default_rng(22)
    X = rng.integers(0, cfg.M, size=(40, cfg.L))
    _, Z = sample_blocks(X, cfg, rng)
    S = (Z - cfg.a * X) % cfg.K
    want = _log_grid_mean(tables, S)
    assert np.isfinite(want).all()
    assert (want < math.log(_UNDERFLOW_FLOOR)).sum() >= 10
    _set_block(monkeypatch, rows, tables[0].shape[1])
    assert _same(_log_grid_mean(tables, S), want)


def _record_bytes(rec) -> tuple:
    return (
        rec.candidates.tobytes(),
        rec.log_metrics.tobytes(),
        rec.phi_stars.tobytes(),
        rec.winner_index,
        rec.tie_indices.tobytes(),
        rec.tie,
        rec.tie_gap,
        rec.crossovers.tobytes(),
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
        assert any(w[5] for w in want)  # K = 2M without dither ties rows
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
