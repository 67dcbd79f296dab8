"""Model parameters, PSK constellation, phase quantizer, and channel sampler.

The channel model: a block of L unit-energy M-PSK symbols is rotated by one
phase offset that is uniform on [0, 2*pi) and constant over the block, hit by
i.i.d. circular complex Gaussian noise, and each received sample is reduced to
the index of the angular sector (out of K equal sectors) containing its phase.
K is always a positive integer multiple of M; a = K/M sectors span one
constellation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
# Elements per block of every large temporary: phase-grid products
# (transition._log_grid_mean) and demod scans. 65,536 float64 elements are
# 512 KB, so a block's accumulator and the operand gathered into it fit a
# 2 MiB L2 cache together, and blocks this small are served from the heap
# once glibc's dynamic mmap threshold has risen past them; 4M-element (32 MB)
# blocks were mapped and page-faulted in afresh every time. On a 2-vCPU host
# with 2 MiB of L2 per core, 32k and 64k elements were equally fast and 16k
# and 128k slower. Every blocked routine works row by row (candidate by
# candidate in demod), so outputs do not depend on the block size.
_CHUNK_ELEMENTS = 65_536


def ramp_dither(block_len: int, sectors: int) -> tuple[float, ...]:
    """Built-in dither schedule: symbol l is rotated by an extra l*2*pi/(L*K).

    Successive symbols advance by one L-th of a sector, which removes the
    exact metric ties that plague the undithered K = 2M configurations.
    """
    if block_len < 1 or sectors < 1:
        raise ValueError("block_len and sectors must be positive")
    step = TWO_PI / (block_len * sectors)
    return tuple(l * step for l in range(block_len))


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one operating point.

    M        constellation order (M-PSK)
    K        number of quantizer sectors, a positive integer multiple of M
    L        block length in symbols (the phase offset is constant over a block)
    snr_db   Es/N0 in dB for unit-energy symbols
    theta0   constellation orientation: symbol m sits at theta0 + m*2*pi/M
    dither   per-symbol extra rotations, exactly L entries; all zeros, of any
             length, means the standard undithered constellation. A token
             string ("none", "ramp" or a comma list of L radians) resolves
             via resolve_dither; the CLI and parse_config_text pass theirs
             here as given.
    """

    M: int
    K: int
    L: int
    snr_db: float
    theta0: float = 0.0
    dither: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError("M must be at least 2")
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.K < self.M or self.K % self.M != 0:
            raise ValueError(
                "K must be a positive integer multiple of M "
                f"(got K={self.K}, M={self.M})"
            )
        d = self.dither
        if d is None:
            d = (0.0,) * self.L
        elif isinstance(d, str):
            resolved = resolve_dither(d, self.L, self.K)
            d = resolved if resolved is not None else (0.0,) * self.L
        else:
            d = tuple(float(v) for v in d)
            # all zeros of any length is the undithered constellation, so
            # replace(config, L=n) works on an undithered config
            if not any(d):
                d = (0.0,) * self.L
            elif len(d) != self.L:
                raise ValueError(f"dither must have exactly L={self.L} entries")
        for name, value in (("snr_db", self.snr_db), ("theta0", self.theta0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if not all(math.isfinite(v) for v in d):
            raise ValueError("dither entries must be finite")
        object.__setattr__(self, "dither", d)
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "snr_db", float(self.snr_db))

    @property
    def a(self) -> int:
        """Sectors per constellation step, K/M."""
        return self.K // self.M

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def sigma(self) -> float:
        """Per-dimension noise deviation for unit-energy symbols."""
        return math.sqrt(1.0 / (2.0 * self.snr_linear))

    @property
    def is_dithered(self) -> bool:
        return any(v != 0.0 for v in self.dither)

    @property
    def sector_width(self) -> float:
        return TWO_PI / self.K

    def with_snr(self, snr_db: float) -> "SystemConfig":
        return replace(self, snr_db=snr_db)

    def symbol_phases(self, x) -> np.ndarray:
        """Transmitted phases theta0 + x*2*pi/M + dither, one per position."""
        x = self._check_symbols(x)
        return self.theta0 + x * (TWO_PI / self.M) + np.asarray(self.dither)

    def _check_symbols(self, x) -> np.ndarray:
        """x as an int64 array of inputs, ValueError unless its last axis
        holds L symbols in 0..M-1."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape[-1] != self.L:
            raise ValueError(f"input must have L={self.L} symbols")
        if np.any((x < 0) | (x >= self.M)):
            raise ValueError("symbols must lie in 0..M-1")
        return x

    @classmethod
    def from_file(cls, path) -> "SystemConfig":
        return parse_config_text(Path(path).read_text())


def parse_config_text(text: str) -> SystemConfig:
    """Parse the key=value run-configuration format.

    Recognized keys: M, K, L, snr_db, theta0 (optional), dither (optional:
    'none', 'ramp', or a comma-separated list of L radian offsets). Blank
    lines and '#' comments are ignored.
    """
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()

    missing = [k for k in ("M", "K", "L", "snr_db") if k not in fields]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")

    M = int(fields["M"])
    K = int(fields["K"])
    L = int(fields["L"])
    snr_db = float(fields["snr_db"])
    theta0 = float(fields.get("theta0", "0"))
    dither = fields.get("dither", "none")
    return SystemConfig(M=M, K=K, L=L, snr_db=snr_db, theta0=theta0, dither=dither)


def resolve_dither(token: str, block_len: int, sectors: int) -> tuple[float, ...] | None:
    """Map a dither spelling ('none', 'ramp', or comma list) to offsets."""
    token = token.strip()
    if token in ("", "none"):
        return None
    if token == "ramp":
        return ramp_dither(block_len, sectors)
    try:
        values = tuple(float(v) for v in token.split(","))
    except ValueError as exc:
        raise ValueError(f"unrecognized dither token: {token!r}") from exc
    if len(values) != block_len:
        raise ValueError(f"explicit dither needs exactly L={block_len} entries")
    return values


def _check_indices(v, name: str, L: int, n: int, n_name: str) -> np.ndarray:
    """v as an int array of L integers in 0..n-1, else ValueError.

    Integral floats (2.0) pass; fractional, non-finite or non-numeric
    entries are rejected rather than truncated.
    """
    v = np.asarray(v)
    if v.shape != (L,):
        raise ValueError(f"{name} must have L={L} entries")
    if v.dtype.kind not in "iu" and not (
        v.dtype.kind == "f" and np.all(np.isfinite(v)) and np.all(v == np.floor(v))
    ):
        raise ValueError(f"{name} components must be integers")
    if np.any((v < 0) | (v >= n)):
        raise ValueError(f"{name} components must lie in 0..{n_name}-1")
    return v.astype(np.int64)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d int array in lexicographic order, and the index
    of each input row among them (np.unique(rows, axis=0, return_inverse=True)
    by one sort of packed words).

    Each row is shifted by the array minimum and packed, most significant
    value first, into ceil(L / per) 64-bit words of per = 63 // bits values of
    bits = (max - min).bit_length() bits each. Packing keeps the row order, so
    the sort runs over the words instead of the L columns. The order among
    equal rows does not reach the outputs, so one word takes numpy's default
    (unstable, vectorised) argsort, several words a lexsort.
    """
    rows = np.asarray(rows)
    n, L = rows.shape
    # unsigned arithmetic wraps, so that a span of 2**63 or more cannot overflow
    columns = np.ascontiguousarray(rows.T, dtype=np.uint64) - rows.min().astype(np.uint64)
    bits = max(int(columns.max()).bit_length(), 1)
    per = min(max(63 // bits, 1), L)
    words = np.zeros((-(-L // per), n), dtype=np.uint64)
    for j, column in enumerate(columns):
        w, k = divmod(j, per)
        words[w] |= column << np.uint64(bits * (per - 1 - k))
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    ranked = words[:, order]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


def _quantize(ang: np.ndarray, K: int, out: np.ndarray) -> np.ndarray:
    """Sector indices of float angles in [-2*pi, 2*pi] into the int64 out.

    Overwrites ang. On [-2*pi, 2*pi) fmod returns the angle itself, so
    adding 2*pi to the negative angles gives the same floats as np.mod,
    without the division.
    """
    np.add(ang, TWO_PI, out=ang, where=ang < 0.0)
    ang *= K
    ang /= TWO_PI
    np.floor(ang, out=out, casting="unsafe")
    # ang can round to exactly 2*pi for angles just below zero; that is the
    # correct top sector, so clamp instead of wrapping to 0.
    return np.minimum(out, K - 1, out=out)


def sector_index(angles: np.ndarray, K: int) -> np.ndarray:
    """Sector indices floor(arg / (2*pi/K)) of angles in radians, any branch.

    Sector z covers [z*2*pi/K, (z+1)*2*pi/K); boundaries belong to the upper
    sector.
    """
    ang = np.array(angles, dtype=float)
    if not (ang.size and ang.min() >= -TWO_PI and ang.max() < TWO_PI):
        np.mod(ang, TWO_PI, out=ang)
    return _quantize(ang, K, np.empty(ang.shape, dtype=np.int64))[()]


def modulate(x, config: SystemConfig) -> np.ndarray:
    """Unit-energy transmit samples exp(j*(theta0 + x*2*pi/M + dither))."""
    return np.exp(1j * config.symbol_phases(x))


class _Workspace:
    """Named flat byte buffers, kept across calls and grown on demand.

    buffer() returns a C-contiguous view of the leading bytes of a named
    buffer, so a smaller request (a ragged last chunk) reuses it, and a
    later user of the same name may view the same bytes as another dtype.
    """

    def __init__(self) -> None:
        self._bytes: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        flat = self._bytes.get(name)
        if flat is None or flat.size < nbytes:
            flat = self._bytes[name] = np.empty(nbytes, dtype=np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)


def _sample_into(
    X: np.ndarray,
    config: SystemConfig,
    rng: np.random.Generator,
    phi: float | None,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """sample_blocks for checked symbols X (n, L), in work's buffers.

    Z is the buffer "Z" of work. The noise is one draw into "noise"
    (2, n, L), and "t0" and "t1" hold (n, L) temporaries, so callers may
    reuse "noise", "t0" and "t1" once it returns. It computes, in real
    arithmetic and in place,
        yr = (cr*er - ci*ei) + sigma*nr,  yi = (cr*ei + ci*er) + sigma*ni,
    for clean samples cr + j*ci gathered from the (M, L) table and block
    rotations er + j*ei: the floats of the complex expression. Its angle
    arctan2(yi, yr) is np.angle(y).
    """
    n, L = X.shape
    M, K, sigma = config.M, config.K, config.sigma
    # exp(j*phase) of each (position, symbol) pair; sample (b, l) reads
    # entry l*M + X[b, l]
    table = modulate(np.repeat(np.arange(M)[:, None], L, axis=1), config).T.ravel()
    table_re, table_im = table.real.copy(), table.imag.copy()
    if phi is None:
        phis = rng.uniform(0.0, TWO_PI, size=n)
    else:
        phis = np.full(n, float(phi))
    # Z last: in a fresh workspace the buffers freed on return then lie
    # below the Z the caller keeps, as one hole that its next arrays reuse
    # (on top of the heap they were trimmed and page-faulted in again)
    noise = work.buffer("noise", (2, n, L))
    ta = work.buffer("t0", (n, L))
    tb = work.buffer("t1", (n, L))
    Z = work.buffer("Z", (n, L), np.int64)
    rng.standard_normal(out=noise)
    yr, yi = noise
    rot = np.exp(1j * phis)
    er, ei = rot.real[:, None], rot.imag[:, None]
    np.add(X, M * np.arange(L), out=Z)
    yr *= sigma
    yi *= sigma
    # cr*er - ci*ei, then (the table gathered again) cr*ei + ci*er;
    # take(mode="clip") writes straight into out, "raise" buffers it
    np.take(table_re, Z, out=ta, mode="clip")
    np.take(table_im, Z, out=tb, mode="clip")
    ta *= er
    tb *= ei
    ta -= tb
    yr += ta
    np.take(table_re, Z, out=ta, mode="clip")
    np.take(table_im, Z, out=tb, mode="clip")
    ta *= ei
    tb *= er
    ta += tb
    yi += ta
    dead = np.empty(0, np.intp) if yr.all() else np.flatnonzero((yr == 0.0) & (yi == 0.0))
    np.arctan2(yi, yr, out=yr)
    _quantize(yr, K, Z)
    if dead.size:
        # zero samples have no phase: redraw their noise, all of them at
        # once in np.nonzero order, until none is zero
        b, l = np.divmod(dead, L)
        clean = table[l * M + X[b, l]]
        y = np.zeros(dead.size, dtype=complex)
        todo = np.arange(dead.size)
        while todo.size:
            y[todo] = clean[todo] * np.exp(1j * phis[b[todo]]) + sigma * (
                rng.standard_normal(todo.shape) + 1j * rng.standard_normal(todo.shape)
            )
            todo = todo[y[todo] == 0]
        Z.reshape(-1)[dead] = sector_index(np.angle(y), K)
    return phis, Z


def sample_blocks(
    X,
    config: SystemConfig,
    rng: np.random.Generator,
    phi: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw quantized blocks: X is (n, L) ints, returns (phi (n,), Z (n, L)).

    phi overrides the uniform block phase when given (test hook); the noise is
    always drawn from rng. Zero received samples (probability zero, no phase)
    trigger a redraw of the affected noise entries.

    The draws are the block phases, then the real and the imaginary noise
    parts of all n*L samples, then the redraws in np.nonzero order. The
    noise is one standard_normal draw into a (2, n, L) array: the same
    stream as one (n, L) draw of real parts followed by one of imaginary
    parts.
    """
    return _sample_into(config._check_symbols(X), config, rng, phi, _Workspace())
