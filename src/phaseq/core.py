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
import operator
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

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
# Bytes above which a workspace buffer is dropped when the public call that
# grew it returns (_call_workspace). Every buffer of the benchmark workloads
# stays below it, the largest being the 786,432 bytes of Monte Carlo MI
# noise at L = 6, so repeated calls fault in no fresh pages; a long block's
# go (a ramp K=8 L=200 Monte Carlo call grows 67 MB of them).
_KEPT_BYTES = 2**20


def ramp_dither(block_len: int, sectors: int) -> tuple[float, ...]:
    """Built-in dither schedule: symbol l is rotated by an extra l*2*pi/(L*K).

    Successive symbols advance by one L-th of a sector, which removes the
    exact metric ties that plague the undithered K = 2M configurations.
    """
    if block_len < 1 or sectors < 1:
        raise ValueError("block_len and sectors must be positive")
    step = TWO_PI / (block_len * sectors)
    return tuple(l * step for l in range(block_len))


def _reduce_angle(t: float) -> float:
    """t inside [-2*pi, 2*pi], else math.remainder(t, 2*pi): exact, in [-pi, pi].

    Past about 1e15 rad the float spacing swallows the constellation step, so
    kernels and sampler would round an unreduced angle apart."""
    return t if -TWO_PI <= t <= TWO_PI else math.remainder(t, TWO_PI)


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
             via resolve_dither; the CLI passes its --dither token here as
             given.

    M, K and L must be integers (numpy integers too), snr_db and theta0 finite
    real numbers (not strings), and dither entries finite values float()
    takes; anything else raises ValueError naming the field. theta0 and the
    dither entries pass through _reduce_angle, which keeps every angle in
    [-2*pi, 2*pi] bit for bit.
    """

    M: int
    K: int
    L: int
    snr_db: float
    theta0: float = 0.0
    dither: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("M", "K", "L"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
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
            try:
                d = tuple(float(v) for v in d)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"dither must be a token string or a sequence of real numbers (got {d!r})"
                ) from None
            # all zeros of any length is the undithered constellation, so
            # replace(config, L=n) works on an undithered config
            if not any(d):
                d = (0.0,) * self.L
            elif len(d) != self.L:
                raise ValueError(f"dither must have exactly L={self.L} entries")
        snr_db = _as_finite(self.snr_db, "snr_db")
        theta0 = _as_finite(self.theta0, "theta0")
        if not all(math.isfinite(v) for v in d):
            raise ValueError("dither entries must be finite")
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        # below the smallest normal float the noise deviation overflows
        if not sys.float_info.min <= snr < math.inf:
            raise ValueError(
                f"snr_db={self.snr_db} is out of range: 10**(snr_db/10) must be "
                "a normal positive float (about -3076.5 to 3083 dB)"
            )
        object.__setattr__(self, "dither", tuple(_reduce_angle(v) for v in d))
        object.__setattr__(self, "theta0", _reduce_angle(theta0))
        object.__setattr__(self, "snr_db", snr_db)

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

    def with_snr(self, snr_db: float) -> "SystemConfig":
        return replace(self, snr_db=snr_db)

    def symbol_phases(self, x) -> np.ndarray:
        """Transmitted phases theta0 + x*2*pi/M + dither, one per position."""
        x = _check_indices(x, "x", self.L, self.M, "M", stacked=True)
        return self.theta0 + x * (TWO_PI / self.M) + np.asarray(self.dither)


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


def _as_int(value, name: str) -> int:
    """value as a Python int (numpy integers too), else ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer (got {value!r})") from None


def _as_finite(value, name: str) -> float:
    """value as a finite float (any real number type, not a string), else
    ValueError naming it."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ValueError(f"{name} must be a real number (got {value!r})") from None
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite (got {value})")
    return float(value)


def _check_indices(
    v, name: str, L: int | None, n: int, n_name: str, stacked: bool = False
) -> np.ndarray:
    """v as an int64 array of integers in 0..n-1, else ValueError.

    v is one block of L entries; stacked=True also takes blocks stacked
    along leading axes (shape (..., L)), and L=None takes a scalar. Integral
    floats (2.0) pass; fractional, non-finite or non-numeric entries are
    rejected rather than truncated. Integer arrays are not copied.
    """
    v = np.asarray(v)
    what = name
    if L is None:
        if v.ndim:
            raise ValueError(f"{name} must be a single index")
    else:
        what = f"{name} components"
        if v.shape[-1:] != (L,) or (v.ndim > 1 and not stacked):
            raise ValueError(f"{name} must have L={L} entries")
    if v.dtype.kind not in "iu" and not (
        v.dtype.kind == "f" and np.all(np.isfinite(v)) and np.all(v == np.floor(v))
    ):
        raise ValueError(f"{what} must be integers")
    if np.any((v < 0) | (v >= n)):
        raise ValueError(f"{what} must lie in 0..{n_name}-1")
    return v.astype(np.int64, copy=False)


def _digit_words(base: int, significance, word_top) -> tuple[int, np.ndarray, np.ndarray]:
    """The one rule packing digits 0..base-1 into int64 words: (per, word,
    place). Digit j, of significance significance[j] (0 least), goes to word
    word[j] (most significant first) at place[j] = base**(significance[j] %
    per); per, the digits a word takes, is the most with word_top(per) < 2**63,
    found by stopping at the first width past it, as word_top is increasing."""
    significance = np.asarray(significance)
    per = 1
    while per < len(significance) and word_top(per + 1) < 2**63:
        per += 1
    word = (len(significance) - 1) // per - significance // per
    return per, word, base ** (significance % per)


def _row_words(rows: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """(words, top), _group's arguments: rows of digits 0..base-1 packed by
    _digit_words into (W, n) int64 words, first digit most significant."""
    n, L = rows.shape
    per, word, place = _digit_words(base, np.arange(L)[::-1], lambda p: base**p - 1)
    words = np.zeros((word[-1] + 1, n), dtype=np.int64)
    for column, w, q in zip(rows.T, word.tolist(), place.tolist()):
        words[w] += column * q
    return words, base**per - 1


def _distinct_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d array of digits in 0..base-1 in lexicographic
    order, the index of each row among them (np.unique's axis=0 and
    return_inverse), and each distinct row's key (_row_keys): rows packed by
    _row_words, and each read from one member of its _group."""
    words, top = _row_words(rows, base)
    index, inverse, _ = _group(words, top)
    return rows[index], inverse, _row_keys(words, index)


def _group(words: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one rule for sorting and ranking keys: (index, inverse,
    counts) of (W, n) int64 words, a key per column, most significant word
    first (one word: keys in 0..top). index names one member of each group,
    groups in ascending key order (words[:, index] are the distinct keys);
    inverse and counts are as np.unique returns them. One word takes a
    bincount over 0..top where top < 4n, else an argsort; several a lexsort."""
    n = words.shape[1]
    if len(words) == 1 and top < 4 * n:
        counts = np.bincount(words[0], minlength=top + 1)
        inverse = (np.cumsum(counts > 0) - 1)[words[0]]
        index = np.empty(inverse.max() + 1, dtype=np.intp)
        index[inverse] = np.arange(n)
        return index, inverse, counts[counts > 0]
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    ranked = np.take(words, order, axis=1)
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    # each sorted key's rank, in place of the first sorted word
    rank = np.cumsum(first, out=ranked[0])
    rank -= 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank
    return order[first], inverse, np.bincount(rank)


def _row_keys(words: np.ndarray, index: np.ndarray) -> np.ndarray:
    """_RowMemo keys of words[:, index]: int64 for one word, else W as one void scalar."""
    keys = words[:, index].T
    if len(words) > 1:
        keys = np.ascontiguousarray(keys).view(np.dtype((np.void, 8 * len(words))))
    return keys[:, 0]


class _RowMemo:
    """score(rows) of the distinct rows met so far, by key: sorted keys
    (_group's int64 keys, or void scalars of several words) and their value
    rows, at most limit rows, first met first kept. A call looks its keys up
    by one np.searchsorted and adds its misses by one sorted insert; score
    is row-local, so a held value is the value the row would get afresh, to
    the bit."""

    def __init__(self, score, limit: int | None = None) -> None:
        self.score, self.limit = score, limit
        self.keys = self.values = None

    def __call__(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """score(rows) for rows with distinct keys."""
        if self.keys is None:
            scores = self.score(rows)
            first = np.argsort(keys, kind="stable")[: self.limit]
            self.keys, self.values = keys[first], scores[first]
            return scores
        at = np.searchsorted(self.keys, keys)
        new = np.flatnonzero(np.take(self.keys, at, mode="clip") != keys)
        scores = np.take(self.values, at, axis=0, mode="clip")
        if new.size:
            # rows themselves when none is held: a long block's rows are
            # nearly all new, and a copy of them all would be megabytes
            scores[new] = self.score(rows if new.size == len(rows) else rows[new])
            # in key order, so that misses at one insert position stay sorted
            new = new[np.argsort(keys[new], kind="stable")]
            if self.limit is not None:
                new = new[: self.limit - len(self.keys)]
            self.keys = np.insert(self.keys, at[new], keys[new])
            self.values = np.insert(self.values, at[new], scores[new], axis=0)
        return scores


def _quantize(ang: np.ndarray, K: int, out: np.ndarray) -> np.ndarray:
    """Sector indices of float angles in [-2*pi, 2*pi] into the int64 out.

    Overwrites ang. On [-2*pi, 2*pi) fmod returns the angle itself, so
    adding 2*pi to the negative angles gives the same floats as np.mod,
    without the division. The shift 2*pi * (ang < 0) is added to every
    angle: that unmasked add runs several times faster than a masked one on
    angles of random sign, and adding +0.0 changes a non-negative angle only
    from -0.0 to +0.0, both in sector 0.
    """
    np.add(ang, TWO_PI * (ang < 0.0), out=ang)
    ang *= K
    ang /= TWO_PI
    np.floor(ang, out=out, casting="unsafe")
    # ang can round to exactly 2*pi for angles just below zero; that is the
    # correct top sector, so clamp instead of wrapping to 0.
    return np.minimum(out, K - 1, out=out)


def sector_index(angles: np.ndarray, K: int) -> np.ndarray:
    """Sector indices floor(arg / (2*pi/K)) of angles in radians, any branch.

    Sector z covers [z*2*pi/K, (z+1)*2*pi/K); boundaries belong to the upper
    sector. A NaN or infinite angle raises ValueError.
    """
    ang = np.array(angles, dtype=float)
    # NaN or inf fails the range test, so only the wrapping branch checks
    if not (ang.size and ang.min() >= -TWO_PI and ang.max() < TWO_PI):
        if not np.isfinite(ang).all():
            raise ValueError("angles must be finite")
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
    trim() forgets the buffers above _KEPT_BYTES; views already handed out
    keep their memory until they go.
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

    def trim(self) -> None:
        self._bytes = {k: v for k, v in self._bytes.items() if v.size <= _KEPT_BYTES}


# each thread's workspace, kept for the life of the thread
_THREAD_WORK = threading.local()


def _thread_workspace() -> _Workspace:
    """The calling thread's workspace, made on first use and kept, so that
    repeated calls reuse pages already faulted in rather than fresh ones."""
    if not hasattr(_THREAD_WORK, "work"):
        _THREAD_WORK.work = _Workspace()
    return _THREAD_WORK.work


@contextmanager
def _call_workspace():
    """The calling thread's workspace for one public call that may grow
    buffers past _KEPT_BYTES (Monte Carlo MI, an SER lane on this thread):
    those are dropped when the call returns or raises. A kernel fill works
    in 512 KB planes, so it grows none."""
    work = _thread_workspace()
    try:
        yield work
    finally:
        work.trim()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count().

    The package's one rule for drawing ahead: a call with more than one
    batch (SER chunks, Monte Carlo MI batches) makes batch j + 1's draws on
    a one-thread helper while it runs batch j when this is above 1, and
    every draw inline otherwise. The Generator's stream order is the same
    either way, so results do not depend on it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    """trials split into batches of chunk_size and a ragged last one."""
    full, rem = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def _draw_into(
    rng: np.random.Generator,
    phi: float | None,
    sigma: float,
    noise: np.ndarray,
    rot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sampler's bulk draws for noise (2, n, L) and rot (n,) complex:
    returns (phases, rot, noise).

    In stream order: the n block phases by one uniform draw (a constant phi
    when given, which draws nothing), then noise filled by one
    standard_normal draw. rot then takes the block rotations exp(j*phase)
    and noise is scaled by sigma in place, so _sample_into starts from
    sigma*n. Generator fills and these ufuncs release the GIL, so all of it
    may run on another thread than the arithmetic that follows, and the
    floats do not depend on the thread.
    """
    n = noise.shape[1]
    if phi is None:
        phis = rng.uniform(0.0, TWO_PI, size=n)
    else:
        phis = np.full(n, float(phi))
    rng.standard_normal(out=noise)
    np.multiply(1j, phis, out=rot)
    np.exp(rot, out=rot)
    noise *= sigma
    return phis, rot, noise


def _sample_into(
    X: np.ndarray,
    config: SystemConfig,
    rng: np.random.Generator,
    work: _Workspace,
    draws: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """sample_blocks for checked symbols X (n, L), in work's buffers.

    draws is (phases, rotations, scaled noise) as _draw_into made them
    from rng, and the noise (2, n, L) is overwritten. Z is the buffer "Z"
    of work and "t0" and "t1" hold (n, L) temporaries, so callers may reuse
    the noise, the rotations, "t0" and "t1" once it returns (the phases it
    returns are their own array). rng makes only the zero-sample redraws
    after the draws. It computes, in real arithmetic and in place,
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
    phis, rot, noise = draws
    ta = work.buffer("t0", (n, L))
    tb = work.buffer("t1", (n, L))
    Z = work.buffer("Z", (n, L), np.int64)
    yr, yi = noise
    er, ei = rot.real[:, None], rot.imag[:, None]
    np.add(X, M * np.arange(L), out=Z)
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

    phi overrides the uniform block phase when given (test hook; it must be
    finite); the noise is always drawn from rng. Zero received samples
    (probability zero, no phase) trigger a redraw of the affected noise
    entries.

    The draws are the block phases, then the real and the imaginary noise
    parts of all n*L samples, then the redraws in np.nonzero order. The
    noise is one standard_normal draw into a (2, n, L) array: the same
    stream as one (n, L) draw of real parts followed by one of imaginary
    parts.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be an (n, L) array of symbols (got shape {X.shape})")
    X = _check_indices(X, "X", config.L, config.M, "M", stacked=True)
    if phi is not None and not math.isfinite(phi):
        raise ValueError(f"phi must be finite (got {phi})")
    work = _Workspace()
    noise = work.buffer("noise", (2, *X.shape))
    rot = work.buffer("rot", (len(X),), np.complex128)
    return _sample_into(X, config, rng, work, _draw_into(rng, phi, config.sigma, noise, rot))
