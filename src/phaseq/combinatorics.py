"""Canonical enumeration of output and input equivalence classes.

Block probabilities are invariant under position permutations, under adding a
constant to every output sector, and under reducing outputs modulo a = K/M.
Entropy sums therefore only need one representative per equivalence class,
weighted by the class size. Representatives are canonicalized as: first
component pinned to 0, remaining components sorted nondecreasing; the number
of distinct blocks sharing a representative is the multinomial permutation
count of the free positions. output_class_arrays enumerates them as integer
arrays, built one position at a time in lexicographic order, which is what
the tables command and the verify suite read as the paper's class counts;
canonical_output_classes wraps the same arrays in one dataclass per class
for the benchmark.

Undithered blocks have two more symmetries. Pinning subtracts z_0 only, so
the same multiset of points on Z_K pinned at another of its values is
another class: a rotation of the multiset's cyclic gap sequence. And the
offset density is even, so the reflection z -> -z-1 (with x -> -x) keeps
P(z | x) up to the phase grid rule's accuracy; it reverses the gaps.
_bracelet_rows merges pinned rows that differ by either into one bracelet,
keyed by one int64, the least rotation of the gaps or of their reversal,
and grouped by core._group. The capacity sums group output_class_arrays by
it: 126 bracelets instead of 792 classes at K=8 L=6, 3,260 instead of
31,824 at K=12 L=8, 15,581 instead of 170,544 at K=16 L=8 and 36,822
instead of 376,992 at K=32 L=6.

Inputs that permute within groups of equal output values give equal
conditional probabilities, so an M^L input average can collapse to per-group
multisets with multinomial weights: the tails of output_class_arrays(M, n + 1)
for a group of n positions, combined by input_class_arrays. Only the tables
command, the verify suite and the benchmark enumerate input classes; the
capacity sums average inputs through a per-symbol table instead. The module
writes no file: the command line formats the CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _distinct_rows, _group, _row_words


@dataclass(frozen=True)
class CanonicalOutputClass:
    """One output equivalence class.

    representative: canonical block (first component 0, tail nondecreasing)
    multiplicity:   distinct arrangements of the free positions,
                    (L-1)! / prod(c_v!) with c_v the occurrences of symbol v
                    among the L-1 free positions
    """

    representative: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class InputClass:
    """One input equivalence class for a fixed reduced output block.

    representative: canonical input (sorted within each equal-output group)
    weight:         number of distinct inputs in the class,
                    prod over groups of n_i! / prod_j r_ij!
    """

    representative: tuple[int, ...]
    weight: int


# output_class_arrays refuses more classes than this before it allocates:
# 2**24 (16.8M) rows admit K=64 at L=6 (10.4M classes) and K=32 at L=8
# (12.6M), while K=64 at L=7 (1.2e8) would need about 6.7 GB of int64
# representatives and L=8 (1.2e9) 77 GB.
_MAX_CLASSES = 2**24
# and input_class_arrays more than this before building one: at 140-210 bytes
# and 0.2-0.4 us a class (M=16 L=8, M=6 L=16), 2**20 take 0.2 GB and 0.5 s.
_MAX_INPUT_CLASSES = 2**20


def output_class_arrays(alphabet_size: int, block_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical output classes as arrays: (representatives, multiplicities).

    Representatives are an (n, block_len) int64 array in lexicographic order,
    n = C(alphabet_size + block_len - 2, block_len - 1), first column 0. The
    tails are built one position at a time: each tail of the previous level
    is repeated once per symbol from its last value up, which keeps the order
    of combinations_with_replacement. A multiplicity is
    (block_len-1)! / prod_v c_v!, with prod_v c_v! built along the way from
    the run length of the last symbol. The multiplicities are exact integers:
    int64 while (block_len-1)! fits it, Python ints (dtype object) beyond.
    More than _MAX_CLASSES classes raise ValueError before any allocation.
    """
    if alphabet_size < 1 or block_len < 1:
        raise ValueError("alphabet_size and block_len must be positive")
    n_free = block_len - 1
    n_classes = math.comb(alphabet_size + n_free - 1, n_free)
    if n_classes > _MAX_CLASSES:
        raise ValueError(
            f"{n_classes} canonical classes of blocks of {block_len} symbols in"
            f" 0..{alphabet_size - 1} are above the enumeration limit of {_MAX_CLASSES}"
        )
    total = math.factorial(n_free)
    exact = np.int64 if total < 2**63 else object
    last = np.zeros(1, dtype=np.int64)
    run = np.zeros(1, dtype=np.int64)
    denom = np.ones(1, dtype=exact)
    levels = []
    for _ in range(n_free):
        width = alphabet_size - last
        parent = np.repeat(np.arange(last.size), width)
        starts = np.cumsum(width) - width
        value = np.arange(parent.size) - (starts - last)[parent]
        run = np.where(value == last[parent], run[parent] + 1, 1)
        denom = denom[parent] * run
        levels.append((parent, value))
        last = value
    reps = np.zeros((last.size, block_len), dtype=np.int64)
    row = np.arange(last.size)
    for l in range(n_free, 0, -1):
        parent, value = levels[l - 1]
        reps[:, l] = value[row]
        row = parent[row]
    return reps, total // denom


def _bracelet_rows(rows: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct bracelets of pinned sorted rows over Z_period, the index of
    each input row among them, and each bracelet's key.

    rows are (n, L) with first column 0 and tails nondecreasing in
    0..period-1. A row's cyclic gap sequence is v_{k+1} - v_k, closed by
    period - v_{L-1}; rotating the gaps moves another entry to 0, reversing
    them maps v to -v-1. A row's key is the least of the L rotations of its
    gaps and of their reversal, each packed into one int64 word of
    period.bit_length() bits per gap, first gap most significant, so that
    word order is lexicographic order. core._group ranks the keys, and each
    distinct key, read at one of its rows, is decoded into a representative
    (0, g_0, g_0+g_1, ...). Rows whose L gaps need more than 63 bits are
    ranked as plain rows of digits 0..period-1 by _distinct_rows, whose
    keys they take. Either way, equal (period, L) give equal rows equal keys.
    """
    rows = np.asarray(rows)
    n, L = rows.shape
    bits = int(period).bit_length()
    if bits * L > 63:
        return _distinct_rows(rows, period)
    # one column of gaps at a time, so that no (n, L) temporary is made
    step = np.uint64(bits)
    ahead = np.zeros(n, dtype=np.uint64)
    back = np.zeros(n, dtype=np.uint64)
    for k in range(L):
        gap = ((rows[:, k + 1] if k + 1 < L else period) - rows[:, k]).astype(np.uint64)
        ahead <<= step
        ahead |= gap
        gap <<= step * np.uint64(k)
        back |= gap
    key = np.minimum(ahead, back)
    mask = np.uint64(2 ** (bits * L) - 1)
    top = step * np.uint64(L - 1)
    for _ in range(L - 1):
        for word in (ahead, back):
            high = word >> top
            word <<= step
            word &= mask
            word |= high
            np.minimum(key, word, out=key)
    ahead = back = word = gap = high = None  # free the planes before _group
    index, inverse, _ = _group(key.view(np.int64)[None], int(mask))
    keys = key.view(np.int64)[index]
    tails = (keys[:, None] >> (bits * np.arange(L - 1, 0, -1))) & (2**bits - 1)
    reps = np.zeros((index.size, L), dtype=np.int64)
    np.cumsum(tails, axis=1, out=reps[:, 1:])
    return reps, inverse, keys


def canonical_output_classes(alphabet_size: int, block_len: int) -> list[CanonicalOutputClass]:
    """All canonical output classes for blocks of block_len symbols.

    There are C(alphabet_size + block_len - 2, block_len - 1) classes,
    enumerated in lexicographic order of the representative; one dataclass
    per row of output_class_arrays.
    """
    reps, mult = output_class_arrays(alphabet_size, block_len)
    return [
        CanonicalOutputClass(representative=tuple(r), multiplicity=m)
        for r, m in zip(reps.tolist(), mult.tolist())
    ]


def input_class_arrays(z, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Input classes for a fixed reduced output z: (representatives, weights).

    Within a group of positions of equal output, input permutations leave
    P(z | x) unchanged. A group of n positions takes the tails of
    output_class_arrays(M, n + 1), its sorted multisets, with their
    multiplicities as weights; one index grid combines the groups, a weight
    being the product of its groups'. The (n_classes, L) representatives are
    in lexicographic order, as one group's table already is. Weights are
    exact: int64 while M**L fits it, Python ints (dtype object) beyond. The
    class count is prod_i C(M + n_i - 1, n_i); above _MAX_INPUT_CLASSES it
    raises ValueError before building any.
    """
    z = np.asarray(z, dtype=np.int64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("z must be a nonempty vector")
    n_classes = input_class_count(z, M)
    if n_classes > _MAX_INPUT_CLASSES:
        raise ValueError(f"{n_classes} input classes are above the limit of {_MAX_INPUT_CLASSES}")
    exact = np.int64 if int(M) ** z.size < 2**63 else object
    groups = [np.nonzero(z == v)[0] for v in np.unique(z)]
    tables = [output_class_arrays(M, positions.size + 1) for positions in groups]
    if len(groups) == 1:
        reps, weights = tables[0]
        return reps[:, 1:], weights.astype(exact, copy=False)
    grid = np.indices([len(reps) for reps, _ in tables]).reshape(len(tables), -1)
    # built and sorted one contiguous column at a time, in place (the rows
    # are distinct), so that no second (n_classes, L) array is made
    columns = np.empty((z.size, n_classes), dtype=np.int64)
    weights = np.ones(n_classes, dtype=exact)
    for positions, (reps, mults), pick in zip(groups, tables, grid):
        columns[positions] = reps.T[1:, pick]
        weights *= mults.astype(exact, copy=False)[pick]
    index = _group(*_row_words(columns.T, M))[0]
    for column in columns:
        column[:] = column[index]
    return columns.T, weights[index]


def grouped_input_classes(z, M: int) -> list[InputClass]:
    """Input classes for a fixed reduced output z (components in 0..a-1),
    one dataclass per row of input_class_arrays."""
    reps, weights = input_class_arrays(z, M)
    return [InputClass(tuple(r), w) for r, w in zip(reps.tolist(), weights.tolist())]


def input_class_count(z, M: int) -> int:
    """Number of input classes for reduced output z, without enumerating."""
    z = np.asarray(z, dtype=np.int64)
    total = 1
    for v in set(int(v) for v in z):
        n = int((z == v).sum())
        total *= math.comb(M + n - 1, n)
    return total
