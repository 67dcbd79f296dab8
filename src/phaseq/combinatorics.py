"""Canonical enumeration of output and input equivalence classes.

Block probabilities are invariant under position permutations, under adding a
constant to every output sector, and under reducing outputs modulo a = K/M.
Entropy sums therefore only need one representative per equivalence class,
weighted by the class size. Representatives are canonicalized as: first
component pinned to 0, remaining components sorted nondecreasing; the number
of distinct blocks sharing a representative is the multinomial permutation
count of the free positions. output_class_arrays enumerates them as integer
arrays in lexicographic order, which the tables command and the verify suite
read as the paper's class counts; canonical_output_classes wraps the same
arrays in one dataclass per class for the benchmark.

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
conditional probabilities, so an M^L input average collapses to per-group
multisets with multinomial weights (input_class_arrays). An output class is
one such group beside the pinned 0, and one tree (_class_tree) builds both
tables, keeping one level; weights are int64 while min(n!, alphabet**n) <
2**63 for n free positions. Only the tables command, the verify suite and the
benchmark enumerate input classes; the capacity sums average inputs through a
per-symbol table instead. The module writes no file: the CLI formats the CSVs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import _as_int, _distinct_rows, _group


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
# and input_class_arrays more than this before building one: at 130-200 bytes
# and 0.1 us a class (M=16 L=8, M=6 L=16), 2**20 take 0.2 GB and 0.1 s.
_MAX_INPUT_CLASSES = 2**20


def _class_tree(labels: list, alphabet: int, lead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows of symbols 0..alphabet-1 at n positions, nondecreasing within each
    group of equal labels, in lexicographic order (the transpose of the
    (lead + n, count) array filled, first lead columns 0; callers bound
    count), and each row's weight, prod over groups of n_g! / prod_v c_v!.

    One level of the tree is kept. A node holds its weight and, per group
    begun and not finished, its last value and that value's run; its children
    take each value from there up (Knuth, TAOCP 4A, 7.2.1.3). A node heads
    prod over groups of C(alphabet - v + r - 1, r) leaves, v its last value
    (0 before the group begins) and r the positions left, so a column is its
    level's values each repeated that often. A weight takes C(s, c) as each
    run of c positions closes at its group's s-th, so no product passes the
    row's weight: int64 while min(n!, alphabet**n) < 2**63, else Python ints.
    """
    n, left = len(labels), Counter(labels)
    # completions[r, v] = C(alphabet - v + r - 1, r), by Pascal's rule
    completions = np.ones((max(left.values(), default=0) + 1, alphabet), dtype=np.int64)
    for r in range(1, len(completions)):
        np.add.accumulate(completions[r - 1, ::-1], out=completions[r, ::-1])
    columns = np.zeros((lead + n, math.prod(completions[list(left.values()), 0])), dtype=np.int64)
    exact = np.int64 if min(math.factorial(n), alphabet**n) < 2**63 else object
    weight = np.ones(1, dtype=exact)
    # C(s, c) for the s positions of group g placed; no entry read wraps int64
    binomials = {g: np.eye(1, size + 1, dtype=exact)[0] for g, size in left.items()}
    # each node's (last value, run length) in each group not finished
    begun = {g: (np.zeros(1, dtype=np.int64),) * 2 for g in left}
    for column, g in zip(columns[lead:], labels):
        last, run = begun.pop(g)
        width = alphabet - last
        ends = np.add.accumulate(width)
        parent = np.repeat(np.arange(len(width)), width)
        value = np.arange(ends[-1]) - (ends - alphabet)[parent]
        # each node's first child continues its run; the others close it
        child_run = np.ones(ends[-1], dtype=np.int64)
        child_run[ends - width] += run
        weight = weight[parent]
        opens = np.flatnonzero(child_run == 1)
        weight[opens] *= binomials[g][run[parent[opens]]]
        binomials[g][1:] += binomials[g][:-1]
        left[g] -= 1
        begun = {h: (v[parent], r[parent]) for h, (v, r) in begun.items()}
        if left[g]:
            begun[g] = (value, child_run)
        else:
            weight *= binomials[g][child_run]
        column[:] = np.repeat(value, math.prod(completions[left[h], begun[h][0]] for h in begun))
    return columns.T, weight


def output_class_arrays(alphabet_size: int, block_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical output classes as arrays: (representatives, multiplicities).

    Representatives are an (n, block_len) int64 array in lexicographic order,
    n = C(alphabet_size + block_len - 2, block_len - 1): a 0 beside the rows
    of _class_tree over one group of block_len - 1 positions, whose weights,
    (block_len-1)! / prod_v c_v!, are the multiplicities. More than
    _MAX_CLASSES classes raise ValueError before any allocation.
    """
    alphabet_size = _as_int(alphabet_size, "alphabet_size")
    block_len = _as_int(block_len, "block_len")
    if alphabet_size < 1 or block_len < 1:
        raise ValueError("alphabet_size and block_len must be positive")
    n_classes = math.comb(alphabet_size + block_len - 2, block_len - 1)
    if n_classes > _MAX_CLASSES:
        raise ValueError(
            f"{n_classes} canonical classes of blocks of {block_len} symbols in"
            f" 0..{alphabet_size - 1} are above the enumeration limit of {_MAX_CLASSES}"
        )
    return _class_tree([0] * (block_len - 1), alphabet_size, lead=1)


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
    """All canonical output classes for blocks of block_len symbols, one
    dataclass per row of output_class_arrays, in its order."""
    reps, mult = output_class_arrays(alphabet_size, block_len)
    return [
        CanonicalOutputClass(representative=tuple(r), multiplicity=m)
        for r, m in zip(reps.tolist(), mult.tolist())
    ]


def input_class_arrays(z, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Input classes for a fixed reduced output z: (representatives, weights).

    Within a group of positions of equal output, input permutations leave
    P(z | x) unchanged, so a class is an input sorted within each group,
    weighted by the product of its groups' multinomial counts: _class_tree's
    rows, in lexicographic order, int64 weights while min(L!, M**L) fits it.
    Above _MAX_INPUT_CLASSES classes it raises ValueError before building any.
    """
    n_classes = input_class_count(z, M)
    if n_classes > _MAX_INPUT_CLASSES:
        raise ValueError(f"{n_classes} input classes are above the limit of {_MAX_INPUT_CLASSES}")
    return _class_tree(np.asarray(z).tolist(), int(M))


def grouped_input_classes(z, M: int) -> list[InputClass]:
    """Input classes for a fixed reduced output z, one per input_class_arrays row."""
    reps, weights = input_class_arrays(z, M)
    return [InputClass(tuple(r), w) for r, w in zip(reps.tolist(), weights.tolist())]


def input_class_count(z, M: int) -> int:
    """Number of input classes for reduced output z, prod_i C(M + n_i - 1,
    n_i) over its groups, without enumerating; ValueError unless z is a
    nonempty vector of finite integral values and M a positive integer."""
    M = _as_int(M, "M")
    if M < 1:
        raise ValueError(f"M must be at least 1 (got {M})")
    z = np.asarray(z)
    integral = z.dtype.kind in "biuf" and np.all(np.isfinite(z) & (z == np.floor(z)))
    if z.ndim != 1 or z.size < 1 or not integral:
        raise ValueError("z must be a nonempty vector of integers")
    return math.prod(math.comb(M + n - 1, n) for n in Counter(z.tolist()).values())
