"""Canonical enumeration of output and input equivalence classes.

Block probabilities are invariant under position permutations, under adding a
constant to every output sector, and under reducing outputs modulo a = K/M.
Entropy sums therefore only need one representative per equivalence class,
weighted by the class size. Representatives are canonicalized as: first
component pinned to 0, remaining components sorted nondecreasing; the number
of distinct blocks sharing a representative is the multinomial permutation
count of the free positions. output_class_arrays enumerates them as integer
arrays, built one position at a time in lexicographic order, which is what
the capacity sums, the tables command and the verify suite read;
canonical_output_classes wraps the same arrays in one dataclass per class
for the benchmark.

Inputs that permute within groups of equal output values give equal
conditional probabilities, so an M^L input average can collapse to per-group
multisets with multinomial weights (grouped_input_classes). Only the tables
command, the verify suite and the benchmark enumerate these input classes;
the capacity sums average inputs through a per-symbol table instead. The
module writes no file: the command line formats the CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np


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


def _multiset_permutations(counts) -> int:
    total = sum(counts)
    denom = 1
    for c in counts:
        denom *= math.factorial(c)
    return math.factorial(total) // denom


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
    """
    if alphabet_size < 1 or block_len < 1:
        raise ValueError("alphabet_size and block_len must be positive")
    n_free = block_len - 1
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


def grouped_input_classes(z, M: int) -> list[InputClass]:
    """Input classes for a fixed reduced output z (components in 0..a-1).

    Positions are grouped by output value; within a group, input permutations
    leave P(z | x) unchanged. A class representative carries each group's
    input multiset sorted ascending in position order; its weight counts the
    distinct arrangements. The class count is prod_i C(M + n_i - 1, n_i).
    """
    z = np.asarray(z, dtype=np.int64)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("z must be a nonempty vector")
    values = sorted(set(int(v) for v in z))
    groups = [np.nonzero(z == v)[0] for v in values]

    classes = []
    choices = [combinations_with_replacement(range(M), len(g)) for g in groups]
    for pick in product(*choices):
        rep = np.empty(z.size, dtype=np.int64)
        weight = 1
        for positions, multiset in zip(groups, pick):
            rep[positions] = multiset
            counts = [0] * M
            for v in multiset:
                counts[v] += 1
            weight *= _multiset_permutations(counts)
        classes.append(InputClass(representative=tuple(int(v) for v in rep), weight=weight))
    classes.sort(key=lambda c: c.representative)
    return classes


def input_class_count(z, M: int) -> int:
    """Number of input classes for reduced output z, without enumerating."""
    z = np.asarray(z, dtype=np.int64)
    total = 1
    for v in set(int(v) for v in z):
        n = int((z == v).sum())
        total *= math.comb(M + n - 1, n)
    return total
