"""Equivalence-class enumeration: output orbits and grouped input classes."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phaseq
from phaseq import combinatorics
from phaseq.cli import main
from phaseq.core import _distinct_rows, _RowMemo
from phaseq.combinatorics import (
    _bracelet_rows,
    canonical_output_classes,
    grouped_input_classes,
    input_class_arrays,
    input_class_count,
    output_class_arrays,
)


def brute_class_buckets(alphabet: int, L: int) -> dict[tuple, int]:
    """Bucket all of Z_alphabet^L by anchored form: subtract z_0, sort the tail.

    This is the partition the entropy sums walk: each bucket holds exactly
    alphabet * multiplicity raw vectors.
    """
    buckets: dict[tuple, int] = {}
    for z in product(range(alphabet), repeat=L):
        key = (0,) + tuple(sorted((v - z[0]) % alphabet for v in z[1:]))
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


def loop_input_classes(z, M: int) -> list[tuple[tuple[int, ...], int]]:
    """The input classes of z, one Python loop over the per-group multisets:
    (representative, weight) in lexicographic order of the representative,
    each weight the product of its groups' multinomial counts."""
    z = [int(v) for v in z]
    groups = [[i for i, v in enumerate(z) if v == value] for value in sorted(set(z))]
    classes = []
    choices = [combinations_with_replacement(range(M), len(g)) for g in groups]
    for pick in product(*choices):
        rep = [0] * len(z)
        weight = 1
        for positions, multiset in zip(groups, pick):
            for i, v in zip(positions, multiset):
                rep[i] = v
            weight *= factorial(len(multiset))
            for v in set(multiset):
                weight //= factorial(multiset.count(v))
        classes.append((tuple(rep), weight))
    classes.sort()
    return classes


class TestOutputClasses:
    def test_count_formula(self):
        # orbits with first symbol pinned to 0: multiset of L-1 differences
        for alphabet, L in [(8, 2), (8, 3), (12, 2), (2, 8), (3, 3), (64, 2)]:
            classes = canonical_output_classes(alphabet, L)
            assert len(classes) == comb(alphabet + L - 2, L - 1)

    def test_class_count_limit(self, monkeypatch):
        # the count is C(alphabet + L - 2, L - 1), checked before allocating:
        # K=64 at L=6 and K=32 at L=8 fit the limit, K=64 at L=7 and 8 do not
        assert comb(64 + 6 - 2, 5) <= combinatorics._MAX_CLASSES
        assert comb(32 + 8 - 2, 7) <= combinatorics._MAX_CLASSES
        for L in (7, 8):
            with pytest.raises(ValueError, match="enumeration limit"):
                output_class_arrays(64, L)
        monkeypatch.setattr(combinatorics, "_MAX_CLASSES", 120)
        assert len(output_class_arrays(8, 4)[0]) == 120
        with pytest.raises(ValueError, match="330 canonical classes"):
            output_class_arrays(8, 5)

    def test_reference_cardinalities(self):
        expected = {3: 36, 4: 120, 5: 330, 6: 792, 7: 1716}
        for L, n in expected.items():
            assert len(canonical_output_classes(8, L)) == n

    def test_l2_k8_all_multiplicity_one_or_two(self):
        # L=2 reps are (0, d); d and alphabet-d give the same sorted diffs
        classes = canonical_output_classes(8, 2)
        assert len(classes) == 8
        for c in classes:
            assert c.representative[0] == 0
            assert c.multiplicity in (1, 2)

    def test_multiplicity_matches_permutation_count(self):
        classes = canonical_output_classes(4, 4)
        by_rep = {c.representative: c.multiplicity for c in classes}
        rep = (0, 1, 1, 2)
        assert rep in by_rep
        # multiplicity = distinct orderings of the tail (anchor position fixed)
        assert by_rep[rep] == len(set(permutations(rep[1:])))
        for c in classes:
            assert c.multiplicity == len(set(permutations(c.representative[1:])))

    def test_conservation_of_total_count(self):
        # every z in Z_K^L lies in exactly one orbit of size K * multiplicity
        for alphabet, L in [(8, 3), (4, 4), (12, 2), (3, 5)]:
            classes = canonical_output_classes(alphabet, L)
            total = alphabet * sum(c.multiplicity for c in classes)
            assert total == alphabet**L

    def test_class_soundness_by_full_enumeration(self):
        for alphabet, L in [(4, 3), (8, 2), (5, 3), (8, 3)]:
            classes = canonical_output_classes(alphabet, L)
            buckets = brute_class_buckets(alphabet, L)
            assert len(classes) == len(buckets)
            for c in classes:
                assert buckets[c.representative] == alphabet * c.multiplicity

    def test_representatives_sorted_and_lex_deterministic(self):
        classes = canonical_output_classes(8, 3)
        reps = [c.representative for c in classes]
        for rep in reps:
            assert rep[0] == 0
            assert list(rep) == sorted(rep)
        assert reps == sorted(reps)
        again = [c.representative for c in canonical_output_classes(8, 3)]
        assert reps == again

    def test_residue_alphabet_cases(self):
        # a=2: residue patterns are multisets over {0,1}
        reps2 = [c.representative for c in canonical_output_classes(2, 2)]
        assert reps2 == [(0, 0), (0, 1)]
        assert len(canonical_output_classes(2, 8)) == 8
        classes33 = canonical_output_classes(3, 3)
        assert len(classes33) == 6
        assert len(classes33) == len(brute_class_buckets(3, 3))

    def test_class_arrays_match_loop_reference(self):
        def reference(alphabet, L):
            reps, mults = [], []
            for tail in combinations_with_replacement(range(alphabet), L - 1):
                denom = 1
                for v in range(alphabet):
                    denom *= factorial(tail.count(v))
                reps.append((0,) + tail)
                mults.append(factorial(L - 1) // denom)
            return reps, mults

        # L = 25 and 60: (L-1)! passes int64 but alphabet**(L-1) does not, so
        # the multiplicities are int64; L = 60: they pass 2^53, so float()
        # rounds them
        cases = [(a, L) for a in range(1, 7) for L in range(1, 8)]
        cases += [(2, 25), (3, 25), (2, 60)]
        for alphabet, L in cases:
            reps, mults = output_class_arrays(alphabet, L)
            want_reps, want_mults = reference(alphabet, L)
            assert reps.dtype == np.int64 and reps.shape == (len(want_reps), L)
            assert [tuple(r) for r in reps.tolist()] == want_reps
            assert mults.tolist() == want_mults
            assert all(type(m) is int for m in mults.tolist())
            assert mults.astype(float).tolist() == [float(m) for m in want_mults]
            classes = canonical_output_classes(alphabet, L)
            assert [c.representative for c in classes] == want_reps
            assert [c.multiplicity for c in classes] == want_mults
            assert all(type(c.multiplicity) is int for c in classes)
        assert max(output_class_arrays(2, 60)[1]) > 2**53

    def test_validation(self):
        with pytest.raises(ValueError):
            output_class_arrays(1, 0)
        with pytest.raises(ValueError):
            canonical_output_classes(0, 2)
        with pytest.raises(ValueError):
            canonical_output_classes(8, 0)

    @pytest.mark.parametrize(
        "enumerate_classes, args, message",
        [
            (output_class_arrays, (4.0, 3), "alphabet_size must be an integer"),
            (output_class_arrays, (4, 2.5), "block_len must be an integer"),
            (canonical_output_classes, (4.0, 3), "alphabet_size must be an integer"),
        ],
        ids=["arrays-alphabet", "arrays-block_len", "dataclasses-alphabet"],
    )
    def test_sizes_must_be_integers(self, enumerate_classes, args, message):
        with pytest.raises(ValueError, match=message):
            enumerate_classes(*args)

    @pytest.mark.parametrize("A, L", [(a, L) for a in range(1, 7) for L in range(2, 9)]
                             + [(2, 30), (2, 63), (4, 61), (1, 80)])
    def test_output_classes_are_one_input_group_beside_a_zero(self, A, L):
        # the one tree builds both tables: an output class is a pinned 0
        # beside the input classes of one group of L - 1 positions (L = 1 has
        # none; test_class_arrays_match_loop_reference covers it). (2, 63):
        # int64 weights, as 2**62 fits, though 62! does not; (4, 61): Python
        # ints; (1, 80): int64, though C(79, 39) in the tree's binomial row
        # wraps it
        reps, mults = output_class_arrays(A, L)
        inputs, weights = input_class_arrays(np.zeros(L - 1, dtype=np.int64), A)
        assert (reps[:, 0] == 0).all() and np.array_equal(reps[:, 1:], inputs)
        assert mults.dtype == weights.dtype == (object if (A, L) == (4, 61) else np.int64)
        assert mults.tolist() == weights.tolist()
        if A == 2:
            assert mults.tolist() == [comb(L - 1, k) for k in range(L)]

    def test_enumeration_peak_stays_near_its_result(self):
        # one tree level is kept, not every level: the traced peak of the
        # L = 61 enumeration stays below 1.5x the rows, the weight array and
        # the Python-int weights it returns (about 1.1x; an enumeration that
        # keeps every level's arrays until the end peaks at about 1.7x)
        output_class_arrays(4, 5)
        tracemalloc.start()
        try:
            reps, mults = output_class_arrays(4, 61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = reps.nbytes + mults.nbytes + sum(map(sys.getsizeof, mults.tolist()))
        assert mults.dtype == object and peak < 1.5 * held, (peak, held)


def dihedral_key(row, period: int) -> tuple:
    """Least sorted image of a multiset of Z_period under v -> +-v + t."""
    return min(
        tuple(sorted((sign * v + t) % period for v in row))
        for sign in (1, -1)
        for t in range(period)
    )


class TestBracelets:
    @pytest.mark.parametrize(
        "alphabet, L, count", [(8, 6, 126), (12, 8, 3_260), (16, 8, 15_581)]
    )
    def test_counts_and_weights(self, alphabet, L, count):
        reps, mult = output_class_arrays(alphabet, L)
        bracelets, inverse, keys = _bracelet_rows(reps, alphabet)
        assert bracelets.shape == (count, L)
        assert inverse.shape == (len(reps),)
        # one int64 key per bracelet, ascending as core._group ranks them
        assert keys.dtype == np.int64 and keys.shape == (count,)
        assert (np.diff(keys) > 0).all()
        weight = np.bincount(inverse, weights=mult.astype(float))
        assert weight.sum() == alphabet ** (L - 1)
        assert (weight > 0).all()

    @pytest.mark.parametrize("alphabet, L", [(1, 3), (2, 5), (5, 3), (6, 5), (8, 4), (7, 1)])
    def test_groups_are_dihedral_orbits(self, alphabet, L):
        reps, _ = output_class_arrays(alphabet, L)
        bracelets, inverse, _ = _bracelet_rows(reps, alphabet)
        keys = [dihedral_key(r, alphabet) for r in bracelets.tolist()]
        assert len(set(keys)) == len(keys)
        assert len(keys) == len({dihedral_key(r, alphabet) for r in reps.tolist()})
        for row, i in zip(reps.tolist(), inverse.tolist()):
            assert dihedral_key(row, alphabet) == keys[i]
        # representatives are pinned, sorted and inside the alphabet
        assert (bracelets[:, 0] == 0).all() and (np.diff(bracelets, axis=1) >= 0).all()
        assert bracelets.max() < alphabet

    def test_key_ignores_row_order_and_repeats(self):
        # sampled rows come in any order and repeat; each orbit keeps one
        # representative whatever its members look like
        rng = np.random.default_rng(4)
        rows = np.sort(rng.integers(0, 16, size=(3_000, 6)), axis=1)
        rows = np.sort((rows - rows[:, :1]) % 16, axis=1)
        got, inverse, keys = _bracelet_rows(rows, 16)
        again, inverse_again, keys_again = _bracelet_rows(rows[::-1], 16)
        assert np.array_equal(got, again)
        assert np.array_equal(keys, keys_again)
        assert np.array_equal(got[inverse], again[inverse_again][::-1])
        for row, rep in zip(rows.tolist(), got[inverse].tolist()):
            assert dihedral_key(row, 16) == dihedral_key(rep, 16)

    def test_over_wide_rows_keep_the_distinct_row_key(self):
        # K=64 L=10 needs 7 * 10 = 70 bits per packed gap sequence
        rng = np.random.default_rng(5)
        rows = np.sort(rng.integers(0, 64, size=(500, 10)), axis=1)
        rows = np.sort((rows - rows[:, :1]) % 64, axis=1)
        rows = np.concatenate([rows, rows[:100]])
        got, inverse, keys = _bracelet_rows(rows, 64)
        want, want_inverse, want_keys = _distinct_rows(rows, 64)
        assert np.array_equal(got, want)
        assert np.array_equal(inverse, want_inverse)
        # ten base-64 digits fit one int64 word, which is the key
        assert keys.dtype == np.int64 and np.array_equal(keys, want_keys)
        # 7 * 9 = 63 bits still fit one word: a row and its mirror image
        # -v-1, pinned and sorted again, share one bracelet
        rows = rows[:200, :9]
        mirror = np.sort((-rows - 1) % 64, axis=1)
        mirror = np.sort((mirror - mirror[:, :1]) % 64, axis=1)
        both = np.concatenate([rows, mirror])
        assert len(_distinct_rows(both, 64)[0]) > len(_distinct_rows(rows, 64)[0])
        assert len(_bracelet_rows(both, 64)[0]) == len(_bracelet_rows(rows, 64)[0])


class DictMemo:
    """The dict row memo the SER lanes kept before core._RowMemo, as the
    oracle: a row's key (an int, or its words' bytes) maps to an id into a
    list of value rows. Misses are scored in call order and the first of
    them in key order are kept, until limit rows are held."""

    def __init__(self, score, limit=None):
        self.score, self.limit = score, limit
        self.ids = {}
        self.values = []

    def __call__(self, rows, keys):
        keys = keys.tolist()
        missing = [i for i, key in enumerate(keys) if key not in self.ids]
        fresh = dict(zip(missing, self.score(rows[missing]))) if missing else {}
        room = len(missing) if self.limit is None else self.limit - len(self.ids)
        for i in sorted(missing, key=keys.__getitem__)[: max(room, 0)]:
            self.ids[keys[i]] = len(self.values)
            self.values.append(fresh[i])
        return np.array([fresh[i] if i in fresh else self.values[self.ids[key]]
                         for i, key in enumerate(keys)])


class TestRowMemo:
    # (base, L): one int64 word per row, and two words (void keys), as
    # _distinct_rows packs base-4 digits 31 to a word
    @pytest.mark.parametrize("base, L, words", [(3, 5, 1), (4, 40, 2)])
    @pytest.mark.parametrize("limit", [None, 7])
    @pytest.mark.parametrize("value_rows", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), calls=st.integers(1, 6))
    def test_matches_dict_memo(self, base, L, words, limit, value_rows, seed, calls):
        # rows repeat within and across calls: each call draws from one pool
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, base, size=(int(rng.integers(1, 30)), L))
        weights = rng.standard_normal(L)
        scored = []

        def score(rows):
            scored.extend(map(tuple, rows.tolist()))
            # row-local, column by column: floats, or int64 value rows
            if value_rows:
                return np.concatenate([rows, rows.sum(axis=1, keepdims=True)], axis=1)
            acc = np.zeros(len(rows))
            for column, w in zip(rows.T, weights):
                acc += column * w
            return np.sin(acc)

        memo, oracle = _RowMemo(score, limit), DictMemo(score, limit)
        for _ in range(calls):
            batch = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 40)))]
            rows, _, keys = _distinct_rows(batch, base)
            assert keys.dtype == (np.int64 if words == 1 else np.dtype((np.void, 8 * words)))
            held = set(oracle.ids)
            misses = [tuple(r) for r, k in zip(rows.tolist(), keys.tolist()) if k not in held]
            scored.clear()
            want = oracle(rows, keys)
            scored.clear()
            got = memo(rows, keys)
            # only the rows not held are scored, each once
            assert scored == misses
            scored.clear()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.tobytes() == score(rows).tobytes()
            # held keys are strictly ascending, and the first met are kept
            held = memo.keys.tolist()
            assert all(lo < hi for lo, hi in zip(held, held[1:]))
            assert set(held) == set(oracle.ids)
            assert len(held) <= (limit or len(pool))
            assert memo.values.tobytes() == np.array(
                [oracle.values[oracle.ids[k]] for k in held]).tobytes()


class TestInputClasses:
    def test_distinct_residues_give_singletons(self):
        # L=2, z=[0,1]: both residues distinct, so every input is its own class
        classes = grouped_input_classes(np.array([0, 1]), M=4)
        assert len(classes) == 16
        assert all(c.weight == 1 for c in classes)

    def test_repeated_residue_weights_are_multinomial(self):
        # M=2, z=[0,0,0]: one residue group of size 3; weights follow C(3, k)
        classes = grouped_input_classes(np.array([0, 0, 0]), M=2)
        weights = sorted(c.weight for c in classes)
        assert weights == [1, 1, 3, 3]
        assert sum(weights) == 2**3

    def test_count_formula_product_of_combinations(self):
        # per residue group of size n: C(M+n-1, n) multisets
        z = np.array([0, 1, 0, 1, 1])
        M = 4
        classes = grouped_input_classes(z, M)
        sizes = [3, 2]
        expected = 1
        for n in sizes:
            expected *= comb(M + n - 1, n)
        assert len(classes) == expected
        assert input_class_count(z, M) == expected
        assert sum(c.weight for c in classes) == M ** len(z)

    def test_worst_case_q_count(self):
        # M=4, L=8, a=2: the even split (4,4) maximizes the class count
        worst = max(
            input_class_count(np.array(c.representative), 4)
            for c in canonical_output_classes(2, 8)
        )
        assert worst == 1225

    def test_class_limit_is_refused_before_enumerating(self, monkeypatch):
        # at the limit the classes are built, one past it none is
        monkeypatch.setattr(combinatorics, "_MAX_INPUT_CLASSES", 20)
        assert len(grouped_input_classes(np.zeros(3, dtype=np.int64), M=4)) == 20
        with pytest.raises(ValueError, match="35 input classes are above the limit of 20"):
            grouped_input_classes(np.zeros(3, dtype=np.int64), M=5)
        monkeypatch.undo()
        # M=16 at L=12 has 17,383,860 classes and L=20 about 3.2e9, many GB
        # of objects: a child under a timeout and a 2 GiB address-space
        # limit must refuse both at once
        code = (
            "import numpy as np\n"
            "from phaseq.combinatorics import grouped_input_classes\n"
            "for L in (12, 20):\n"
            "    try:\n"
            "        grouped_input_classes(np.zeros(L, dtype=np.int64), 16)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(phaseq.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 2 and all("limit of 1048576" in line for line in lines)
        assert lines[0].startswith("17383860 input classes")

    def test_weights_count_actual_inputs(self):
        # enumerate all M^L inputs and bucket by per-group sorted symbols
        z = np.array([1, 0, 1])
        M = 3
        classes = grouped_input_classes(z, M)
        groups: dict[tuple, int] = {}
        residues = [int(v) for v in z]
        order = sorted(set(residues))
        for x in product(range(M), repeat=3):
            key = tuple(
                tuple(sorted(x[i] for i in range(3) if residues[i] == r))
                for r in order
            )
            groups[key] = groups.get(key, 0) + 1
        assert len(classes) == len(groups)
        assert sorted(c.weight for c in classes) == sorted(groups.values())

    @settings(max_examples=60, deadline=None)
    @given(
        z=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        M=st.sampled_from([2, 3, 4, 8]),
    )
    def test_arrays_match_the_loop(self, z, M):
        # order, representatives and exact weights, through the arrays and
        # through their dataclass wrapper; up to M=8's one group of 8
        assume(input_class_count(z, M) <= comb(8 + 8 - 1, 8))
        want = loop_input_classes(z, M)
        reps, weights = input_class_arrays(np.array(z), M)
        assert weights.dtype == np.int64
        assert reps.shape == (len(want), len(z))
        assert list(zip(map(tuple, reps.tolist()), weights.tolist())) == want
        classes = grouped_input_classes(np.array(z), M)
        assert [(c.representative, c.weight) for c in classes] == want
        assert all(type(c.weight) is int for c in classes)

    def test_weights_past_int64_are_python_ints(self):
        # M=2, four interleaved groups of 20: 21^4 classes whose weights
        # prod_g C(20, ones in g) sum to 2**80, past int64
        z = np.arange(80) % 4
        reps, weights = input_class_arrays(z, 2)
        assert reps.shape == (21**4, 80) and weights.dtype == object
        assert all(type(w) is int for w in weights.tolist())
        assert sum(weights.tolist()) == 2**80
        ones = [reps[:, g::4].sum(axis=1).tolist() for g in range(4)]
        assert weights.tolist() == [
            comb(20, a) * comb(20, b) * comb(20, c) * comb(20, d) for a, b, c, d in zip(*ones)
        ]
        # rows strictly ascending: at each pair's first differing column
        # the later row is larger
        differ = reps[1:] != reps[:-1]
        first = np.argmax(differ, axis=1)
        rows = np.arange(len(first))
        assert differ.any(axis=1).all()
        assert (reps[1:][rows, first] > reps[:-1][rows, first]).all()

    def test_z_must_be_a_nonempty_vector(self):
        for z in (np.zeros((2, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)):
            with pytest.raises(ValueError, match="nonempty vector"):
                input_class_arrays(z, 4)

    @pytest.mark.parametrize("count", [False, True], ids=["arrays", "count"])
    @pytest.mark.parametrize(
        "z, M, message",
        [
            ([0, 0], 2.0, "M must be an integer"),
            ([0, 0], 0, "M must be at least 1"),
            ([0.5, 1], 2, "nonempty vector of integers"),
            ([np.nan, 1], 2, "nonempty vector of integers"),
            ([np.inf, 1], 2, "nonempty vector of integers"),
            (["a"], 2, "nonempty vector of integers"),
            ([[0, 1]], 2, "nonempty vector of integers"),
        ],
        ids=["float-M", "zero-M", "fractional-z", "nan-z", "inf-z", "text-z", "matrix-z"],
    )
    def test_bad_arguments_are_refused_by_name(self, z, M, message, count):
        # a fractional z is not truncated into another output, and M is
        # neither coerced from a float nor blamed on the output enumerator
        with pytest.raises(ValueError, match=message):
            (input_class_count if count else input_class_arrays)(z, M)

    def test_integral_float_z_is_taken(self):
        reps, weights = input_class_arrays([0.0, 1.0, 0.0], 2)
        assert input_class_count([0.0, 1.0, 0.0], 2) == len(reps) == 6
        assert weights.tolist() == [w for _, w in loop_input_classes([0, 1, 0], 2)]


class TestCsvExports:
    """The class tables as the ``tables`` command writes them."""

    def test_output_classes_roundtrip(self, tmp_path):
        classes = canonical_output_classes(8, 3)
        assert main(["tables", "--M", "4", "--K", "8", "--L", "3", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "canonical_output_classes.csv").read_text().strip().splitlines()
        assert lines[0] == "representative,multiplicity"
        assert len(lines) == len(classes) + 1
        rep, mult = lines[1].split(",")
        assert tuple(int(v) for v in rep.split()) == classes[0].representative
        assert int(mult) == classes[0].multiplicity

    def test_input_classes_export(self, tmp_path):
        classes = grouped_input_classes(np.array([0, 0, 0]), M=4)
        assert main(["tables", "--M", "4", "--K", "8", "--L", "3", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "input_classes.csv").read_text().strip().splitlines()
        assert lines[0] == "representative,weight"
        assert len(lines) == len(classes) + 1
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 4**3


@settings(max_examples=40, deadline=None)
@given(alphabet=st.integers(2, 6), L=st.integers(1, 5))
def test_conservation_property(alphabet, L):
    classes = canonical_output_classes(alphabet, L)
    assert alphabet * sum(c.multiplicity for c in classes) == alphabet**L
    assert len(classes) == comb(alphabet + L - 2, L - 1)
