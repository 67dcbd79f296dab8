"""Equivalence-class enumeration: output orbits and grouped input classes."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseq
from phaseq import combinatorics
from phaseq.cli import main
from phaseq.core import _distinct_rows, _RowMemo
from phaseq.combinatorics import (
    _bracelet_rows,
    canonical_output_classes,
    grouped_input_classes,
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

        # L = 25: (L-1)! passes int64, so the multiplicities are Python ints;
        # L = 60: they pass 2^53, so float() rounds them
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
