"""Equivalence-class enumeration: output orbits and grouped input classes."""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseq import (
    canonical_output_classes,
    export_input_classes_csv,
    export_output_classes_csv,
    grouped_input_classes,
    input_class_count,
    output_class_count,
)
from phaseq.combinatorics import output_class_arrays


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
            assert output_class_count(alphabet, L) == len(classes)

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
    def test_output_classes_roundtrip(self, tmp_path):
        classes = canonical_output_classes(8, 3)
        path = tmp_path / "classes.csv"
        export_output_classes_csv(classes, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "representative,multiplicity"
        assert len(lines) == len(classes) + 1
        rep, mult = lines[1].split(",")
        assert tuple(int(v) for v in rep.split()) == classes[0].representative
        assert int(mult) == classes[0].multiplicity

    def test_input_classes_export(self, tmp_path):
        classes = grouped_input_classes(np.array([0, 0, 1]), M=4)
        path = tmp_path / "inputs.csv"
        export_input_classes_csv(classes, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "representative,weight"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 4**3


@settings(max_examples=40, deadline=None)
@given(alphabet=st.integers(2, 6), L=st.integers(1, 5))
def test_conservation_property(alphabet, L):
    classes = canonical_output_classes(alphabet, L)
    assert alphabet * sum(c.multiplicity for c in classes) == alphabet**L
    assert len(classes) == comb(alphabet + L - 2, L - 1)
