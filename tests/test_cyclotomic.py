from collections import Counter

import pytest

from abelcodes.cyclotomic import (
    class_count,
    class_sum,
    cyclotomic_classes,
    verify_class_structure,
)
from abelcodes.group_algebra import AbelianGroup, AlgebraElement
from abelcodes.number_theory import PrimePair, validate_hypotheses


class TestClasses:
    def test_c15_sizes(self):
        sizes = Counter(c.size for c in cyclotomic_classes(AbelianGroup([15])))
        assert sizes == Counter({1: 1, 4: 3, 2: 1})

    def test_c33_sizes(self):
        sizes = Counter(c.size for c in cyclotomic_classes(AbelianGroup([33])))
        assert sizes == Counter({1: 1, 10: 3, 2: 1})

    def test_c3(self):
        classes = cyclotomic_classes(AbelianGroup([3]))
        assert [c.member_ranks for c in classes] == [(0,), (1, 2)]

    def test_two_factor_form_has_same_sizes(self):
        a = Counter(c.size for c in cyclotomic_classes(AbelianGroup([15])))
        b = Counter(c.size for c in cyclotomic_classes(AbelianGroup([3, 5])))
        assert a == b

    def test_partition_properties(self):
        for group in (AbelianGroup([15]), AbelianGroup([3, 5]), AbelianGroup([45])):
            classes = cyclotomic_classes(group)
            seen = set()
            for c in classes:
                members = set(c.member_ranks)
                assert not members & seen
                seen |= members
                doubled = {group.rank(group.scale(group.unrank(r), 2)) for r in members}
                assert doubled == members
            assert seen == set(range(group.order))

    def test_counts_for_supported_shapes(self):
        assert class_count(AbelianGroup([3, 5])) == 5
        assert class_count(AbelianGroup([3, 11])) == 5
        assert class_count(AbelianGroup([3, 5, 11])) == 14
        assert class_count(AbelianGroup([9, 25])) == 13

    def test_even_order_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            cyclotomic_classes(AbelianGroup([6]))


class TestClassSum:
    def test_examples(self):
        c15 = AbelianGroup([15])
        assert sorted(class_sum(c15, (5,)).support_ranks()) == [5, 10]
        assert class_sum(c15, (0,)) == AlgebraElement.one(c15)
        assert class_sum(c15, (1,)).weight == 4

    def test_frobenius_fixes_class_sums(self):
        for group in (AbelianGroup([15]), AbelianGroup([3, 11])):
            for e in [(1,) * len(group.factor_orders), group.unrank(group.order - 1)]:
                s = class_sum(group, e)
                assert s.frobenius() == s
                assert s * s == s.frobenius()


class TestClassStructure:
    def test_case_a_pair(self):
        report = verify_class_structure((3, 11))
        assert report.ok
        assert report.case == "both_primes_3_mod_4"

    def test_case_b_from_normalization(self):
        report = verify_class_structure((11, 13))
        assert report.ok
        assert report.case == "p_1_mod_4"
        assert (report.pair.p, report.pair.q) == (13, 11)

    def test_input_3_5(self):
        report = verify_class_structure((3, 5))
        assert report.ok
        assert report.case == "p_1_mod_4"

    @pytest.mark.parametrize("p, q", [(3, 5), (3, 11), (11, 13)])
    def test_a_prime_pair_and_its_tuple_give_one_report(self, p, q):
        # a PrimePair is taken as labeled, so it is built in the normalized order
        pair = validate_hypotheses(p, q)
        expected = verify_class_structure((p, q))
        assert expected.ok and expected.pair == pair
        assert verify_class_structure(pair) == expected
        assert verify_class_structure(PrimePair(pair.p, pair.q)) == expected
