import math
import time

import pytest
from hypothesis import given, strategies as st

from abelcodes.number_theory import (
    HypothesisError,
    crt_inverses,
    hypothesis_failures,
    is_odd_prime,
    is_prime,
    joint_order_2,
    minus_one_is_residue,
    multiplicative_order,
    residue_partition,
    validate_hypotheses,
)
from oracles import stepping_order

ODD_PRIMES_UNDER_200 = [p for p in range(3, 200) if is_odd_prime(p)]


def test_is_prime_matches_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, limit, d))
    assert [is_prime(n) for n in range(limit)] == sieve
    assert not is_prime(-7)


class TestMultiplicativeOrder:
    def test_examples(self):
        # frozen from direct modular exponentiation
        assert multiplicative_order(2, 9) == 6
        assert multiplicative_order(2, 25) == 20
        assert multiplicative_order(1, 7) == 1

    def test_not_a_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            multiplicative_order(6, 9)

    def test_modulus_below_two_is_refused(self):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            multiplicative_order(1, 1)

    def test_agrees_with_stepping_through_the_powers(self):
        for n in range(2, 3000):
            for a in range(1, 60):
                if math.gcd(a, n) == 1:
                    assert multiplicative_order(a, n) == stepping_order(a, n), (a, n)

    def test_condition_ii_for_a_large_prime_takes_under_a_second(self):
        # 2 has order 10091 * 10090 mod 10091**2, about 10**8 steps of the powers
        start = time.perf_counter()
        assert hypothesis_failures(3, 10091) == []
        assert time.perf_counter() - start < 1.0

    @given(st.sampled_from(ODD_PRIMES_UNDER_200), st.integers(1, 50))
    def test_order_divides_group_order(self, p, a):
        if a % p == 0:
            a += 1
        k = multiplicative_order(a, p)
        assert (p - 1) % k == 0
        assert pow(a, k, p) == 1


class TestJointOrder:
    def test_examples(self):
        assert joint_order_2(3, 5) == 4
        assert joint_order_2(3, 11) == 10
        assert joint_order_2(11, 13) == 60

    def test_rejects_inadmissible_pairs(self):
        with pytest.raises(HypothesisError):
            joint_order_2(5, 13)  # gcd(4, 12) = 4
        with pytest.raises(HypothesisError):
            joint_order_2(5, 7)  # 2 has order 3 mod 7

    def test_identity_for_all_validated_pairs_under_500(self):
        pairs = [
            (p, q)
            for p in ODD_PRIMES_UNDER_200
            for q in ODD_PRIMES_UNDER_200
            if p < q and p * q < 500 and not hypothesis_failures(p, q)
        ]
        assert (3, 5) in pairs and (3, 11) in pairs and (11, 13) in pairs
        assert (5, 11) not in pairs  # gcd(5, 10) = 5
        for p, q in pairs:
            assert joint_order_2(p, q) == (p - 1) * (q - 1) // 2


class TestValidateHypotheses:
    def test_normalizes_so_q_is_3_mod_4(self):
        pair = validate_hypotheses(3, 5)
        assert (pair.p, pair.q) == (5, 3)
        assert pair.q_is_3_mod_4

    def test_keeps_order_when_both_are_3_mod_4(self):
        pair = validate_hypotheses(3, 11)
        assert (pair.p, pair.q) == (3, 11)

    def test_condition_iii_failure_is_reported(self):
        with pytest.raises(HypothesisError) as exc:
            validate_hypotheses(5, 11)
        assert any("gcd(5, 10)" in f or "gcd(p, q-1)" in f for f in exc.value.failures)

    def test_override_collects_warnings(self):
        pair = validate_hypotheses(5, 7, override=True)
        assert not pair.validated
        assert pair.warnings

    def test_exponents_travel_with_their_primes(self):
        pair = validate_hypotheses(3, 5, m=2, n=1)
        assert (pair.p, pair.m, pair.q, pair.n) == (5, 1, 3, 2)


class TestResiduePartition:
    def test_p7(self):
        part = residue_partition(7)
        assert part.qq == frozenset({2})
        assert part.qn == frozenset({4})
        assert part.nq == frozenset({3, 5})
        assert part.nn == frozenset({6})

    def test_p13_brute_force_is_authoritative(self):
        # the printed closed form for the residue/residue class at p = 1 mod 4
        # would give a non-integer here; brute force gives 2 = (p - 5) / 4
        part = residue_partition(13)
        assert len(part.qq) == 2
        assert len(part.qn) == len(part.nq) == len(part.nn) == 3

    def test_p3(self):
        part = residue_partition(3)
        assert part.qq == part.qn == part.nn == frozenset()
        assert part.nq == frozenset({2})

    @pytest.mark.parametrize("p", ODD_PRIMES_UNDER_200)
    def test_partition_and_cardinalities(self, p):
        part = residue_partition(p)
        assert len(part.residues) == len(part.nonresidues) == (p - 1) // 2
        blocks = part.blocks()
        union = set()
        total = 0
        for b in blocks:
            union |= b
            total += len(b)
        assert union == set(range(p))
        assert total == p

    @pytest.mark.parametrize("p", [p for p in ODD_PRIMES_UNDER_200 if p % 4 == 3])
    def test_closed_forms_for_3_mod_4(self, p):
        part = residue_partition(p)
        assert len(part.qq) == len(part.qn) == len(part.nn) == (p - 3) // 4
        assert len(part.nq) == (p + 1) // 4


class TestMinusOne:
    def test_examples(self):
        assert minus_one_is_residue(13) is True
        assert minus_one_is_residue(11) is False
        assert minus_one_is_residue(3) is False

    @pytest.mark.parametrize("p", ODD_PRIMES_UNDER_200)
    def test_matches_mod_4_rule(self, p):
        assert minus_one_is_residue(p) == (p % 4 == 1)


class TestCrt:
    def test_inverses(self):
        assert crt_inverses(3, 5) == (2, 2)
        assert crt_inverses(3, 11) == (2, 4)
        assert crt_inverses(5, 11) == (1, 9)  # 11 = 1 mod 5 forces s = 1
