import random

import pytest
from hypothesis import given, strategies as st

from abelcodes import codes
from abelcodes.gf2 import (
    gf2_rank,
    poly_gcd,
    poly_mod,
    poly_mulmod,
    poly_mulmod_cyclic,
)
from oracles import berlekamp_massey, poly_powmod, rabin_is_irreducible


def clmul(a, b):
    """Product in GF(2)[x] by schoolbook shifts."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def annihilates(f, seq):
    """Whether sum(f_j * seq[t + j]) vanishes for every window of the sequence."""
    deg = f.bit_length() - 1
    return all(
        not sum((f >> j) & seq[t + j] for j in range(deg + 1)) & 1
        for t in range(len(seq) - deg)
    )


def has_no_factor(f):
    """Irreducibility by trial division with every polynomial of degree 1..deg/2."""
    deg = f.bit_length() - 1
    return all(poly_mod(f, d) for d in range(2, 1 << (deg // 2 + 1)))


def is_squarefree(f):
    """gcd(f, f') == 1; f' keeps the odd-degree terms, shifted down by one."""
    return poly_gcd(f, f >> 1 & 0x5555555555555555) == 1


def idempotent_count(f):
    """codes._idempotent_count on a record whose check polynomial is f, the
    one field the count reads."""
    return codes._idempotent_count(codes._Quotient(None, None, (), 0, 0, 0, f))


class TestBerlekampMassey:
    def test_least_degree_annihilator_of_random_sequences(self):
        rng = random.Random(3)
        for length in range(1, 13):
            for _ in range(40):
                seq = [rng.getrandbits(1) for _ in range(length)]
                f = berlekamp_massey(seq)
                deg = f.bit_length() - 1
                assert annihilates(f, seq)
                assert not any(
                    annihilates((1 << d) | tail, seq) for d in range(deg) for tail in range(1 << d)
                )

    def test_m_sequence_gives_its_primitive_polynomial(self):
        f = 0b10000011  # x**7 + x + 1, primitive
        state, seq = 1, []
        for _ in range(14):
            seq.append(state & 1)
            state = poly_mulmod(state, 0b10, f)
        assert berlekamp_massey(seq) == f


class TestPolynomials:
    @pytest.mark.parametrize("deg", range(1, 11))
    def test_irreducibility_matches_trial_division(self, deg):
        for f in range(1 << deg, 1 << (deg + 1)):
            assert rabin_is_irreducible(f) == has_no_factor(f), bin(f)

    @pytest.mark.parametrize("deg", range(1, 11))
    def test_the_count_is_one_exactly_on_irreducible_squarefree_f(self, deg):
        # F2[x]/f is a product of c fields for squarefree f, so a field iff c == 1
        squarefree = [f for f in range(1 << deg, 1 << (deg + 1)) if is_squarefree(f)]
        assert len(squarefree) == (1 << deg) - (1 << deg - 1 if deg > 1 else 0)
        for f in squarefree:
            assert (idempotent_count(f) == 1) == has_no_factor(f), bin(f)

    def test_a_square_factor_is_what_the_count_cannot_see(self):
        # (x + 1)**2: F2[x]/f is local, so c == 1, yet f is reducible
        assert idempotent_count(0b101) == 1 and not has_no_factor(0b101)

    def test_powmod_and_gcd_match_schoolbook_products(self):
        rng = random.Random(5)
        for _ in range(50):
            f = rng.getrandbits(12) | (1 << 12)
            a = rng.getrandbits(16)
            exp = rng.randrange(40)
            expected = 1
            for _ in range(exp):
                expected = clmul(expected, a)
            assert poly_powmod(a, exp, f) == poly_mod(expected, f)
            common = rng.getrandbits(5) | (1 << 5)
            g = poly_gcd(clmul(f, common), clmul(a | 1, common))
            assert poly_mod(g, common) == 0
            assert poly_mod(clmul(f, common), g) == 0 and poly_mod(clmul(a | 1, common), g) == 0


@given(st.lists(st.integers(0, (1 << 9) - 1), max_size=10))
def test_rank_counts_the_span(rows):
    span = {0}  # every subset XOR of the rows seen so far
    for row in rows:
        span |= {x ^ row for x in span}
    assert 2 ** gf2_rank(rows) == len(span)


class TestCyclicMulmod:
    @given(st.integers(1, 90), st.data())
    def test_matches_poly_mulmod_by_x_n_plus_1(self, n, data):
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n + 1) - 1))  # deg b == n too: b may be x**n + 1
        assert poly_mulmod_cyclic(a, b, n) == poly_mulmod(a, b, 1 << n | 1)
        assert poly_mulmod_cyclic(a, b, n) == poly_mod(clmul(a, b), 1 << n | 1)
