"""GF(2) bitset helpers: bit iteration, rank, and GF(2)[x].

Rows and vectors are plain Python ints used as bitsets; XOR is addition.  A
polynomial over GF(2) is an int too: bit i is the coefficient of x**i.  The
module imports nothing from the package.  It has no irreducibility test:
codes decides whether F2[x]/h is a field by counting its idempotents.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def bit_indices(bits: int) -> Iterator[int]:
    """Yield the positions of the set bits of a nonnegative int, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _reduce(row: int, pivots: dict[int, int]) -> int:
    while row:
        high = row.bit_length() - 1
        pivot = pivots.get(high)
        if pivot is None:
            break
        row ^= pivot
    return row


def independent_row_indices(rows: Sequence[int]) -> list[int]:
    """Indices of a greedy maximal independent subset, scanning in input order."""
    pivots: dict[int, int] = {}
    kept: list[int] = []
    for idx, row in enumerate(rows):
        reduced = _reduce(row, pivots)
        if reduced:
            pivots[reduced.bit_length() - 1] = reduced
            kept.append(idx)
    return kept


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of the span of the given bitset rows."""
    return len(independent_row_indices(rows))


def poly_mod(a: int, f: int) -> int:
    """a mod f over GF(2)."""
    deg = f.bit_length()
    while a.bit_length() >= deg:
        a ^= f << (a.bit_length() - deg)
    return a


def poly_mulmod(a: int, b: int, f: int) -> int:
    """a * b mod f over GF(2), for a already reduced mod f."""
    top = 1 << (f.bit_length() - 1)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return out


def poly_mulmod_cyclic(a: int, b: int, n: int) -> int:
    """a * b mod x**n + 1 over GF(2), for deg a < n and deg b <= n: one shift
    and XOR per set bit of b, then one fold of the degree < 2n product, as
    x**n == 1."""
    out = 0
    for i in bit_indices(b):
        out ^= a << i
    return out & ((1 << n) - 1) ^ out >> n


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor over GF(2)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


__all__ = [
    "bit_indices",
    "gf2_rank",
    "independent_row_indices",
    "poly_mod",
    "poly_mulmod",
    "poly_mulmod_cyclic",
    "poly_gcd",
]
