"""Primes, quadratic residues, and the divisibility conditions the code families need.

Everything here is exact integer arithmetic at desk scale.  The standing
conditions on a prime pair (p, q) are:

  (i)   gcd(p-1, q-1) == 2,
  (ii)  2 generates the unit groups mod p**2 and mod q**2,
  (iii) gcd(p-1, q) == gcd(p, q-1) == 1,

and at least one of the two primes is 3 mod 4; pair normalization relabels so
that q is the one congruent to 3 mod 4.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class HypothesisError(ValueError):
    """The arithmetic conditions required by a construction do not hold."""

    def __init__(self, failures: list[str]):
        super().__init__("hypothesis check failed: " + "; ".join(failures))
        self.failures = tuple(failures)


class ConsistencyError(RuntimeError):
    """A closed-form value disagreed with its direct recomputation."""


def is_prime(n: int) -> bool:
    """Deterministic, by factorize's trial division; inputs are desk-scale."""
    return n >= 2 and factorize(n) == {n: 1}


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError("can only factorize positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a**k == 1 (mod n): the order divides phi(n), so start
    there and divide out each prime r of it while a**(k/r) == 1 (mod n)."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    k = math.prod(r ** (e - 1) * (r - 1) for r, e in factorize(n).items())
    for r in factorize(k):
        while k % r == 0 and pow(a, k // r, n) == 1:
            k //= r
    return k


def joint_order_2(p: int, q: int) -> int:
    """Order of 2 modulo p*q, checked against the lcm(p-1, q-1) closed form."""
    failures = []
    if not is_odd_prime(p) or not is_odd_prime(q) or p == q:
        failures.append(f"({p}, {q}) is not a pair of distinct odd primes")
    elif math.gcd(p - 1, q - 1) != 2:
        failures.append(f"gcd(p-1, q-1) = {math.gcd(p - 1, q - 1)}, expected 2")
    elif multiplicative_order(2, p) != p - 1 or multiplicative_order(2, q) != q - 1:
        failures.append("2 does not generate the units modulo both primes")
    if failures:
        raise HypothesisError(failures)
    formula = math.lcm(p - 1, q - 1)
    direct = multiplicative_order(2, p * q)
    if formula != direct or formula != (p - 1) * (q - 1) // 2:
        raise ConsistencyError(
            f"order of 2 mod {p * q} is {direct}, closed form gives {formula}"
        )
    return formula


def hypothesis_failures(p: int, q: int) -> list[str]:
    """All violated standing conditions for the pair, empty when it is admissible."""
    failures: list[str] = []
    if not is_odd_prime(p):
        failures.append(f"p = {p} is not an odd prime")
    if not is_odd_prime(q):
        failures.append(f"q = {q} is not an odd prime")
    if failures:
        return failures
    if p == q:
        return [f"p and q must be distinct, both are {p}"]
    g = math.gcd(p - 1, q - 1)
    if g != 2:
        failures.append(f"condition (i): gcd(p-1, q-1) = {g}, expected 2")
    for r in (p, q):
        phi = r * (r - 1)
        order = multiplicative_order(2, r * r)
        if order != phi:
            failures.append(
                f"condition (ii): 2 has order {order} mod {r}**2, expected {phi}"
            )
    if math.gcd(p - 1, q) != 1:
        failures.append(f"condition (iii): gcd(p-1, q) = {math.gcd(p - 1, q)}, expected 1")
    if math.gcd(p, q - 1) != 1:
        failures.append(f"condition (iii): gcd(p, q-1) = {math.gcd(p, q - 1)}, expected 1")
    if p % 4 != 3 and q % 4 != 3:
        failures.append("neither prime is congruent to 3 mod 4")
    return failures


class PrimePair(NamedTuple):
    """A pair of odd primes with exponents, labeled as the constructions expect.

    When built with normalization, q is the prime congruent to 3 mod 4.  A pair
    carrying warnings was built in override mode and is for exploration only.
    """

    p: int
    q: int
    m: int = 1
    n: int = 1
    q_is_3_mod_4: bool = True
    warnings: tuple[str, ...] = ()

    @property
    def order(self) -> int:
        return self.p**self.m * self.q**self.n

    @property
    def validated(self) -> bool:
        return not self.warnings


def validate_hypotheses(
    p: int,
    q: int,
    m: int = 1,
    n: int = 1,
    *,
    normalize: bool = True,
    override: bool = False,
) -> PrimePair:
    """Check the standing conditions and return the (optionally relabeled) pair.

    With normalize=True the roles of (p, m) and (q, n) are swapped if needed so
    that q == 3 (mod 4); all downstream labels refer to the returned order.
    With override=True failed conditions become warnings instead of errors.
    """
    if m < 1 or n < 1:
        raise ValueError("exponents must be at least 1")
    failures = hypothesis_failures(p, q)
    if failures and not override:
        raise HypothesisError(failures)
    if normalize and q % 4 != 3 and p % 4 == 3:
        p, q = q, p
        m, n = n, m
    return PrimePair(
        p=p,
        q=q,
        m=m,
        n=n,
        q_is_3_mod_4=(q % 4 == 3),
        warnings=tuple(failures),
    )


class ResiduePartition(NamedTuple):
    """The partition of Z_p into {0}, {1} and the four residue-status classes of x and x-1."""

    p: int
    residues: frozenset[int]
    nonresidues: frozenset[int]
    qq: frozenset[int]
    qn: frozenset[int]
    nq: frozenset[int]
    nn: frozenset[int]

    def blocks(self) -> tuple[frozenset[int], ...]:
        return (
            frozenset({0}),
            frozenset({1}),
            self.qq,
            self.qn,
            self.nq,
            self.nn,
        )


def residue_partition(p: int) -> ResiduePartition:
    """Brute-force quadratic residue sets mod p and the x / x-1 classification."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    residues = frozenset(x * x % p for x in range(1, p))
    nonresidues = frozenset(range(1, p)) - residues
    qq, qn, nq, nn = set(), set(), set(), set()
    for x in range(2, p):
        prev = x - 1
        if x in residues:
            (qq if prev in residues else qn).add(x)
        else:
            (nq if prev in residues else nn).add(x)
    part = ResiduePartition(
        p=p,
        residues=residues,
        nonresidues=nonresidues,
        qq=frozenset(qq),
        qn=frozenset(qn),
        nq=frozenset(nq),
        nn=frozenset(nn),
    )
    if p % 4 == 3:
        expected = ((p - 3) // 4, (p - 3) // 4, (p + 1) // 4, (p - 3) // 4)
        got = (len(part.qq), len(part.qn), len(part.nq), len(part.nn))
        if got != expected:
            raise ConsistencyError(
                f"residue class sizes {got} for p={p} disagree with closed forms {expected}"
            )
    return part


def minus_one_is_residue(p: int) -> bool:
    """Whether -1 is a square mod p; cross-checked against the p mod 4 criterion."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    brute = (p - 1) in residue_partition(p).residues
    if brute != (p % 4 == 1):
        raise ConsistencyError(f"-1 residue status mod {p} disagrees with p mod 4 rule")
    return brute


def crt_inverses(p: int, q: int) -> tuple[int, int]:
    """Smallest positive s, t with s*q == 1 (mod p) and t*p == 1 (mod q)."""
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    return pow(q, -1, p), pow(p, -1, q)


__all__ = [
    "HypothesisError",
    "ConsistencyError",
    "PrimePair",
    "ResiduePartition",
    "is_prime",
    "is_odd_prime",
    "factorize",
    "multiplicative_order",
    "joint_order_2",
    "hypothesis_failures",
    "validate_hypotheses",
    "residue_partition",
    "minus_one_is_residue",
    "crt_inverses",
]
