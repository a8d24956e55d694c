"""Exact arithmetic in F2[G] for finite abelian groups G.

A group element is a tuple of exponents, one entry per cyclic factor.  Ranks
are mixed-radix with the first factor least significant:

    rank(e) = sum(e[i] * prod(factor_orders[:i]))

reduce, unrank, multiple_ranks, linear_values and cyclic_exponent take
elements and ranks from callers and raise ValueError on a tuple of the wrong
length or a rank outside [0, |G|); rank, add, scale, translate_bits and
square_bits take only tuples and bitsets the package built and do not check
them.

An algebra element is an int used as a bitset: bit k is the coefficient of the
rank-k group element.  Addition is XOR and weight is a popcount.  Translation
and squaring act on the bitset with block masks (below); every other map on
G that the package applies acts on ranks through one of three tables, built
factor by factor like the ranks: power_ranks(k) (g -> g**k),
multiple_ranks(g, count) (t -> g**t) and linear_values(c, m)
(e -> sum(c[i] * e[i]) mod m).  gather_bits moves a bitset's coefficients
through such a table with no loop over the support in Python.  The
support-bit-by-bit reference for the square, for the tests, is
tests/oracles.per_bit_square.  The export order is bit-exact: serialized
coefficients are the bitset as little-endian bytes, hex-encoded.

Translation by a group element is a per-factor block rotation of the bitset.
Adding s to factor i moves each rank by s*places[i] inside its block of
places[i]*orders[i] consecutive ranks, wrapping at the block end, so each factor
with a nonzero shift costs two masks, two shifts and an OR.  The only state this
needs is one block-repeat pattern per factor (a 1 at the start of every block),
built on first use; the masks are formed from it per call.  orbit_bits builds
those masks once for a run of steps by one element.

Multiplication is the integer product of the two bitsets when the operands
come from complementary factors (F2[G] = F2[A] (x) F2[B], A the first i
factors and B the rest): x has bits only below the place P_i of factor i,
and y only at multiples of P_i.  Then every pair of support terms r, s gives
its own rank r + s, so the shifted copies x << s fill disjoint blocks and the
product carries nothing.  Any other pair is the XOR of the translates of one
operand over the support of the other; tests/oracles.per_term_product is
that loop, for the tests.

Squaring, g -> g**2, doubles every digit modulo its factor order, one factor
at a time, with the same kind of block masks (square_bits).  The ranks whose
digit x is below h = ceil(n/2) are spread to digit 2x by moving, for
j = 2**i < h from the highest down, those whose digit has bit j set up by j
digits; a moved rank's digit still agrees with its first digit modulo 2j, so
the masks pick the right ranks and nothing collides (the bit spreading of
Warren, Hacker's Delight, ch. 7, per mixed-radix digit).  The ranks with
digit h + y are spread the same way from digit y: for odd n they land on
digit 2y + 1, between the others, and for even n on digit 2y, where pairs of
terms cancel.  The masks are built once per group, 1 + ceil(log2 h) words of
|G| bits per factor.
"""

import math
import operator
from bisect import bisect_left
from functools import reduce
from itertools import cycle, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .gf2 import bit_indices

GroupElement = tuple[int, ...]


class AbelianGroup:
    """Finite abelian group given by the orders of its cyclic factors."""

    __slots__ = (
        "factor_orders",
        "order",
        "_places",
        "_elements",
        "_block_patterns",
        "_square_masks",
        "_powers",
    )

    def __init__(self, factor_orders: Sequence[int]) -> None:
        orders = tuple(int(x) for x in factor_orders)
        if not orders or any(x < 2 for x in orders):
            raise ValueError("every cyclic factor order must be at least 2")
        self.factor_orders = orders
        places = []
        total = 1
        for x in orders:
            places.append(total)
            total *= x
        self.order = total
        self._places = tuple(places)
        self._elements: list[GroupElement] | None = None
        self._block_patterns: tuple[int, ...] | None = None
        self._square_masks: tuple[tuple, ...] | None = None
        self._powers: dict[int, list[int]] = {}

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.factor_orders)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.factor_orders == other.factor_orders

    def __hash__(self) -> int:
        return hash(self.factor_orders)

    @property
    def is_odd(self) -> bool:
        return self.order % 2 == 1

    def identity(self) -> GroupElement:
        return (0,) * len(self.factor_orders)

    def generator(self, i: int) -> GroupElement:
        e = [0] * len(self.factor_orders)
        e[i] = 1
        return tuple(e)

    def _require_factor_count(self, entries: Sequence[int]) -> None:
        if len(entries) != len(self.factor_orders):
            raise ValueError(
                f"expected {len(self.factor_orders)} entries, one per cyclic factor, "
                f"got {len(entries)}"
            )

    def reduce(self, exps: Sequence[int]) -> GroupElement:
        self._require_factor_count(exps)
        return tuple(x % n for x, n in zip(exps, self.factor_orders))

    def rank(self, e: GroupElement) -> int:
        return sum(x * w for x, w in zip(e, self._places))

    def unrank(self, r: int) -> GroupElement:
        if not 0 <= r < self.order:
            raise ValueError(f"rank {r} is outside [0, {self.order})")
        return self._element_table()[r]

    def _element_table(self) -> list[GroupElement]:
        if self._elements is None:
            table: list[GroupElement] = [()]
            for n in self.factor_orders:
                table = [e + (x,) for x in range(n) for e in table]
            self._elements = table
        return self._elements

    def elements(self) -> Iterator[GroupElement]:
        """All elements in rank order."""
        return iter(self._element_table())

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factor_orders))

    def scale(self, a: GroupElement, k: int) -> GroupElement:
        """The power map a -> a**k, exponentwise."""
        return tuple(x * k % n for x, n in zip(a, self.factor_orders))

    def _patterns(self) -> tuple[int, ...]:
        """Per factor, the bitset with a 1 at the first rank of each rotation block."""
        if self._block_patterns is None:
            order = self.order
            patterns = []
            for n, place in zip(self.factor_orders, self._places):
                pattern, span = 1, n * place
                while span < order:
                    pattern |= pattern << span
                    span <<= 1
                patterns.append(pattern & ((1 << order) - 1))
            self._block_patterns = tuple(patterns)
        return self._block_patterns

    def translate_bits(self, bits: int, shift: GroupElement) -> int:
        """Support bitset of g*x for x = bits, g = shift: one block rotation per factor."""
        for s, n, place, pattern in zip(shift, self.factor_orders, self._places, self._patterns()):
            s %= n
            if s:
                # ranks in the low (n - s)*place bits of each block move up by s*place;
                # the rest wrap around to the block start.  Blocks do not overlap, so
                # the subtraction forms the repeated low mask without carries.
                stay = (n - s) * place
                low = bits & ((pattern << stay) - pattern)
                bits = (low << s * place) | ((bits ^ low) >> stay)
        return bits

    def orbit_bits(self, bits: int, shift: GroupElement, count: int) -> list[int]:
        """[g**t * x for t < count], x = bits, g = shift: the block rotations of
        translate_bits, with each moved factor's (mask, up, down) built once
        and count - 1 steps of a mask, two shifts, an XOR and an OR per factor.

        translate_bits keeps its own per-call masks: it is the hot path of a
        single translate, and routing it through a shared mask helper measured
        about +0.25 us on its 1.05 us at 675 bits.
        """
        plan = []
        for s, n, place, pattern in zip(shift, self.factor_orders, self._places, self._patterns()):
            s %= n
            if s:
                stay = (n - s) * place
                plan.append(((pattern << stay) - pattern, s * place, stay))
        out = [bits][:count]
        for _ in range(count - 1):
            for mask, up, down in plan:
                low = bits & mask
                bits = low << up | (bits ^ low) >> down
            out.append(bits)
        return out

    def _square_plan(self) -> tuple[tuple, ...]:
        """Per factor of order n and place P, with h = ceil(n/2): (P, h*P, n odd,
        the mask of ranks with digit < h, and for j = 2**i < h, highest first,
        (j*P, the mask of ranks whose digit has bit j set)); built once."""
        if self._square_masks is None:
            order, plan = self.order, []
            for n, place in zip(self.factor_orders, self._places):
                half, block = (n + 1) // 2, n * place

                def ranks(period: str) -> int:
                    # bit r is period[r mod len(period)] (little-endian) within each block
                    text = (period * (block // len(period) + 1))[:block] * (order // block)
                    return int(text[::-1], 2)

                low = ranks("1" * half * place + "0" * (n - half) * place)
                steps = []
                j = 1
                while j < half:
                    steps.append((j * place, ranks("0" * j * place + "1" * j * place)))
                    j <<= 1
                plan.append((place, half * place, n % 2, low, tuple(reversed(steps))))
            self._square_masks = tuple(plan)
        return self._square_masks

    def square_bits(self, bits: int) -> int:
        """Support bitset of x**2 for x = bits: every digit doubled, factor by factor."""
        for place, high, odd, low, steps in self._square_plan():
            a = bits & low
            b = (bits ^ a) >> high
            for shift, mask in steps:
                m = a & mask
                a ^= m ^ m << shift
                m = b & mask
                b ^= m ^ m << shift
            bits = a | b << place if odd else a ^ b
        return bits

    def close_bits(self, bits: int, g: GroupElement) -> int:
        """The bitset of <S, g> for the bitset of a subgroup S: after the step by
        g**(2**i) it is the union of the cosets g**j S, j < 2**(i+1), and a step
        adds nothing only once that union is closed."""
        while (grown := bits | self.translate_bits(bits, g)) != bits:
            bits, g = grown, self.scale(g, 2)
        return bits

    def power_ranks(self, k: int) -> list[int]:
        """Entry r is the rank of g**k for the rank-r element g, built once per
        k; callers must not mutate it."""
        table = self._powers.get(k)
        if table is None:
            table = [0]
            for n, place in zip(self.factor_orders, self._places):
                table = [r + k * x % n * place for x in range(n) for r in table]
            self._powers[k] = table
        return table

    def multiple_ranks(self, g: GroupElement, count: int) -> list[int]:
        """Entry t is the rank of g**t, for t < count."""
        self._require_factor_count(g)
        ranks: Iterable[int] = repeat(0, count)
        for c, n, place in zip(g, self.factor_orders, self._places):
            if c:  # factor i of g**t has period n in t
                period = [t * c % n * place for t in range(min(n, count))]
                ranks = map(operator.add, ranks, cycle(period))
        return list(ranks)

    def linear_values(self, images: Sequence[int], modulus: int) -> list[int]:
        """Entry r is sum(images[i] * e[i]) mod modulus for the rank-r element e."""
        self._require_factor_count(images)
        values = [0]
        for n, c in zip(self.factor_orders, images):
            values = [(v + x * c) % modulus for x in range(n) for v in values]
        return values


class AlgebraElement:
    """An element of F2[G], stored as a coefficient bitset in rank order.

    Immutable and hashable; equal to an AlgebraElement with the same group
    and bits, and to nothing else."""

    __slots__ = ("group", "bits")

    def __init__(self, group: AbelianGroup, bits: int) -> None:
        if bits < 0 or bits >> group.order:
            raise ValueError("coefficient bitset out of range for the group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("AlgebraElement is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.bits) == (other.group, other.bits)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __repr__(self) -> str:
        return f"AlgebraElement(group={self.group!r}, bits={self.bits!r})"

    def __reduce__(self) -> tuple:
        return AlgebraElement, (self.group, self.bits)

    @classmethod
    def zero(cls, group: AbelianGroup) -> "AlgebraElement":
        return cls(group, 0)

    @classmethod
    def one(cls, group: AbelianGroup) -> "AlgebraElement":
        return cls(group, 1)

    @classmethod
    def all_ones(cls, group: AbelianGroup) -> "AlgebraElement":
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def from_terms(cls, group: AbelianGroup, terms: Iterable[GroupElement]) -> "AlgebraElement":
        """Sum of the given group elements; repeated terms cancel in pairs."""
        bits = 0
        for t in terms:
            bits ^= 1 << group.rank(group.reduce(t))
        return cls(group, bits)

    @classmethod
    def monomial(cls, group: AbelianGroup, e: GroupElement) -> "AlgebraElement":
        return cls(group, 1 << group.rank(group.reduce(e)))

    def _require_same_group(self, other: "AlgebraElement") -> None:
        if self.group != other.group:
            raise ValueError("group mismatch between algebra elements")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def augmentation(self) -> int:
        """Parity of the support size; a ring map onto F2."""
        return self.bits.bit_count() & 1

    def support_ranks(self) -> list[int]:
        return list(bit_indices(self.bits))

    def support(self) -> list[GroupElement]:
        return [self.group.unrank(r) for r in bit_indices(self.bits)]

    def contains(self, e: GroupElement) -> bool:
        return bool(self.bits >> self.group.rank(self.group.reduce(e)) & 1)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_group(other)
        return AlgebraElement(self.group, self.bits ^ other.bits)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution over G.

        Tried in both operand orders: with i the least factor whose place
        P_i is at least a.bit_length(), if b has bits only at multiples of
        P_i (the ones of _patterns()[i - 1]), the product is the integer
        product a * b, which carries nothing (module docstring).  Otherwise
        XOR a translated copy of the denser operand per support term.
        """
        self._require_same_group(other)
        g = self.group
        x, y = self.bits, other.bits
        places = g._places
        for a, b in ((x, y), (y, x)):
            i = bisect_left(places, a.bit_length(), 1)
            if i < len(places) and b & g._patterns()[i - 1] == b:
                return AlgebraElement(g, a * b)
        if x.bit_count() > y.bit_count():
            x, y = y, x
        out = 0
        table = g._element_table()
        for r in bit_indices(x):
            out ^= g.translate_bits(y, table[r])
        return AlgebraElement(g, out)

    def frobenius(self) -> "AlgebraElement":
        """The square: in characteristic 2 it is the sum of g**2 over the support.

        One AbelianGroup.square_bits call for every group: it doubles each
        digit with block masks, and for even |G| the terms of distinct g that
        share a square cancel in pairs on the way.
        """
        return AlgebraElement(self.group, self.group.square_bits(self.bits))

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = AlgebraElement.one(self.group)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base.frobenius()
        return result

    def translated(self, g: GroupElement) -> "AlgebraElement":
        """Multiplication by the group element g; a weight-preserving permutation."""
        shift = self.group.reduce(g)
        return AlgebraElement(self.group, self.group.translate_bits(self.bits, shift))

    def to_hex(self) -> str:
        """Bit-exact export: the bitset as little-endian bytes, hex encoded."""
        nbytes = (self.group.order + 7) // 8
        return self.bits.to_bytes(nbytes, "little").hex()

    @classmethod
    def from_hex(cls, group: AbelianGroup, text: str) -> "AlgebraElement":
        bits = int.from_bytes(bytes.fromhex(text), "little")
        return cls(group, bits)


def gather_bits(bits: int, width: int, sources: Sequence[int]) -> int:
    """The word whose bit j is bit sources[j] of the width-bit word `bits`.

    One string view of `bits` (bit r at index r), one operator.itemgetter
    read of all of `sources` (a tuple of characters, or one character for a
    single source), and one conversion back; the result has len(sources) bits.
    """
    view = format(bits, f"0{width}b")[::-1]
    return int("".join(operator.itemgetter(*sources)(view))[::-1], 2)


class Subgroup(NamedTuple):
    """A subgroup given by generators, held as the bitset of its elements (its hat)."""

    group: AbelianGroup
    generators: tuple[GroupElement, ...]
    bits: int

    @classmethod
    def from_generators(
        cls, group: AbelianGroup, generators: Iterable[GroupElement]
    ) -> "Subgroup":
        return reduce(cls.extended, generators, cls(group, (), 1))

    @classmethod
    def trivial(cls, group: AbelianGroup) -> "Subgroup":
        return cls.from_generators(group, ())

    @classmethod
    def whole(cls, group: AbelianGroup) -> "Subgroup":
        return cls.from_generators(group, map(group.generator, range(len(group.factor_orders))))

    def extended(self, g: GroupElement) -> "Subgroup":
        """The subgroup generated by this one and g, closed by translation."""
        g = self.group.reduce(g)
        bits = self.group.close_bits(self.bits, g)
        if self.group.order % bits.bit_count() != 0:
            raise RuntimeError("closure size does not divide the group order")
        return Subgroup(self.group, self.generators + (g,), bits)

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    @property
    def element_ranks(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))

    def elements(self) -> list[GroupElement]:
        return [self.group.unrank(r) for r in bit_indices(self.bits)]

    def hat(self) -> AlgebraElement:
        """Sum of all subgroup elements; an idempotent when the order is odd."""
        return AlgebraElement(self.group, self.bits)


def cyclic_exponent(group: AbelianGroup, e: GroupElement) -> int:
    """Exponent of e as a power of a single generator, for coprime cyclic factors."""
    orders = group.factor_orders
    if math.lcm(*orders) != group.order:  # the exponent is the order
        raise ValueError("factors are not pairwise coprime; group is not cyclic")
    k, modulus = 0, 1
    for x, n in zip(group.reduce(e), orders):
        inv = pow(modulus % n, -1, n)
        k = k + modulus * ((x - k) * inv % n)
        modulus *= n
    return k % modulus


def as_cyclic(x: AlgebraElement) -> AlgebraElement:
    """Rewrite over the single-generator presentation C_n, n = |G|: bit t is
    the coefficient of x at g**t, g = (1, ..., 1)."""
    group = x.group
    if math.lcm(*group.factor_orders) != group.order:
        raise ValueError("factors are not pairwise coprime; group is not cyclic")
    powers = group.multiple_ranks((1,) * len(group.factor_orders), group.order)
    return AlgebraElement(AbelianGroup([group.order]), gather_bits(x.bits, group.order, powers))


__all__ = [
    "GroupElement",
    "AbelianGroup",
    "AlgebraElement",
    "Subgroup",
    "gather_bits",
    "cyclic_exponent",
    "as_cyclic",
]
