"""Independent reference implementations that the tests compare the library with,
and the helpers the tests use to rebuild library records.

No code path of the package calls these; the references are slow on purpose.
"""

import itertools
import math
from array import array
from typing import Sequence

from abelcodes import codes
from abelcodes.gf2 import bit_indices, gf2_rank, poly_mod, poly_mulmod
from abelcodes.group_algebra import AbelianGroup, AlgebraElement, Subgroup
from abelcodes.idempotents import IdempotentFamily


def replace_elements(
    fam: IdempotentFamily, elements: dict[str, AlgebraElement]
) -> IdempotentFamily:
    """fam with these members, rebuilt through IdempotentFamily so that its
    label and dimension checks run again."""
    return IdempotentFamily(
        fam.group, fam.shape, fam.labels, elements, fam.predicted_dims, fam.params, fam.levels
    )


def all_translates(e: AlgebraElement) -> list[int]:
    """The rows g*e for every g in rank order; their span is the ideal F2[G]e."""
    group = e.group
    return [group.translate_bits(e.bits, g) for g in group.elements()]


def first_translates(e: AlgebraElement) -> tuple[list[int], list[int]]:
    """The distinct rows of all_translates(e), each with the first rank giving it."""
    first: dict[int, int] = {}
    for rank, row in enumerate(all_translates(e)):
        first.setdefault(row, rank)
    return list(first), list(first.values())


def full_width_idempotent_count(e: AlgebraElement) -> int:
    """The number of idempotents of the ideal F2[G]e, 2**c with
    c = dim - rank(b**2 + b) over the rows b of codes.ideal_basis(e):
    squaring is F2-linear on the ideal, and its idempotents are the kernel of
    y -> y**2 + y, here on rows of |G| bits."""
    basis = codes.ideal_basis(e)
    return 1 << (len(basis) - gf2_rank([b.frobenius().bits ^ b.bits for b in basis]))


def per_bit_power(x: AlgebraElement, k: int) -> AlgebraElement:
    """The sum of g**k over the support of x, one support bit at a time."""
    group = x.group
    out = 0
    for r in bit_indices(x.bits):
        out ^= 1 << group.rank(group.scale(group.unrank(r), k))
    return AlgebraElement(group, out)


def per_bit_square(x: AlgebraElement) -> AlgebraElement:
    """x**2 as the sum of g**2 over the support of x, one support bit at a time."""
    return per_bit_power(x, 2)


def per_term_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x * y as the XOR of the translates of the denser operand, one per
    support term of the sparser: the product loop with no carry-free path."""
    group = x.group
    a, b = sorted((x.bits, y.bits), key=int.bit_count)
    out = 0
    for r in bit_indices(a):
        out ^= group.translate_bits(b, group.unrank(r))
    return AlgebraElement(group, out)


def berlekamp_massey(seq: Sequence[int]) -> int:
    """Minimal polynomial of a 0/1 sequence: the monic f of least degree L with
    sum(f_j * seq[t + j] for j in 0..L) == 0 for every t + L < len(seq).

    The answer is the sequence's true minimal polynomial once len(seq) is at
    least twice its linear complexity (Massey, IEEE Trans. IT 15, 1969).
    """
    conn, prev = 1, 1  # connection polynomials: 1 + c_1 x + ... + c_L x**L
    length, gap = 0, 1
    for i, s in enumerate(seq):
        d = s
        for j in range(1, length + 1):
            d ^= (conn >> j) & seq[i - j]
        if not d:
            gap += 1
        elif 2 * length <= i:
            conn, prev = conn ^ (prev << gap), conn
            length, gap = i + 1 - length, 1
        else:
            conn ^= prev << gap
            gap += 1
    # the minimal polynomial is the degree-L reciprocal of the connection polynomial
    return sum(1 << (length - j) for j in range(length + 1) if (conn >> j) & 1)


def naive_weight_distribution(rows) -> dict[int, int]:
    """Recompute every codeword from scratch per subset of the rows."""
    k = len(rows)
    if k > 16:
        raise ValueError("the naive oracle is only meant for small dimensions")
    hist: dict[int, int] = {}
    for mask in range(1, 1 << k):
        word = 0
        m = mask
        while m:
            low = m & -m
            word ^= rows[low.bit_length() - 1]
            m ^= low
        w = word.bit_count()
        hist[w] = hist.get(w, 0) + 1
    return hist


def gray_flip_sequence(k: int) -> bytes:
    """Flip order of a k-bit Gray walk: entry i-1 is the row index toggled at step i.

    The walk starts at the zero word; after step i the live word is the XOR of
    the rows selected by the bits of the Gray code i ^ (i >> 1).  Length is 2**k - 1.
    """
    seq = b""
    for j in range(k):
        seq = seq + bytes([j]) + seq
    return seq


def gray_scan_codewords(rows: Sequence[int], *, ncols: int) -> tuple[int, int, dict[int, int]]:
    """Every nonzero word of the span of `rows`, in Gray-code order: (min weight,
    the first word attaining it, weight histogram).  Any span, minimal or not."""
    best, best_word, word = ncols + 1, 0, 0
    hist: dict[int, int] = {}
    for f in gray_flip_sequence(len(rows)):
        word ^= rows[f]
        w = word.bit_count()
        hist[w] = hist.get(w, 0) + 1
        if w < best:
            best, best_word = w, word
    return best, best_word, dict(sorted(hist.items()))


def poly_powmod(a: int, exp: int, f: int) -> int:
    """a ** exp mod f over GF(2), by square-and-multiply with poly_mulmod."""
    a = poly_mod(a, f)
    out = poly_mod(1, f)
    while exp:
        if exp & 1:
            out = poly_mulmod(out, a, f)
        exp >>= 1
        if exp:
            a = poly_mulmod(a, a, f)
    return out


def doubling_orbit_sizes(n: int) -> bytes:
    """Entry j is the size of the orbit {j * 2**s mod n} when j is its least
    member, else 0; n is odd, so doubling permutes the residues mod n.  Every
    exponent is visited, and each size must fit a byte."""
    sizes = bytearray(n)
    seen = bytearray(n)
    for j in range(n):
        if seen[j]:
            continue
        i, size = j, 0
        while not seen[i]:
            seen[i] = 1
            size += 1
            i = 2 * i % n
        sizes[j] = size
    return bytes(sizes)


def doubling_orbit_leaders(n: int) -> tuple[array, bytes]:
    """The least member j of each orbit {j * 2**s mod n}, ascending, and the
    orbit's size, closed by the sentinel (n, 0).

    n is odd, so doubling permutes the residues mod n.  The walk asks only for
    n dividing 2**k - 1, where every orbit size divides k and fits a byte.
    """
    leaders, sizes = array("l"), bytearray()
    seen = bytearray(n)
    j = 0
    while j >= 0:
        i, size = j, 0
        while True:
            seen[i] = 1
            size += 1
            i += i
            if i >= n:
                i -= n
            if i == j:
                break
        leaders.append(j)
        sizes.append(size)
        j = seen.find(0, j + 1)
    leaders.append(n)
    sizes.append(0)
    return leaders, bytes(sizes)


def orbit_walk(quotient, z: int) -> tuple[int, int, dict[int, int]]:
    """Minimum weight, a minimum word and the histogram of the quotient code of
    a field ideal, on n'-bit words, by the leader walk over K*/T.

    K = F2[x]/h, h the check polynomial of the record, and the word of y in K
    is the sum of beta**i, e-bar rotated by i, over the set bits i of y.
    z generates K*/T (codes._orbit_multiplier), so the words z**j, j < N =
    (2**k - 1)/n', meet each coset of the rotations T once; squaring permutes
    the cosets, so weights are constant on the doubling orbits of the
    exponents.  The walk visits the least exponent of each orbit, ascending,
    reaching the next leader j' from j by multiplying by z**(2**b) for each
    set bit b of j' - j, split tables of y -> z**(2**b) * y, and counts the
    leader's weight n' times the orbit size.  A last jump reaches z**N, which
    must map to a rotation of e-bar.
    """
    orbit, f, bar, k = quotient.order, quotient.check, quotient.word, quotient.dimension
    powers = [(bar << i | bar >> (orbit - i)) & ((1 << orbit) - 1) for i in range(k)]
    width = -(-k // 3)
    mask, high = (1 << width) - 1, 2 * width
    w0, w1, w2 = codes._split_tables(powers, width)
    images = codes._shift_images(z, f, k)  # z**(2**b) * x**i for the last table set b
    jumps = [codes._split_tables(images, width)]
    best, best_word = orbit + 1, 0
    hist = [0] * (orbit + 1)
    x, at = 1, 0
    for lead, size in zip(*doubling_orbit_leaders(quotient.cosets)):
        gap, at = lead - at, lead
        while gap >> len(jumps):
            t0, t1, t2 = jumps[-1]
            images = [t0[y & mask] ^ t1[y >> width & mask] ^ t2[y >> high] for y in images]
            jumps.append(codes._split_tables(images, width))
        b = 0
        while gap:
            if gap & 1:
                t0, t1, t2 = jumps[b]
                x = t0[x & mask] ^ t1[x >> width & mask] ^ t2[x >> high]
            gap >>= 1
            b += 1
        if size:
            word = w0[x & mask] ^ w1[x >> width & mask] ^ w2[x >> high]
            w = word.bit_count()
            hist[w] += orbit * size
            if w < best:
                best, best_word = w, word
    last = w0[x & mask] ^ w1[x >> width & mask] ^ w2[x >> high]
    text = format(quotient.word, f"0{orbit}b")
    if format(last, f"0{orbit}b") not in text + text:
        raise RuntimeError("the orbit walk did not close on a translate of e")
    return best, best_word, {w: n for w, n in enumerate(hist) if n}


def stepping_order(a: int, n: int) -> int:
    """Least k >= 1 with a**k == 1 (mod n), stepping through the powers of a."""
    a %= n
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def searched_subgroup_ranks(group: AbelianGroup, generators) -> tuple[int, ...]:
    """The sorted ranks of the subgroup the generators span, found by a
    breadth-first search over exponent tuples from the identity."""
    gens = [group.reduce(g) for g in generators]
    seen = {group.rank(group.identity())}
    frontier = [group.identity()]
    while frontier:
        e = frontier.pop()
        for g in gens:
            f = group.add(e, g)
            r = group.rank(f)
            if r not in seen:
                seen.add(r)
                frontier.append(f)
    return tuple(sorted(seen))


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, found by closing generator sets to a fixpoint."""
    by_ranks: dict[tuple[int, ...], Subgroup] = {}
    trivial = Subgroup.trivial(group)
    frontier = [trivial]
    by_ranks[trivial.element_ranks] = trivial
    table = list(group.elements())
    while frontier:
        sub = frontier.pop()
        members = set(sub.element_ranks)
        for r, e in enumerate(table):
            if r in members:
                continue
            bigger = Subgroup.from_generators(group, sub.generators + (e,))
            if bigger.element_ranks not in by_ranks:
                by_ranks[bigger.element_ranks] = bigger
                frontier.append(bigger)
    return sorted(by_ranks.values(), key=lambda s: (s.order, s.element_ranks))


def stabilizer(e: AlgebraElement) -> Subgroup:
    """H = {g : g*e == e}, found by translating e by every element."""
    group = e.group
    fixed = [g for g in group.elements() if group.translate_bits(e.bits, g) == e.bits]
    return Subgroup.from_generators(group, fixed)


def quotient_is_cyclic(group: AbelianGroup, sub: Subgroup) -> bool:
    """Whether G / H is cyclic: some coset must have order [G : H]."""
    index = group.order // sub.order
    members = set(sub.element_ranks)
    for e in group.elements():
        k, x = 1, e
        while group.rank(x) not in members:
            x = group.add(x, e)
            k += 1
        if k == index:
            return True
    return False


def cyclic_quotient_covers(group: AbelianGroup, p: int) -> list[tuple[Subgroup, Subgroup]]:
    """(H, H*) for every proper H with cyclic quotient, in (|H|, ranks) order,
    where H* is the one subgroup of order p|H| that contains H."""
    subgroups = all_subgroups(group)
    pairs = []
    for sub in subgroups:
        if sub.order == group.order or not quotient_is_cyclic(group, sub):
            continue
        covers = [
            t
            for t in subgroups
            if t.order == p * sub.order and set(sub.element_ranks) <= set(t.element_ranks)
        ]
        assert len(covers) == 1, (sub.element_ranks, len(covers))
        pairs.append((sub, covers[0]))
    return pairs


def every_character_kernel(group: AbelianGroup, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """(ker chi, ker chi**p) as rank tuples, one pair per kernel, in (|H|, ranks)
    order, found by evaluating every nontrivial character of the p-group."""
    orders = group.factor_orders
    exponent = math.lcm(*orders)
    table = list(group.elements())
    kernels: dict[tuple[int, ...], tuple[int, ...]] = {}
    for c in itertools.product(*(range(n) for n in orders)):
        if not any(c):
            continue
        weights = [ci * (exponent // n) for ci, n in zip(c, orders)]
        chi = [sum(w * x for w, x in zip(weights, g)) % exponent for g in table]
        ranks = tuple(r for r, y in enumerate(chi) if y == 0)
        if ranks not in kernels:
            kernels[ranks] = tuple(r for r, y in enumerate(chi) if p * y % exponent == 0)
    return [(h, kernels[h]) for h in sorted(kernels, key=lambda h: (len(h), h))]


def chain_sides(group: AbelianGroup, p: int, axis: int) -> tuple[int, list[tuple]]:
    """The cyclic factor <g> on one axis of G, written out as the chain
    <g> > <g^p> > ... > 1: hat(<g>) as bits, and per level i = 1..m the side
    (hat(H) + hat(H*) as bits, dim, ranks of H, ranks of H*, base) with
    H = <g^(p^i)>, H* = <g^(p^(i-1))> and base g^(p^(i-1))."""
    g = group.generator(axis)
    m = next(i for i in itertools.count() if p**i == group.factor_orders[axis])
    levels = [Subgroup.from_generators(group, [group.scale(g, p**i)]) for i in range(m + 1)]
    sides = [
        (
            levels[i].hat().bits ^ levels[i - 1].hat().bits,
            p ** (i - 1) * (p - 1),
            levels[i].element_ranks,
            levels[i - 1].element_ranks,
            group.scale(g, p ** (i - 1)),
        )
        for i in range(1, m + 1)
    ]
    return levels[0].hat().bits, sides


def embedded_sides(group: AbelianGroup, p: int, axes: range) -> tuple[int, list[tuple]]:
    """The p-factor A of G on the cyclic factors `axes`, built in A as a group
    of its own and moved into G by padding each element with zeros: hat(A) as
    bits, and per kernel pair of every_character_kernel the side (bits, dim,
    ranks of H, ranks of H*, base), base the first element of H* outside H."""
    local = AbelianGroup(group.factor_orders[axes.start : axes.stop])
    pad_left = (0,) * axes.start
    pad_right = (0,) * (len(group.factor_orders) - axes.stop)

    def embed(sub: Subgroup) -> Subgroup:
        return Subgroup.from_generators(group, [pad_left + g + pad_right for g in sub.generators])

    def close(ranks: tuple[int, ...]) -> Subgroup:
        return Subgroup.from_generators(local, [local.unrank(r) for r in ranks])

    sides = []
    for h, h_star in every_character_kernel(local, p):
        sub, cover = embed(close(h)), embed(close(h_star))
        base = next(e for e in cover.elements() if group.rank(e) not in sub.element_ranks)
        dim = local.order // len(h) // p * (p - 1)
        bits = sub.hat().bits ^ cover.hat().bits
        sides.append((bits, dim, sub.element_ranks, cover.element_ranks, base))
    return embed(Subgroup.whole(local)).hat().bits, sides
