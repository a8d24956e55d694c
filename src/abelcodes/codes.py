"""Turning idempotents into codes: bases, exact minimum weights, distributions.

A code here is the minimal ideal generated by a primitive idempotent e: the
span over F2 of the translates g*e.  Minimum weights and weight distributions
are exact whenever 2**dim fits the enumeration budget and the N cosets the
scan folds fit MAX_SCAN_ENTRIES; otherwise honest bounds are reported, with
the provenance of each bound recorded.

Each ideal F2[G]e is read on its quotient G/H, H the stabilizer of e: G/H =
<gamma> is cyclic of order n', and the ideal is the |H|-fold coset lift of
the cyclic code of an n'-bit word e-bar (MacWilliams & Sloane, The Theory of
Error-Correcting Codes, ch. 7-8).  Each ideal has one cached record, _Ideal:
its quotient (_Quotient, all that a scan reads), its basis, certified of
dimension k = deg h (_checked_ideal), and, once a weight is asked for, its
one scan or the refusal of that scan.  An element whose G/H is not cyclic,
or, when a scan is asked for, that is not a field, is not a minimal ideal,
and a NotMinimalIdealError (a ValueError) refuses it; a sum of minimal
ideals with a cyclic G/H keeps its basis, dimension and idempotent count.

A minimal code is the field K = F2[x]/h (ibid., ch. 8), and one count
decides that: Berlekamp's c = k - rank(Q + I) on the record's squares
(_idempotent_count), read by verify_primitivity and by the scan's field
certificate (_certify_field).  A field code is scanned on n'-bit words once
per n' and carried to the other codes of that length by multipliers x -> x**u
(_carried_scan).  scan_codewords picks one of two exact scans: _dual_scan,
by the MacWilliams identity over the words of a small dual code, or
_coset_fold, bit-sliced over the N cosets of K*/T.  Only a family built
under overridden hypotheses has members that are not minimal ideals;
analyze_code reports weight bounds and a refused distribution for them.
"""

import math
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cyclotomic import verify_class_structure
from .gf2 import (
    bit_indices,
    gf2_rank,
    independent_row_indices,
    poly_gcd,
    poly_mulmod,
    poly_mulmod_cyclic,
)
from .group_algebra import (
    AbelianGroup,
    AlgebraElement,
    GroupElement,
    Subgroup,
    cyclic_exponent,
    gather_bits,
)
from .idempotents import IdempotentFamily, _check
from .number_theory import PrimePair, crt_inverses, factorize

DEFAULT_BUDGET = 1 << 24
MIN_BUDGET = 1 << 10
MAX_CACHED_CODES = 256  # bound for library callers; cli.run empties the cache per run
# The most cosets one scan may fold: N = (2**k - 1)/n', the bits of the
# fold's counter planes over all its blocks.  The fold's time grows with n' * N,
# and its memory is bounded by _FOLD_BLOCK, not by N: a fold of
# N = 13,944,699 (n' = 77, k = 30) took 0.3 s, with the peak RSS at the
# 17.4 MB of the import (CPython 3.11.7, 2-vCPU Xeon VM).  At the default
# budget no scan reaches the limit.
MAX_SCAN_ENTRIES = 1 << 24
# The cosets one block of the fold covers: its windows and its
# ceil(log2(n' + 1)) planes then hold at most 2**18 + n' * (k - 1) bits each.
_FOLD_BLOCK = 1 << 18


class BudgetExceededError(RuntimeError):
    """An enumeration was refused because 2**dim exceeds the budget (entries
    is 0), or because its fold would span `entries` cosets of K*/T, over
    MAX_SCAN_ENTRIES, the limit then reported as the budget."""

    def __init__(self, dimension: int, budget: int, *, entries: int = 0):
        if entries:
            message = (
                f"scanning 2**{dimension} codewords needs {entries} entries, over the "
                f"scan limit {budget}"
            )
        else:
            message = (
                f"enumerating 2**{dimension} codewords exceeds the budget {budget}; "
                f"required budget is {1 << dimension}"
            )
        super().__init__(message)
        self.dimension = dimension
        self.required_budget = 1 << dimension
        self.budget = budget
        self.entries = entries


class FalsificationError(AssertionError):
    """A value the theory pins down exactly came out different."""


class NotMinimalIdealError(ValueError):
    """F2[G]e is not a minimal ideal: its G/H is not cyclic, or it is not a field."""


def ideal_dimension(e: AlgebraElement) -> int:
    """Dimension of F2[G]e for an idempotent e: the length of its cached
    basis, which is deg h for the check polynomial h of its quotient record.
    An element whose G/H is not cyclic is not a minimal ideal:
    NotMinimalIdealError."""
    return len(_checked_ideal(e).basis)


def ideal_basis(e: AlgebraElement) -> list[AlgebraElement]:
    """A deterministic basis of translates of e.

    It is the translates of e by t * gamma for t < deg h, G/H = <gamma> the
    cyclic quotient: the first maximal independent set of translates taken
    along gamma.  An element whose G/H is not cyclic is not a minimal ideal
    and raises NotMinimalIdealError.  The record builds it once per element; later
    calls return a new list of the same words.
    """
    return list(_checked_ideal(e).basis)


class _Quotient(NamedTuple):
    """G/H = <gamma> for H the stabilizer of e, e read on it, and what every
    scan of the ideal reads.

    gamma generates G/H; coefficients[i] is the c with g_i = c * gamma
    modulo H, g_i the generator of factor i; order is n' = |G/H|; word is
    the n'-bit e-bar whose bit t is the coefficient of e at t * gamma;
    generator is g = gcd(e-bar, x**n' + 1) and check is h = (x**n' + 1)/g.
    c -> c * e-bar maps F2[x]/h onto the cyclic code of e-bar, generated by
    g, so the ideal, the |H|-fold coset lift of that code, has dimension
    k = deg h.
    """

    group: AbelianGroup
    gamma: GroupElement
    coefficients: tuple[int, ...]
    order: int
    word: int
    generator: int
    check: int

    @property
    def dimension(self) -> int:
        return self.check.bit_length() - 1

    @property
    def cosets(self) -> int:
        """N = (2**k - 1) // n', the cosets of K*/T when the ideal is a field."""
        return ((1 << self.dimension) - 1) // self.order

    @property
    def squares(self) -> list[int]:
        """x**(2i) mod h for i < k: the rows of y -> y**2 on F2[x]/h."""
        return _shift_images(1, self.check, 2 * self.dimension)[::2]

    def coset_indices(self) -> list[int]:
        """Entry r is the t with the rank-r element in t * gamma * H."""
        return self.group.linear_values(self.coefficients, self.order)

    def lift(self, word: int) -> int:
        """The word of F2[G] that is bit t of the n'-bit `word` on t * gamma * H."""
        return gather_bits(word, self.order, self.coset_indices())


def _cyclic_quotient(e: AlgebraElement) -> _Quotient:
    """The quotient record of e; NotMinimalIdealError when G/H is not cyclic.

    d_i, the order of g_i modulo H, is the least d with (d * g_i) * e == e:
    starting from n_i, each prime r of n_i is divided out while the quotient
    still fixes e, one translate per try.  For each prime r of n' = lcm(d_i), gamma takes
    (d_j / r**a) * g_j, of order r**a modulo H, from the first factor j with
    r**a dividing d_j; so gamma has order n' modulo H.  A factor that is j for
    every prime of its d_i lies in <gamma> + H by construction; any other must
    be found there, as c * gamma with c a unit multiple of n'/d_i, by one
    translate per candidate.  Then G/H = <gamma>.
    """
    group, bits = e.group, e.bits

    def fixed(g: GroupElement) -> bool:
        return group.translate_bits(bits, g) == bits

    generators = [group.generator(i) for i in range(len(group.factor_orders))]
    orders = []
    for g, n in zip(generators, group.factor_orders):
        d = n
        for r in factorize(n):
            while d % r == 0 and fixed(group.scale(g, d // r)):
                d //= r
        orders.append(d)
    order = math.lcm(*orders)
    gamma, owner = [0] * len(orders), {}
    for r, a in factorize(order).items():
        owner[r] = next(i for i, d in enumerate(orders) if d % r**a == 0)
        gamma[owner[r]] += orders[owner[r]] // r**a
    gamma_element = group.reduce(gamma)
    coefficients = []
    for i, (g, d) in enumerate(zip(generators, orders)):
        rest = order // d
        if all(owner[r] == i for r in factorize(d)):
            coefficients.append(rest * pow(rest * gamma[i], -1, d) % order)
            continue
        found = (
            rest * s
            for s in range(1, d)
            if math.gcd(s, d) == 1 and fixed(group.add(g, group.scale(gamma_element, -rest * s)))
        )
        c = next(found, None)
        if c is None:
            raise NotMinimalIdealError("G/H is not cyclic, so F2[G]e is not a minimal ideal")
        coefficients.append(c)
    word = gather_bits(bits, group.order, group.multiple_ranks(gamma_element, order))
    modulus = 1 << order | 1
    g = poly_gcd(modulus, word)
    h = _poly_quotient(modulus, g)
    return _Quotient(group, gamma_element, tuple(coefficients), order, word, g, h)


def _poly_quotient(a: int, b: int) -> int:
    """a // b over GF(2)."""
    q, deg = 0, b.bit_length()
    while a.bit_length() >= deg:
        shift = a.bit_length() - deg
        q |= 1 << shift
        a ^= b << shift
    return q


class _Ideal:
    """The checked basis of F2[G]e, its quotient record and, once read, the
    one scan of the code (dual_dimension: the m of scan_codewords for a scan
    of the 2**m dual words, else 0) or its refusal (NotMinimalIdealError or
    scan-limit BudgetExceededError)."""

    def __init__(
        self, e: AlgebraElement, basis: tuple[AlgebraElement, ...], quotient: _Quotient
    ) -> None:
        self.e, self.basis, self.quotient = e, basis, quotient
        self.dual_dimension = 0
        self.refusal: NotMinimalIdealError | BudgetExceededError | None = None

    @cached_property
    def scan(self) -> tuple[int, int, dict[int, int]]:
        """scan_codewords of the ideal, run once; callers copy the histogram.
        A refusal is kept and raised again on every later read, so the ideal
        is scanned or refused once until clear_caches drops the record.

        The histogram is checked against the number of nonzero codewords and
        the scan's own minimum before it is kept.
        """
        if self.refusal is not None:
            raise self.refusal
        rows = [x.bits for x in self.basis]
        try:
            best, word, hist = scan_codewords(rows, e=self.e)
        except (NotMinimalIdealError, BudgetExceededError) as exc:
            self.refusal = exc
            raise
        if sum(hist.values()) != (1 << len(rows)) - 1 or min(hist) != best:
            raise RuntimeError("weight histogram failed its internal consistency checks")
        return best, word, hist


@lru_cache(maxsize=MAX_CACHED_CODES)
def _checked_ideal(e: AlgebraElement) -> _Ideal:
    """The record of F2[G]e, whose dimension is certified to be k = deg h.
    The basis is the translates of e by t * gamma, t < k: they lift
    x**t * e-bar (_Quotient), and AbelianGroup.orbit_bits builds them from
    one rotation plan of gamma.  check_basis must find all k of them
    independent, so dim >= k.  And h * e-bar must vanish mod x**n' + 1
    (gf2.poly_mulmod_cyclic, one shift per term of h): h is monic of degree
    k, so x**k * e-bar, and by induction every later shift, lies in the span
    of the first k, so dim <= k."""
    group, quotient = e.group, _cyclic_quotient(e)
    k = quotient.dimension
    if poly_mulmod_cyclic(quotient.word, quotient.check, quotient.order):
        raise FalsificationError(f"the check polynomial of degree {k} does not annihilate e-bar")
    rows = group.orbit_bits(e.bits, quotient.gamma, k)  # k == 0 only for e == 0
    if check_basis(rows, e) != k:
        raise FalsificationError(f"the translates do not give {k} independent rows")
    return _Ideal(e, tuple(AlgebraElement(group, row) for row in rows), quotient)


def check_basis(rows: Sequence[int], e: AlgebraElement) -> int:
    """Certify the ideal F2[G]e with one squaring; return the rank of `rows`.

    Assumes every row is a translate g*e, as _checked_ideal passes them.
    Then (g*e)*e = g*(e*e), and translation is injective, so every row is
    fixed by e exactly when e*e == e.  In commutative characteristic 2,
    e*e = sum of g**2 over the support of e, which is e.frobenius(); that
    one squaring is the membership proof.  Callers with other words
    (explicit_bases) check x*e == x for each of them first.  The rows are a
    basis exactly when the rank is their count, which both callers require.
    """
    if e.frobenius() != e:
        raise FalsificationError("basis element is not fixed by the idempotent")
    return len(independent_row_indices(rows))


def verify_primitivity(e: AlgebraElement, predicted_dim: int | None = None) -> dict:
    """Count the idempotents of the ideal F2[G]e; e is primitive when there are two.

    The ideal is ring-isomorphic to K = F2[x]/h, h the check polynomial of
    its quotient record (|H| is odd, as hat(H)**2 = |H| * hat(H)), so it
    holds 2**c idempotents, c = _idempotent_count(quotient): 0 and e
    exactly when c == 1.  The cost is one rank of k rows of k bits.  An
    element whose G/H is not cyclic is not a minimal ideal and raises
    NotMinimalIdealError.
    """
    if e.frobenius() != e:
        raise ValueError("element is not idempotent")
    quotient = _checked_ideal(e).quotient
    k = quotient.dimension
    fixed = _idempotent_count(quotient)
    return {
        "dimension": k,
        "predicted_dimension": predicted_dim,
        "dimension_matches": predicted_dim is None or k == predicted_dim,
        "idempotents_found": 1 << fixed,
        "primitive": fixed == 1,
    }


def _idempotent_count(quotient: _Quotient) -> int:
    """c, for the 2**c idempotents of K = F2[x]/h: the package's one test
    of whether K is a field.

    The idempotents of K are the kernel of the F2-linear y -> y**2 + y.
    With Q the k x k matrix whose row i is x**(2i) mod h (the record's
    squares), it has dimension c = k - rank(Q + I) (Berlekamp, Bell Syst.
    Tech. J. 46, 1967).
    """
    k = quotient.dimension
    return k - gf2_rank([y ^ 1 << i for i, y in enumerate(quotient.squares)])


def _certify_field(quotient: _Quotient) -> None:
    """Certify the ideal as the field K = F2[x]/h: |G| is odd and
    _idempotent_count(quotient) == 1.  An ideal that is not a field is not
    a minimal ideal and raises NotMinimalIdealError.

    x -> x * e-bar maps F2[x]/h onto the quotient code of e, so the ideal is
    a field exactly when K is.  |G| odd makes n' odd, so x**n' + 1 is
    squarefree, and so is its factor h; K is then the product of the c
    fields F2[x]/f over the irreducible factors f of h, and a field exactly
    when c == 1.  (The odd |G| is needed: F2[C2] * 1 has h = (x + 1)**2 and
    c == 1, and is not a field.)

    Nothing else needs testing.  _cyclic_quotient makes the stabilizer of
    e-bar among its n' rotations trivial.  A root of an irreducible h of
    order d gives h | x**d + 1, so the rotation by d fixes e-bar, and
    d == n': then k = deg h = ord_n'(2), and N = (2**k - 1)/n' is exact.
    So neither a test of k == ord_n'(2) nor one of n' >= 2 could refuse a
    code that c == 1 passes, but for n' == 1, k == 1, the repetition code,
    which scan_codewords answers by its 2**k - 1 == n' shortcut before any
    certificate.  e == 0 has k == 0 and c == 0, and is refused.
    """
    if not quotient.group.is_odd or _idempotent_count(quotient) != 1:
        raise NotMinimalIdealError("F2[G]e is not a field, so it is not a minimal ideal")


def _orbit_multiplier(quotient: _Quotient) -> tuple[int, list[int], list[list[int]]]:
    """Find z of degree k in the field K = F2[x]/h, certified by the caller,
    that generates K*/T; return (z, coordinates, square) with coordinates =
    _power_coordinates(z, h, k) and square the split tables of y -> y**2 in
    K (the record's squares), the one table set the fold builds.

    T, the n' rotations of e-bar, is the unique subgroup of order n' of the
    cyclic group K*, so z generates K*/T, cyclic of order N = (2**k - 1)/n',
    exactly when z**((2**k - 1)/r) != 1 mod h for every prime r dividing N
    (_table_power).  Small polynomials z = x + 1, x**2, x**2 + 1, ... are
    tested in turn; z = x lies in T, so it never passes when N > 1.  A z in
    a proper subfield of K can still generate K*/T when n' > 2**(k/2)
    (x**2 + x + 1 for a length-85 code of dimension 8), but its powers span
    no basis of K, so the search moves on.  A primitive element of K passes
    both tests, so the search always ends.
    """
    f, k = quotient.check, quotient.dimension
    exponents = [((1 << k) - 1) // r for r in factorize(quotient.cosets)]
    square = _split_tables(quotient.squares, -(-k // 3))
    for z in range(3, 1 << k):
        if all(_table_power(square, z, f, m) != 1 for m in exponents):
            coordinates = _power_coordinates(z, f, k)
            if coordinates is not None:
                return z, coordinates, square


def _power_coordinates(z: int, f: int, k: int) -> list[int] | None:
    """Entry t is x**t in K = F2[x]/f written in the basis z**0, ..., z**(k - 1),
    bit b the coefficient of z**b; None when those powers are no basis, that
    is when z lies in a proper subfield of K.

    One Gauss-Jordan elimination: each power z**i, with its z-coordinates
    1 << i beside it, is reduced by the pivots so far, and its own pivot is
    cleared from theirs, so k independent powers end as the k rows x**t.
    """
    pivots: dict[int, tuple[int, int]] = {}
    y = 1
    for i in range(k):
        row, coords = y, 1 << i
        for t, (pivot, known) in pivots.items():
            if row >> t & 1:
                row, coords = row ^ pivot, coords ^ known
        if not row:
            return None
        top = row.bit_length() - 1
        for t, (pivot, known) in pivots.items():
            if pivot >> top & 1:
                pivots[t] = (pivot ^ row, known ^ coords)
        pivots[top] = (row, coords)
        y = poly_mulmod(y, z, f)
    return [pivots[t][1] for t in range(k)]


def _shift_images(z: int, f: int, count: int) -> list[int]:
    """z * x**i mod f for i < count, each from the one before by a shift."""
    top = 1 << (f.bit_length() - 1)
    images = []
    for _ in range(count):
        images.append(z)
        z <<= 1
        if z & top:
            z ^= f
    return images


def _split_tables(images: Sequence[int], width: int) -> list[list[int]]:
    """Three tables of the GF(2)-linear map that sends bit i to images[i].

    The image of x < 2**(3 * width) is
    t0[x & m] ^ t1[(x >> width) & m] ^ t2[x >> 2 * width], m = 2**width - 1.
    """
    tables = []
    for start in (0, width, 2 * width):
        table = [0]
        for image in images[start : start + width]:
            table += [t ^ image for t in table]
        tables.append(table)
    return tables


def _table_power(square: list[list[int]], z: int, f: int, exp: int) -> int:
    """z**exp in F2[x]/f by square-and-multiply, each square from the split
    tables `square` of y -> y**2 and each product by z from poly_mulmod."""
    s0, s1, s2 = square
    width = len(s0).bit_length() - 1
    mask, high = (1 << width) - 1, 2 * width
    y = 1
    for bit in bin(exp)[2:]:
        y = s0[y & mask] ^ s1[y >> width & mask] ^ s2[y >> high]
        if bit == "1":
            y = poly_mulmod(y, z, f)
    return y


def _unit_coset_leaders(n: int) -> tuple[int, ...]:
    """The least member of each coset u<2> of the units mod n, ascending.

    n is odd, so doubling permutes the units mod n, and its orbits are the
    cosets; each unit not yet met starts one, marked by doubling until it
    closes.  There are phi(n)/ord_n(2) of them, from one pass over the n
    residues."""
    seen = bytearray(n)
    leaders = []
    for u in range(1, n):
        if seen[u] or math.gcd(u, n) != 1:
            continue
        leaders.append(u)
        while not seen[u]:
            seen[u] = 1
            u = 2 * u % n
    return tuple(leaders)


# One faithful scan per quotient order n': (e-bar, min weight, a minimum word,
# histogram, m), all on n'-bit words, m the dimension of the dual code when
# the scan came from its 2**m words and 0 for a fold; emptied by clear_caches.
_faithful_scans: dict[int, tuple[int, int, int, dict[int, int], int]] = {}


def _carried_scan(quotient: _Quotient) -> tuple[int, int, dict[int, int], int] | None:
    """The faithful scan kept for n', carried to this code by a multiplier.

    mu_u, bit t -> bit u*t mod n', is a weight-preserving automorphism of
    F2[x]/(x**n' + 1) for a unit u.  The units act transitively on the
    faithful minimal codes of length n', and mu_2 maps each of them onto
    itself, so one u per coset of <2> meets every one.  When mu_u maps the
    kept e-bar to this one, it maps the kept code onto this code: the
    histogram and minimum carry over, and mu_u of the kept minimum word is a
    minimum word here.
    """
    kept = _faithful_scans.get(quotient.order)
    if kept is None:
        return None
    word, best, best_word, hist, dual = kept
    n = quotient.order
    for u in _unit_coset_leaders(n):
        sources = [u * t % n for t in range(n)]  # the sources of mu_(u**-1)
        if gather_bits(word, n, sources) == quotient.word:
            return best, gather_bits(best_word, n, sources), hist, dual
    return None


def _add_window(planes: list[int], window: int) -> None:
    """Add the 0/1 slice `window` to the bit-sliced counter `planes`, plane i
    holding bit i of every count, with a ripple carry."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ window
        window &= plane
        if not window:
            return


def _count_masks(planes: list[int], full: int, top: int) -> Iterator[tuple[int, int]]:
    """(w, the mask of the positions below full.bit_length() whose count is
    w) for each w from 1 to top that occurs, ascending.

    Each w takes one AND chain over the planes from the highest, a plane
    where bit i of w is set and its complement where it is clear; a chain
    that empties at plane i skips every w with the same bits from i up.
    """
    w = 1
    while w <= top:
        chain = full
        for i in reversed(range(len(planes))):
            chain = chain & planes[i] if w >> i & 1 else chain ^ (chain & planes[i])
            if not chain:
                w = ((w >> i) + 1) << i
                break
        else:
            yield w, chain
            w += 1


def _coset_fold(
    quotient: _Quotient, z: int, coordinates: list[int], square: list[list[int]]
) -> tuple[int, int, dict[int, int]]:
    """Minimum weight, a minimum word and the histogram of the quotient code
    of a field ideal, on n'-bit words, by the bit-sliced fold over the N
    cosets of K*/T, from the (z, coordinates, square) of _orbit_multiplier.

    The n' rotations of e-bar form a group T of units, and every weight is
    constant on the cosets yT; the word of y in K = F2[x]/h is the sum of
    beta**i, e-bar rotated by i, over the set bits i of y.  z generates
    K*/T, so the words z**j, 0 <= j < N, meet each coset once, and the
    histogram is n' times that of wt(z**j) over j < N.  Those N weights are
    computed bit-sliced.  Window c is the int V_c whose bit j is bit 0 of
    the word of x**c * z**j, which is bit -c mod n' of the word of z**j; so
    wt(z**j) is the number of windows c < n' with bit j set.  V_0 is the
    linear recurring sequence j -> bit 0 of the word of z**j, extended by
    doubling: with z**D = sum of d_b z**b, s_(j + D) = sum of d_b s_(j + b),
    the coordinates from one elimination over z**0, ..., z**(k - 1)
    (_power_coordinates).  V_(c + 1) is the XOR of V_c >> b over the b with
    x = sum of z**b, two shifts when z = x + 1; each window loses as many
    bits at its top as its largest shift b < k, so V_0 carries n' * b bits
    of margin.  A ripple-carry counter of n'.bit_length() planes adds the n'
    windows, and the count of weight w is the popcount of the AND of the
    planes (or their complements) that spell w, one AND chain per weight,
    cut short at the first empty prefix (_count_masks).  The exponents are
    folded in blocks of _FOLD_BLOCK, each block's V_0 started from z**start,
    so the memory does not grow with N.  The witness is the word of z**j for
    the least j of minimum weight; squaring permutes the cosets, so that j
    is the least of its doubling orbit.

    Four certificates close the fold, each a RuntimeError: window n' equals
    window 0 in every block (x**n' = 1 in K); every exponent gets a weight
    from 1 to n'; the weights add up to 2**(k - 1), as each coordinate of a
    nonzero cyclic code is 1 on half of its words; and the witness,
    recomputed through _table_power, has the minimum weight.
    """
    n, f, bar = quotient.order, quotient.check, quotient.word
    k, cosets = quotient.dimension, quotient.cosets
    powers = [(bar << i | bar >> (n - i)) & ((1 << n) - 1) for i in range(k)]
    # bit 0 of the word of y is the parity of y & probe
    probe = sum((word & 1) << i for i, word in enumerate(powers))
    shifts = list(bit_indices(coordinates[1]))  # x = sum of z**b over these b
    margin = n * shifts[-1]  # the bits the n' windows shift out
    # the passes of the sequence: from `have` terms, z**have = sum of z**b over `taps`
    plan, have = [], k
    while have < min(cosets, _FOLD_BLOCK) + margin:
        taps = 0
        for t in bit_indices(_table_power(square, z, f, have)):
            taps ^= coordinates[t]
        plan.append((have, list(bit_indices(taps))))
        have += have - k + 1
    counts: dict[int, int] = {}
    best, witness = n + 1, 0
    for start in range(0, cosets, _FOLD_BLOCK):
        size = min(_FOLD_BLOCK, cosets - start)
        # window 0: bit j is bit 0 of the word of z**(start + j)
        window, y = 0, _table_power(square, z, f, start)
        for i in range(k):
            window |= ((y & probe).bit_count() & 1) << i
            y = poly_mulmod(y, z, f)
        for have, taps in plan:
            if have >= size + margin:
                break
            ahead = window >> taps[0]
            for b in taps[1:]:
                ahead ^= window >> b
            window |= (ahead & ((1 << (have - k + 1)) - 1)) << have
        full = (1 << size) - 1
        first = window & full
        planes = [0] * n.bit_length()
        for _ in range(n):
            _add_window(planes, window & full)
            shifted = window >> shifts[0]
            for b in shifts[1:]:
                shifted ^= window >> b
            window = shifted
        if window & full != first:
            raise RuntimeError("the coset fold did not close: window n' is not window 0")
        for w, chain in _count_masks(planes, full, n):
            if w < best:
                best, witness = w, start + (chain & -chain).bit_length() - 1
            counts[w] = counts.get(w, 0) + chain.bit_count()
    if sum(counts.values()) != cosets:
        raise RuntimeError("the coset fold did not give every coset a weight from 1 to n'")
    if sum(w * c for w, c in counts.items()) != 1 << (k - 1):
        raise RuntimeError("the coset fold's weights do not add up to 2**(k - 1)")
    word = 0
    for i in bit_indices(_table_power(square, z, f, witness)):
        word ^= powers[i]
    if word.bit_count() != best:
        raise RuntimeError("the coset fold's witness does not have the minimum weight")
    return best, word, {w: n * counts[w] for w in sorted(counts)}


def _macwilliams(n: int, dual: Sequence[int], k: int) -> dict[int, int]:
    """The weight histogram of the nonzero words of a binary [n, k] code,
    from dual[i], the number of words of weight i of its [n, n - k] dual.

    By the MacWilliams identity (MacWilliams & Sloane, ch. 5) the code has
    A_j = 2**-(n - k) * sum_i dual[i] * K_j(i) words of weight j, with the
    Krawtchouk value K_j(i) = sum_s (-1)**s C(i, s) C(n - i, j - s), the
    coefficient of y**j in (1 - y)**i * (1 + y)**(n - i).  The sums are
    exact integers; unless each is a non-negative multiple of 2**(n - k),
    A_0 = 1 and the A_j add up to 2**k, they are not a weight distribution
    and RuntimeError refuses them.
    """
    m = n - k
    sums = [0] * (n + 1)
    for i, count in enumerate(dual):
        if count:
            minus = [(-1) ** s * math.comb(i, s) for s in range(i + 1)]
            plus = [count * math.comb(n - i, t) for t in range(n - i + 1)]
            for s, a in enumerate(minus):
                for j, b in enumerate(plus, s):
                    sums[j] += a * b
    if any(c < 0 or c % (1 << m) for c in sums) or sums[0] != 1 << m or sum(sums) != 1 << n:
        raise RuntimeError("the MacWilliams transform did not give a weight distribution")
    return {j: c >> m for j, c in enumerate(sums) if j and c}


def _dual_scan(quotient: _Quotient) -> tuple[int, int, dict[int, int]] | None:
    """Minimum weight, a minimum word and the histogram of the quotient code
    of a field ideal, on n'-bit words, from its dual code; None when the
    generator polynomial g is not a minimum word.

    The quotient code is the cyclic code generated by g, and its dual is
    generated by x**k h(1/x), the reciprocal of h (MacWilliams & Sloane,
    ch. 7): the span of its m = n' - k shifts, 2**m words, whose weight
    counts _macwilliams turns into the code's.  g is a codeword, so
    wt(g) >= d, and it is the minimum word kept when wt(g) == d.
    """
    n, h, k = quotient.order, quotient.check, quotient.dimension
    reciprocal = int(format(h, "b")[::-1], 2)
    words = [0]
    for i in range(n - k):
        row = reciprocal << i
        words += [w ^ row for w in words]
    dual = [0] * (n + 1)
    for w in words:
        dual[w.bit_count()] += 1
    hist = _macwilliams(n, dual, k)
    best = min(hist)
    if quotient.generator.bit_count() != best:
        return None
    return best, quotient.generator, hist


def scan_codewords(rows: Sequence[int], *, e: AlgebraElement) -> tuple[int, int, dict[int, int]]:
    """Minimum weight, the first word attaining it, and the weight histogram
    of the nonzero words of the ideal F2[G]e, whose basis rows are `rows`.

    The ideal is the |H|-fold coset lift of its quotient code (_Quotient),
    so its weights are |H| times those of that code: the scan runs on
    n'-bit words, and its minimum word is lifted to G, one coset of H per
    set bit.  When 2**k - 1 == n' the translates of e are all the nonzero
    words.  A code whose n' has a kept scan takes it (_carried_scan).  Any
    other is certified a field once, by its idempotent count (_certify_field),
    and takes the cheaper of two exact scans, which is then kept for its n':
    with m = n' - k, _dual_scan when 2**m <= N // k, at most one dual word
    for every k cosets the fold would count, and taken only when g is a
    minimum word; otherwise _coset_fold.

    An ideal that _certify_field cannot certify as a field (a sum of minimal
    ideals, the zero ideal, an ideal of an even group) is not a minimal ideal
    and raises NotMinimalIdealError, on either side.  An N over
    MAX_SCAN_ENTRIES raises BudgetExceededError, with entries = N, before
    that certificate, and a row count other than the dimension of the ideal
    raises ValueError before any scan.
    """
    k = len(rows)
    ideal = _checked_ideal(e)
    if k != len(ideal.basis):
        raise ValueError(f"scan_codewords takes {len(ideal.basis)} basis rows, got {k}")
    quotient = ideal.quotient
    orbit, cosets = quotient.order, quotient.cosets
    if (1 << k) - 1 == orbit:
        w = e.weight
        return w, e.bits, {w: orbit}
    if cosets > MAX_SCAN_ENTRIES:
        raise BudgetExceededError(k, MAX_SCAN_ENTRIES, entries=cosets)
    faithful = _carried_scan(quotient)
    if faithful is None:
        _certify_field(quotient)
        m = orbit - k
        # 2**m <= N // k
        scanned = _dual_scan(quotient) if k << m <= cosets else None
        if scanned is None:
            m, scanned = 0, _coset_fold(quotient, *_orbit_multiplier(quotient))
        faithful = (*scanned, m)
        if len(_faithful_scans) < MAX_CACHED_CODES:
            _faithful_scans.setdefault(orbit, (quotient.word, *faithful))
    best, word, hist, m = faithful
    ideal.dual_dimension = m
    scale = e.group.order // quotient.order
    return scale * best, quotient.lift(word), {scale * w: n for w, n in hist.items()}


def clear_caches() -> None:
    """Forget every cached ideal record and faithful scan; cli.run calls it
    as each run starts."""
    _checked_ideal.cache_clear()
    _faithful_scans.clear()


class WeightResult(NamedTuple):
    """Minimum weight of a code, exact or bracketed."""

    lower: int
    upper: int
    exact: bool
    witness: AlgebraElement | None = None
    notes: tuple[str, ...] = ()

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None

    def to_json(self) -> dict:
        return {
            "exact": self.exact,
            "min_weight": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "notes": list(self.notes),
        }


def minimum_weight(
    e: AlgebraElement,
    *,
    budget: int = DEFAULT_BUDGET,
    theory_lower: int | None = None,
    probes: Iterable[AlgebraElement] = (),
) -> WeightResult:
    """Exact minimum weight by enumeration, or bounds when it does not fit the
    budget or the scan limit (MAX_SCAN_ENTRIES), with a note naming which.
    Within both, an ideal that is not minimal raises NotMinimalIdealError.
    """
    k = len(ideal_basis(e))
    if (1 << k) > budget:
        note = f"enumeration refused: 2**{k} exceeds budget {budget}"
    else:
        ideal = _checked_ideal(e)
        try:
            best, word, _ = ideal.scan
        except BudgetExceededError as exc:
            note = f"enumeration refused: {exc}"
        else:
            m = ideal.dual_dimension
            if m:
                note = (
                    f"MacWilliams identity over all 2**{m} words of the dual of the "
                    f"length-{ideal.quotient.order} quotient code"
                )
            else:
                note = f"enumerated all 2**{k} - 1 nonzero codewords"
            return WeightResult(
                lower=best,
                upper=best,
                exact=True,
                witness=AlgebraElement(e.group, word),
                notes=(note,),
            )
    return _weight_bounds(e, note, theory_lower, probes)


def _weight_bounds(
    e: AlgebraElement, note: str, theory_lower: int | None, probes: Iterable[AlgebraElement]
) -> WeightResult:
    """Bounds on the minimum weight of a code that was not enumerated, `note`
    saying why.  The lower bound is 2 for augmentation-zero idempotents (all
    codewords then have even weight) and any supplied theory bound; the upper
    bound is the lightest among e itself and the probe codewords."""
    notes = [note]
    lower = 1
    if e.augmentation() == 0:
        lower = 2
        notes.append("lower bound 2: augmentation-zero code, all weights even")
    if theory_lower is not None and theory_lower > lower:
        lower = theory_lower
        notes.append(f"lower bound {theory_lower} supplied by theory")
    upper_witness = e
    for probe in probes:
        if probe.bits and probe * e == probe and probe.weight < upper_witness.weight:
            upper_witness = probe
    notes.append(f"upper bound {upper_witness.weight} from a constructed codeword")
    return WeightResult(
        lower=lower,
        upper=upper_witness.weight,
        exact=False,
        witness=upper_witness,
        notes=tuple(notes),
    )


def weight_distribution(e: AlgebraElement, *, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Full weight histogram of the nonzero codewords; raises
    BudgetExceededError beyond the budget or the scan limit, and within both
    NotMinimalIdealError for an ideal that is not minimal."""
    k = len(ideal_basis(e))
    if (1 << k) > budget:
        raise BudgetExceededError(k, budget)
    return dict(_checked_ideal(e).scan[2])


def code_seed_word(family: IdempotentFamily, label: str = "e3") -> AlgebraElement:
    """The short codeword (1 + a**s)(1 + b**t)e of a split pq idempotent.

    s and t invert q mod p and p mod q; the word has weight p + q exactly, and
    its translates form a basis of the ideal.  A different weight falsifies
    the construction.
    """
    if family.shape != "pq":
        raise ValueError("seed words are defined for the pq shape")
    p, q = int(family.params["p"]), int(family.params["q"])
    s, t = crt_inverses(p, q)
    group = family.group
    one = AlgebraElement.one(group)
    e = family.elements[label]
    y = (one + AlgebraElement.monomial(group, (s, 0))) * (
        one + AlgebraElement.monomial(group, (0, t))
    ) * e
    if y.bits == 0:
        raise FalsificationError("seed codeword vanished")
    if y.weight != p + q:
        raise FalsificationError(
            f"seed codeword of {label} has weight {y.weight}, expected {p + q}"
        )
    return y


def explicit_bases(family: IdempotentFamily) -> dict[str, dict[str, list[AlgebraElement]]]:
    """The explicit bases of the five pq ideals, each verified in place.

    e1 and e2 get both the hat-difference and the translate forms; e3 and e4
    get the translate orbit of their seed word, every member of weight p + q.
    """
    if family.shape != "pq":
        raise ValueError("explicit bases are defined for the pq shape")
    p, q = int(family.params["p"]), int(family.params["q"])
    group = family.group
    one = AlgebraElement.one(group)
    a_hat = Subgroup.from_generators(group, [(1, 0)]).hat()
    b_hat = Subgroup.from_generators(group, [(0, 1)]).hat()
    out: dict[str, dict[str, list[AlgebraElement]]] = {
        "e0": {"unit": [family.elements["e0"]]},
        "e1": {
            "hat_difference": [
                a_hat * (AlgebraElement.monomial(group, (0, j)) + one)
                for j in range(1, q)
            ],
            "translates": [
                family.elements["e1"].translated((0, j)) for j in range(1, q)
            ],
        },
        "e2": {
            "hat_difference": [
                (AlgebraElement.monomial(group, (j, 0)) + one) * b_hat
                for j in range(1, p)
            ],
            "translates": [
                family.elements["e2"].translated((j, 0)) for j in range(1, p)
            ],
        },
    }
    half = (p - 1) * (q - 1) // 2
    for label in ("e3", "e4"):
        y = code_seed_word(family, label)
        orbit = [y.translated((k, k)) for k in range(half)]
        for word in orbit:
            if word.weight != p + q:
                raise FalsificationError(
                    f"translate basis word of {label} has weight {word.weight}"
                )
        out[label] = {"seed_translates": orbit}
    for label, variants in out.items():
        e = family.elements[label]
        for basis in variants.values():
            # hat differences and seed-word translates are not translates of e
            if any(x * e != x for x in basis):
                raise FalsificationError("basis element is not fixed by the idempotent")
            if check_basis([x.bits for x in basis], e) != len(basis):
                raise FalsificationError("basis elements are linearly dependent")
            if len(basis) != family.predicted_dims[label]:
                raise FalsificationError(
                    f"basis of {label} has {len(basis)} words, expected "
                    f"{family.predicted_dims[label]}"
                )
    return out


def _table_weight(p: int, m: int, q: int, n: int, i: int, j: int) -> int:
    """The paper's minimum weight of I0, Ii0 and I0j (i == 0 or j == 0) on
    C_{p^m} x C_{q^n}: p**(m-i) q**(n-j), doubled off the repetition code."""
    return (2 if i or j else 1) * p ** (m - i) * q ** (n - j)


def table_witness_words(family: IdempotentFamily) -> dict[str, AlgebraElement]:
    """Codewords attaining the single-factor weight values of a prime-power family.

    For I0j the word is (1 + b**q**(j-1)) hat(a) hat(b**q**j), symmetrically
    for Ii0; a weight other than the table's falsifies the construction.  The
    two hats are the hat of the subgroup <a, b**q**j>, one closure, and the
    factor 1 + g is one translate and an XOR, so no product is taken.
    """
    if family.shape != "prime_power":
        raise ValueError("witness words are defined for the prime-power shape")
    p, q = int(family.params["p"]), int(family.params["q"])
    m, n = int(family.params["m"]), int(family.params["n"])
    group = family.group
    out: dict[str, AlgebraElement] = {}
    for label, (i, j) in family.levels.items():
        if i == 0 and j > 0:
            generators, step = [(1, 0), (0, q**j % q**n)], (0, q ** (j - 1))
        elif j == 0 and i > 0:
            generators, step = [(p**i % p**m, 0), (0, 1)], (p ** (i - 1), 0)
        else:
            continue
        hat = Subgroup.from_generators(group, generators).hat()
        word = hat + hat.translated(step)
        expected = _table_weight(p, m, q, n, i, j)
        if word.weight != expected:
            raise FalsificationError(
                f"witness for {label} has weight {word.weight}, expected {expected}"
            )
        out[label] = word
    return out


class TheoryWeight(NamedTuple):
    """What the theory says about a code's minimum weight, with provenance."""

    kind: str  # "exact" | "bounds" | "conjecture" | "none"
    value: int | None = None
    lower: int | None = None
    upper: int | None = None
    source: str = ""

    def to_json(self) -> dict:
        out: dict[str, object] = {"kind": self.kind, "source": self.source}
        if self.value is not None:
            out["value"] = self.value
        if self.lower is not None:
            out["lower"] = self.lower
        if self.upper is not None:
            out["upper"] = self.upper
        return out


def theoretical_expectations(family: IdempotentFamily) -> dict[str, TheoryWeight]:
    """Predicted minimum weights per label, tagged by their provenance.

    pq families have exact values for e0, e1, e2 and the bracket [4, p+q] for
    the split pair.  Prime-power families have exact values for I0, I0j, Ii0;
    the split codes carry a conjectured value only for (p, q) = (3, 5) with
    both indices strictly below the top level.  Other labels are left open.
    """
    out: dict[str, TheoryWeight] = {}
    if family.shape == "pq":
        p, q = int(family.params["p"]), int(family.params["q"])
        out["e0"] = TheoryWeight("exact", value=p * q, source="repetition code")
        out["e1"] = TheoryWeight("exact", value=2 * p, source="single-factor hat code")
        out["e2"] = TheoryWeight("exact", value=2 * q, source="single-factor hat code")
        for label in ("e3", "e4"):
            out[label] = TheoryWeight(
                "bounds", lower=4, upper=p + q, source="split-code bracket"
            )
    elif family.shape == "prime_power":
        p, q = int(family.params["p"]), int(family.params["q"])
        m, n = int(family.params["m"]), int(family.params["n"])
        for label, (i, j) in family.levels.items():
            if i == 0 or j == 0:
                out[label] = TheoryWeight(
                    "exact",
                    value=_table_weight(p, m, q, n, i, j),
                    source="single-factor weight table" if i or j else "repetition code",
                )
            elif (p, q) == (3, 5) and 1 <= i <= m - 1 and 1 <= j <= n - 1:
                out[label] = TheoryWeight(
                    "conjecture",
                    value=3 ** (m - i - 1) * 5 ** (n - j - 1) * 8,
                    source="conjectured split-code formula",
                )
            else:
                out[label] = TheoryWeight("none", source="no stated value")
    elif family.shape == "three_primes":
        p1, p2, p3 = (int(x) for x in family.params["primes"])  # type: ignore[index]
        out["e0"] = TheoryWeight("exact", value=p1 * p2 * p3, source="repetition code")
        for label in family.labels[1:]:
            out[label] = TheoryWeight("none", source="no stated value")
    else:
        for label in family.labels:
            out[label] = TheoryWeight("none", source="no stated value")
    return out


class CodeReport(NamedTuple):
    """Everything computed for one idempotent's code."""

    label: str
    dimension: int
    predicted_dimension: int
    min_weight: WeightResult | None  # None when no weights were asked for
    theory: TheoryWeight
    theory_match: bool | None
    distribution: dict[int, int] | None = None
    # when refused: the required budget, or why no budget would do
    distribution_refused: int | str | None = None

    @property
    def dimension_matches(self) -> bool:
        return self.dimension == self.predicted_dimension

    @property
    def falsified(self) -> bool:
        """True when an exact theory value is contradicted by an exact computation."""
        return self.theory_match is False and self.theory.kind in ("exact", "bounds")


def _theory_probes(family: IdempotentFamily) -> dict[str, AlgebraElement]:
    probes: dict[str, AlgebraElement] = {}
    if family.shape == "pq" and family.params.get("case") is not None:
        probes["e3"] = code_seed_word(family, "e3")
        probes["e4"] = code_seed_word(family, "e4")
    elif family.shape == "prime_power":
        probes.update(table_witness_words(family))
    return probes


def analyze_code(
    family: IdempotentFamily,
    label: str,
    *,
    budget: int = DEFAULT_BUDGET,
    want_distribution: bool = False,
    want_weights: bool = True,
    theory_map: dict[str, TheoryWeight] | None = None,
    probes: dict[str, AlgebraElement] | None = None,
) -> CodeReport:
    """Dimension, minimum weight and optional distribution for one label.

    The codewords are enumerated at most once: the distribution, the minimum
    weight and its witness all come from the ideal's one scan.  Without
    `want_weights` or `want_distribution` nothing is enumerated and
    `min_weight` is None.  `theory_map` and `probes` are the family's
    theoretical_expectations and _theory_probes, built here when not given.
    A member that is not a minimal ideal (only reachable when the family was
    built under overridden hypotheses) gets weight bounds and a refused
    distribution, each naming the reason; so does a distribution the scan
    limit refuses within the budget.
    """
    e = family.elements[label]
    basis = ideal_basis(e)
    if theory_map is None:
        theory_map = theoretical_expectations(family)
    if probes is None:
        probes = _theory_probes(family)
    theory = theory_map.get(label, TheoryWeight("none", source="no stated value"))
    result = None
    distribution = None
    refused = None
    if want_distribution:
        try:
            distribution = weight_distribution(e, budget=budget)
        except BudgetExceededError as exc:
            refused = str(exc) if exc.entries else exc.required_budget
        except NotMinimalIdealError as exc:
            refused = str(exc)
    if want_weights or want_distribution:
        theory_lower = theory.lower if theory.kind == "bounds" else None
        probe_words = [probes[label]] if label in probes else []
        try:
            result = minimum_weight(e, budget=budget, theory_lower=theory_lower, probes=probe_words)
        except NotMinimalIdealError as exc:
            note = f"enumeration refused: {exc}"
            result = _weight_bounds(e, note, theory_lower, probe_words)

    match: bool | None = None
    if result is not None and result.exact:
        if theory.kind in ("exact", "conjecture"):
            match = result.value == theory.value
        elif theory.kind == "bounds":
            match = theory.lower <= result.value <= theory.upper  # type: ignore[operator]

    return CodeReport(
        label=label,
        dimension=len(basis),
        predicted_dimension=family.predicted_dims[label],
        min_weight=result,
        theory=theory,
        theory_match=match,
        distribution=distribution,
        distribution_refused=refused,
    )


def analyze_family(
    family: IdempotentFamily,
    *,
    budget: int = DEFAULT_BUDGET,
    want_distribution: bool = False,
    want_weights: bool = True,
) -> dict[str, CodeReport]:
    """analyze_code for every label, with the theory values built once for the family."""
    theory_map = theoretical_expectations(family)
    probes = _theory_probes(family)
    return {
        label: analyze_code(
            family,
            label,
            budget=budget,
            want_distribution=want_distribution,
            want_weights=want_weights,
            theory_map=theory_map,
            probes=probes,
        )
        for label in family.labels
    }


class GeneratorMatrix(NamedTuple):
    """A k x |G| binary generator matrix in rank column order."""

    rows: tuple[int, ...]
    ncols: int

    def text(self) -> str:
        return "\n".join(
            "".join("1" if (row >> c) & 1 else "0" for c in range(self.ncols))
            for row in self.rows
        )

    def hex_rows(self) -> list[str]:
        nbytes = (self.ncols + 7) // 8
        return [row.to_bytes(nbytes, "little").hex() for row in self.rows]

    def to_json(self) -> dict:
        return {"ncols": self.ncols, "rows_hex": self.hex_rows()}


def generator_matrix(e: AlgebraElement) -> GeneratorMatrix:
    """The rows of ideal_basis(e); an element whose G/H is not cyclic is not
    a minimal ideal and raises NotMinimalIdealError."""
    basis = ideal_basis(e)
    return GeneratorMatrix(rows=tuple(x.bits for x in basis), ncols=e.group.order)


def distribution_csv(hist: dict[int, int]) -> str:
    """A weight histogram as CSV, one `weight,count` row per weight."""
    lines = ["weight,count"]
    lines.extend(f"{w},{hist[w]}" for w in sorted(hist))
    return "\n".join(lines) + "\n"


def split_swap_map_matches(family: IdempotentFamily) -> bool:
    """Whether the power map by a mixed-class exponent carries e3's support to e4's.

    The exponent k is read off the fifth squaring orbit (the mixed
    residue/nonresidue class); g -> g**k is a group automorphism, so it
    realizes the equivalence of the two split codes.  It carries e3 onto e4
    exactly when e4(g**k) = e3(g) for every g: one gather of e4 through the
    power table of k.
    """
    if family.shape != "pq":
        raise ValueError("the swap map applies to the pq shape")
    p, q = int(family.params["p"]), int(family.params["q"])
    group = family.group
    if family.params.get("case") == "a":
        k_pair = (q % p, p % q)
    else:
        k_pair = (p - 1, q - 1)
    # A single exponent acting as k_pair componentwise: the CRT lift.
    k = cyclic_exponent(group, k_pair)
    pulled_back = gather_bits(family.elements["e4"].bits, group.order, group.power_ranks(k))
    return pulled_back == family.elements["e3"].bits


def _report_checks(family: IdempotentFamily, reports: dict[str, CodeReport]) -> list[dict]:
    """The checks read off the family's code reports: dimensions and weights."""
    dim_bad = [lab for lab in family.labels if not reports[lab].dimension_matches]
    total = sum(reports[lab].dimension for lab in family.labels)
    weight_bad = []
    recorded = []
    for lab in family.labels:
        rep = reports[lab]
        if rep.falsified:
            weight_bad.append(lab)
        if rep.theory.kind == "conjecture":
            recorded.append(
                f"{lab}: enumerated "
                f"{rep.min_weight.value if rep.min_weight.exact else 'bounds'} "
                f"vs conjectured {rep.theory.value} "
                f"({'match' if rep.theory_match else 'no match' if rep.theory_match is False else 'not enumerated'})"
            )
    checks = [
        _check(
            "computed dimensions match predictions",
            not dim_bad,
            f"failing labels: {dim_bad}" if dim_bad else "all labels agree",
        ),
        _check(
            "dimensions sum to the group order",
            total == family.group.order,
            f"{total} vs {family.group.order}",
        ),
        _check(
            "exact weight statements hold within budget",
            not weight_bad,
            f"failing labels: {weight_bad}" if weight_bad else "no contradictions",
        ),
    ]
    if recorded:
        checks.append(
            _check(
                "conjectured split-code weights (recorded, not asserted)",
                True,
                "; ".join(recorded),
            )
        )
    return checks


def family_verification(
    family: IdempotentFamily,
    *,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """The full invariant suite for one family; any failed check is a falsification.

    Covers the family axioms, per-label dimension agreement, the dimension sum,
    and every weight statement the theory makes that fits the budget.
    Conjectured values are recorded but never falsify.  Bases and
    enumerations that an earlier analysis of the family already made are
    reused, not repeated.  The codes are analyzed first, and their certified
    dimensions let verify_axioms prove orthogonality without products.  A
    FalsificationError raised while analyzing the codes becomes a failed
    check, the axioms then multiply every pair, and the checks that need no
    code report still run.
    """
    try:
        reports = analyze_family(family, budget=budget)
    except FalsificationError as exc:
        reports = {}
        analyzed = [_check("every code of the family is analyzed", False, str(exc))]
    else:
        analyzed = _report_checks(family, reports)
    dimensions = {lab: rep.dimension for lab, rep in reports.items()} or None
    checks = family.verify_axioms(dimensions) + analyzed

    if family.shape == "pq" and family.params.get("case") is not None:
        structure = verify_class_structure(PrimePair(family.params["p"], family.params["q"]))
        name = "squaring orbits match their residue description"
        detail = "; ".join(structure.mismatches) or f"case {structure.case}"
        checks.append(_check(name, structure.ok, detail))
        name = "short split codeword has weight p + q"
        try:
            checks.append(_check(name, True, f"weight {code_seed_word(family, 'e3').weight}"))
        except FalsificationError as exc:
            checks.append(_check(name, False, str(exc)))
        name = "mixed-class power map carries e3 onto e4"
        checks.append(_check(name, split_swap_map_matches(family), "support sets compared"))
        if reports and reports["e3"].min_weight.exact and reports["e4"].min_weight.exact:
            w3, w4 = reports["e3"].min_weight.value, reports["e4"].min_weight.value
            checks.append(
                _check("the two split codes have equal minimum weight", w3 == w4, f"{w3} vs {w4}")
            )
    if family.shape == "prime_power":
        name = "single-factor weight witnesses have the table weights"
        try:
            witnesses = table_witness_words(family)
            checks.append(_check(name, True, f"{len(witnesses)} witnesses constructed"))
        except FalsificationError as exc:
            checks.append(_check(name, False, str(exc)))
    if family.shape == "three_primes":
        one = AlgebraElement.one(family.group)
        hats = one
        for i in range(3):
            sub = Subgroup.from_generators(family.group, [family.group.generator(i)])
            hats = hats * (one + sub.hat())
        four = sum((family.elements[f"e{i}"] for i in (11, 12, 13)), family.elements["e10"])
        name = "deep split idempotents sum to the triple-complement unity"
        checks.append(_check(name, four == hats, "bitset comparison"))

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "reports": reports,
    }


__all__ = [
    "DEFAULT_BUDGET",
    "MIN_BUDGET",
    "BudgetExceededError",
    "FalsificationError",
    "NotMinimalIdealError",
    "WeightResult",
    "TheoryWeight",
    "CodeReport",
    "GeneratorMatrix",
    "ideal_dimension",
    "ideal_basis",
    "check_basis",
    "verify_primitivity",
    "scan_codewords",
    "minimum_weight",
    "weight_distribution",
    "clear_caches",
    "code_seed_word",
    "explicit_bases",
    "table_witness_words",
    "theoretical_expectations",
    "analyze_code",
    "analyze_family",
    "generator_matrix",
    "distribution_csv",
    "split_swap_map_matches",
    "family_verification",
]
