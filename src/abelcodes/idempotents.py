"""Construction of the primitive idempotent families of F2[G].

Three group shapes are supported directly: C_p x C_q for a pair of odd primes,
C_{p^m} x C_{q^n} for prime powers, and C_{p1} x C_{p2} x C_{p3} for three
primes.  The general two-factor construction (an abelian p-group times an
abelian q-group) is exposed as well.  All four shapes share one builder over
the coprime factors of G (after Ferraz & Polcino Milies, Finite Fields Appl.
13, 2007): a member takes, for each factor, its hat or one of its sides
hat(H) + hat(H*), and a product of t >= 2 sides is split into 2**(t - 1)
halves through one u/v block per side level.  Every factor's sides are its
character kernels H = ker chi, H* = ker chi**p, built in place in G
(_p_factor); on a cyclic factor <g> they are the chain <g> > <g^p> > ... > 1.

Construction checks its own steps: each u/v block against its component
unity, each split pair (both halves idempotent, orthogonal, and summing to the
product idempotent they split), the orbit-sum forms of a validated pq pair,
and that the predicted dimensions sum to |G|.  It does not check the family
axioms: each member squares to itself, distinct members annihilate each
other, the members sum to 1, and their number equals the number of squaring
orbits of G.  IdempotentFamily.verify_axioms checks those, and --verify runs
it with the certified dimensions of the ideals, which prove orthogonality
without a product when the other checks pass.  Each ideal's basis
certificate (codes._checked_ideal) also proves that ideal's generator
idempotent, on every run that builds a basis, and codes.verify_primitivity
counts the ideal's idempotents in F2[x]/h, h the check polynomial of the
same record, on k-bit rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, cached_property, reduce
from typing import NamedTuple, Sequence

from .cyclotomic import class_count, class_sum
from .group_algebra import (
    AbelianGroup,
    AlgebraElement,
    GroupElement,
    Subgroup,
)
from .number_theory import (
    ConsistencyError,
    HypothesisError,
    factorize,
    is_odd_prime,
    multiplicative_order,
    validate_hypotheses,
)


class UVBlock(NamedTuple):
    """A cube root of a component unity, built from quadratic-residue exponents.

    `element` is the printed form: the subgroup hat times the sum of base
    powers with residue exponents, plus 1 inside the parenthesis when the
    prime is 3 mod 4.  `conjugate` is its square and `unity` is the component
    unity hat(H) + hat(H*); the three satisfy element + conjugate = unity and
    element**3 = unity.
    """

    element: AlgebraElement
    conjugate: AlgebraElement
    unity: AlgebraElement


def uv_block(
    group: AbelianGroup,
    base: GroupElement,
    prime: int,
    level_subgroup: Subgroup | None = None,
) -> UVBlock:
    """Build the u (or v, or w) block for `base`, one index-p level above H.

    H is `level_subgroup` (trivial when omitted); base must generate the
    unique subgroup H* with [H* : H] = p.  The even powers of 2 mod p are
    exactly the nonzero quadratic residues, so the inner sum runs over them.
    Checked: u + u**2 and u * u**2 are the component unity, so the support of
    u is even, as the augmentation is a ring map onto F2:
    aug(u) = aug(u * u**2) = aug(unity) = |H|(1 + p) mod 2 = 0.
    """
    if not is_odd_prime(prime):
        raise ValueError(f"{prime} is not an odd prime")
    h = level_subgroup or Subgroup.trivial(group)
    star = h.extended(base)
    if star.order != prime * h.order:
        raise ConsistencyError(
            f"base element does not step the subgroup by index {prime}"
        )
    powers = group.multiple_ranks(base, prime)  # distinct ranks: base is not in H
    bits = int(prime % 4 == 3)  # the identity, rank 0
    for r in {pow(2, 2 * k, prime) for k in range((prime - 1) // 2)}:
        bits |= 1 << powers[r]
    inner = AlgebraElement(group, bits)
    u = h.hat() * inner if h.order > 1 else inner
    u2 = u.frobenius()
    unity = h.hat() + star.hat()
    if u + u2 != unity:
        raise ConsistencyError("block element plus its conjugate is not the component unity")
    if u * u2 != unity:
        raise ConsistencyError("block element cubed is not the component unity")
    return UVBlock(element=u, conjugate=u2, unity=unity)


def split_pair(
    e_h: AlgebraElement,
    e_k: AlgebraElement,
    ub: UVBlock,
    vb: UVBlock,
) -> tuple[AlgebraElement, AlgebraElement]:
    """Split the product idempotent e_H * e_K into its two primitive halves.

    f1 = u*v + u2*v2 and f2 = u*v2 + u2*v, each product a block of one
    factor times a block of the other (an integer product, see
    AlgebraElement.__mul__).  Checked: both halves square to themselves;
    f1 * f2 = (u + u2)**2 * (v*v2) + (u*u2) * (v + v2)**2 = 0, exact in any
    commutative ring of characteristic 2, where only u*u2 and v*v2 stay
    within one factor and both cross products are integer products; and
    f1 + f2 = e_H * e_K.
    """
    u, u2 = ub.element, ub.conjugate
    v, v2 = vb.element, vb.conjugate
    f1 = u * v + u2 * v2
    f2 = u * v2 + u2 * v
    zero = AlgebraElement.zero(e_h.group)
    if f1.frobenius() != f1 or f2.frobenius() != f2:
        raise ConsistencyError("split produced a non-idempotent element")
    if (u + u2).frobenius() * (v * v2) + (u * u2) * (v + v2).frobenius() != zero:
        raise ConsistencyError("split halves are not orthogonal")
    if f1 + f2 != e_h * e_k:
        raise ConsistencyError("split halves do not sum to the product idempotent")
    return f1, f2


class _Side(NamedTuple):
    """A side idempotent hat(H) + hat(H*) of one p-factor of G, built in G.

    H = ker chi and H* = ker chi**p (`cover`) for a character chi of the
    factor, so H* is one index-p step above H; `base` is the first element of
    H*, in rank order, outside H.
    """

    element: AlgebraElement
    dim: int
    subgroup: Subgroup
    cover: Subgroup
    base: GroupElement


class _Factor(NamedTuple):
    """One coprime factor of G: its prime, its hat and its sides."""

    prime: int
    hat: AlgebraElement
    sides: Sequence[_Side]


class _Member(NamedTuple):
    """A member of a product family.  `levels` counts the sides of each factor
    from 1, with 0 for the hat; `halves` holds the pick (1 or 2) of each split."""

    levels: tuple[int, ...]
    halves: tuple[int, ...]
    element: AlgebraElement
    dim: int


def _subgroup_with_ranks(group: AbelianGroup, ranks: Sequence[int]) -> Subgroup:
    """The subgroup whose elements have these ranks, generated by the ranks
    (in order) that the earlier ones do not already generate."""
    sub = Subgroup.trivial(group)
    for r in ranks:
        if not sub.bits >> r & 1:
            sub = sub.extended(group.unrank(r))
    return sub


def _character_kernels(
    group: AbelianGroup, p: int, axes: range | None = None
) -> list[tuple[Subgroup, Subgroup]]:
    """(ker chi, ker chi**p) for the nontrivial characters chi of the abelian
    p-group A on the cyclic factors `axes` of G (all of them by default), one
    pair per kernel, sorted by the kernel's order and ranks.

    chi(g) = sum_i c_i * g_i * (N / n_i) mod N over the factors of A, where N
    is the exponent of A.  The kernels are exactly the subgroups H with
    nontrivial cyclic quotient, and ker chi**p is the unique subgroup one
    index-p step above H.  chi and chi**k with p not dividing k have the same
    two kernels, so one character is evaluated per cyclic subgroup of the dual
    group: the first met in product order, which marks the other generators of
    its subgroup seen.  The factors of A are a contiguous run of those of G,
    so an element's rank in G is its rank in A times places[axes.start].  Each
    distinct rank set is closed into a Subgroup of G once.
    """
    if axes is None:
        axes = range(len(group.factor_orders))
    orders = group.factor_orders[axes.start : axes.stop]
    place = group.rank(group.generator(axes.start))
    exponent = math.lcm(*orders)
    factor = AbelianGroup(orders)
    kernels: dict[tuple[int, ...], tuple[int, ...]] = {}
    seen: set[tuple[int, ...]] = set()
    for c in itertools.product(*(range(n) for n in orders)):
        if not any(c) or c in seen:
            continue
        seen.update(
            tuple(k * ci % n for ci, n in zip(c, orders)) for k in range(1, exponent) if k % p
        )
        weights = [ci * (exponent // n) for ci, n in zip(c, orders)]
        chi = factor.linear_values(weights, exponent)
        ranks = tuple(place * r for r, y in enumerate(chi) if y == 0)
        kernels[ranks] = tuple(place * r for r, y in enumerate(chi) if p * y % exponent == 0)
    closed = {ranks: _subgroup_with_ranks(group, ranks) for ranks in {*kernels, *kernels.values()}}
    return [
        (closed[h], closed[kernels[h]]) for h in sorted(kernels, key=lambda h: (len(h), h))
    ]


def _p_factor(group: AbelianGroup, p: int, axes: range) -> _Factor:
    """The factor of G that is the abelian p-group A on the cyclic factors
    `axes`: hat(A), and one side hat(H) + hat(H*) per character kernel pair,
    in the order of _character_kernels.  [A : H] = p**r gives the side the
    dimension p**(r-1) * (p-1)."""
    whole = Subgroup.from_generators(group, [group.generator(i) for i in axes])
    sides = []
    for sub, cover in _character_kernels(group, p, axes):
        outside = cover.bits & ~sub.bits
        base = group.unrank((outside & -outside).bit_length() - 1)
        dim = whole.order // sub.order // p * (p - 1)
        sides.append(_Side(sub.hat() + cover.hat(), dim, sub, cover, base))
    if 1 + sum(s.dim for s in sides) != whole.order:
        raise ConsistencyError("p-group idempotent dimensions do not sum to the order")
    return _Factor(p, whole.hat(), sides)


def _cyclic_factor(group: AbelianGroup, p: int, axis: int) -> _Factor:
    """The cyclic p-factor <g> on one axis, its sides in the chain order
    <g> > <g^p> > ... > 1: side i has H = <g^(p^i)>.  The kernels come
    smallest first, so the sides of _p_factor are reversed."""
    factor = _p_factor(group, p, range(axis, axis + 1))
    return factor._replace(sides=factor.sides[::-1])


def _product_members(group: AbelianGroup, factors: Sequence[_Factor]) -> list[_Member]:
    """The primitive idempotents of F2[G_1 x ... x G_r] from those of each factor.

    A member takes, for each factor, its hat or one of its sides.  With t >= 2
    sides it is one of 2**(t - 1) halves: the first side s0 is split against
    each later side sk (split_pair), one half of each split is picked, and the
    picked halves are multiplied with the remaining hats.  The halves of one
    split sum to s0 * sk, so all the picks together sum to the product of the
    t sides.  The dimension is the product of the side dimensions over
    2**(t - 1).  Members are ordered by t, then by levels, then by picks.  One
    u/v block is built per side level, in factor order, and one split per pair
    of sides.
    """
    sides, blocks = {}, {}
    for k, f in enumerate(factors):
        for lv, s in enumerate(f.sides, 1):
            sides[k, lv] = s
            blocks[k, lv] = uv_block(group, s.base, f.prime, s.subgroup)

    @cache
    def split(a: tuple[int, int], b: tuple[int, int]) -> tuple[AlgebraElement, AlgebraElement]:
        return split_pair(sides[a].element, sides[b].element, blocks[a], blocks[b])

    members = []
    grid = itertools.product(*(range(len(f.sides) + 1) for f in factors))
    for levels in sorted(grid, key=lambda lv: (len(lv) - lv.count(0), lv)):
        picked = [(k, lv) for k, lv in enumerate(levels) if lv]
        hats = [f.hat for f, lv in zip(factors, levels) if not lv]
        dim = math.prod(sides[s].dim for s in picked) >> max(len(picked) - 1, 0)
        if len(picked) < 2:
            element = reduce(operator.mul, hats + [sides[s].element for s in picked])
            members.append(_Member(levels, (), element, dim))
            continue
        pairs = [split(picked[0], s) for s in picked[1:]]
        for picks in itertools.product((1, 2), repeat=len(pairs)):
            halves = [pair[h - 1] for pair, h in zip(pairs, picks)]
            members.append(_Member(levels, picks, reduce(operator.mul, halves + hats), dim))
    return members


def _check(name: str, passed: bool, detail: str) -> dict:
    """One entry of a verification report."""
    return {"name": name, "passed": passed, "detail": detail}


class IdempotentFamily:
    """A complete labeled set of primitive idempotents for one group shape.

    `levels` is set for prime-power families: the subgroup level (i, j) of
    each label, I0 at (0, 0)."""

    def __init__(
        self,
        group: AbelianGroup,
        shape: str,
        labels: tuple[str, ...],
        elements: dict[str, AlgebraElement],
        predicted_dims: dict[str, int],
        params: dict[str, object] | None = None,
        levels: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        if set(labels) != set(elements) or set(labels) != set(predicted_dims):
            raise ValueError("labels, elements and predicted dimensions disagree")
        if sum(predicted_dims.values()) != group.order:
            raise ConsistencyError("predicted dimensions do not sum to the group order")
        self.group, self.shape, self.labels = group, shape, labels
        self.elements, self.predicted_dims = elements, predicted_dims
        self.params = {} if params is None else params
        self.levels = {} if levels is None else levels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def squaring_orbit_count(self) -> int:
        """class_count of the group, computed once per family."""
        return class_count(self.group)

    def verify_axioms(self, dimensions: dict[str, int] | None = None) -> list[dict]:
        """Idempotency, pairwise orthogonality, partition of unity, orbit count.

        `dimensions` maps each label to the exact dimension of its ideal
        F2[G]e (codes.family_verification passes the certified ones); never
        the predicted ones, which are the theory under test.  When every member
        squares to itself, the members sum to 1 and those dimensions sum to
        |G|, orthogonality needs no product: x = sum of x * e_i for every x,
        so F2[G] is the sum of the ideals, and the dimension count makes the
        sum direct, so e_i * e_j lies in F2[G]e_i & F2[G]e_j = 0.  Otherwise
        every pair is multiplied, so the detail names each failing pair.
        """
        members = [self.elements[lab] for lab in self.labels]
        bad = [lab for lab, x in zip(self.labels, members) if x.frobenius() != x]
        total = reduce(operator.add, members)
        ok_sum = total == AlgebraElement.one(self.group)
        proved = (
            not bad
            and ok_sum
            and dimensions is not None
            and sum(dimensions[lab] for lab in self.labels) == self.group.order
        )
        pairs = itertools.combinations(zip(self.labels, members), 2)
        bad_pairs = [] if proved else [(la, lb) for (la, x), (lb, y) in pairs if (x * y).bits]
        n_classes = self.squaring_orbit_count
        return [
            _check(
                "each member squares to itself",
                not bad,
                f"failing labels: {bad}" if bad else f"{len(self.labels)} members",
            ),
            _check(
                "distinct members annihilate each other",
                not bad_pairs,
                f"failing pairs: {bad_pairs}" if bad_pairs else "all pairs checked",
            ),
            _check("members sum to 1", ok_sum, "" if ok_sum else f"sum has weight {total.weight}"),
            _check(
                "member count equals squaring-orbit count",
                len(self.labels) == n_classes,
                f"{len(self.labels)} members, {n_classes} orbits",
            ),
        ]

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "factor_orders": list(self.group.factor_orders),
            "order": self.group.order,
            "parameters": {k: v for k, v in sorted(self.params.items())},
            "idempotents": {
                lab: {
                    "support_ranks": self.elements[lab].support_ranks(),
                    "hex": self.elements[lab].to_hex(),
                    "weight": self.elements[lab].weight,
                    "predicted_dimension": self.predicted_dims[lab],
                }
                for lab in self.labels
            },
        }


def _pq_class_sum_forms(
    group: AbelianGroup, p: int, q: int
) -> tuple[AlgebraElement, AlgebraElement]:
    """The orbit-sum forms of the two split idempotents of C_p x C_q."""
    s_g = class_sum(group, (1, 1))
    s_b = class_sum(group, (0, p % q))
    s_a = class_sum(group, (q % p, 0))
    if p % 4 == 3:
        e3 = s_g + s_b + s_a
        e4 = class_sum(group, (q % p, p % q)) + s_b + s_a
    else:
        e3 = s_g + s_a
        e4 = class_sum(group, (p - 1, q - 1)) + s_a
    return e3, e4


def family_pq(p: int, q: int, *, override: bool = False) -> IdempotentFamily:
    """The five primitive idempotents of F2[C_p x C_q].

    The pair is normalized so q == 3 (mod 4); e1 = hat(a)(1 + hat(b)) and
    e2 = (1 + hat(a))hat(b) refer to the normalized labels.  e3 is the split
    member whose support contains the generator g = (1, 1); e4 is the other.
    """
    p_in, q_in = p, q
    pair = validate_hypotheses(p, q, normalize=True, override=override)
    p, q = pair.p, pair.q
    group = AbelianGroup([p, q])
    factors = [_cyclic_factor(group, p, 0), _cyclic_factor(group, q, 1)]
    e0, e1, e2, f1, f2 = (member.element for member in _product_members(group, factors))
    e3, e4 = (f1, f2) if f1.contains((1, 1)) else (f2, f1)

    case = None
    if pair.validated:
        case = "a" if p % 4 == 3 else "b"
        expect3, expect4 = _pq_class_sum_forms(group, p, q)
        if e3 != expect3 or e4 != expect4:
            raise ConsistencyError("split idempotents disagree with their orbit-sum forms")

    half = (p - 1) * (q - 1) // 2
    labels = ("e0", "e1", "e2", "e3", "e4")
    return IdempotentFamily(
        group=group,
        shape="pq",
        labels=labels,
        elements={"e0": e0, "e1": e1, "e2": e2, "e3": e3, "e4": e4},
        predicted_dims={"e0": 1, "e1": q - 1, "e2": p - 1, "e3": half, "e4": half},
        params={
            "p": p,
            "q": q,
            "m": 1,
            "n": 1,
            "case": case,
            "input_order": [p_in, q_in],
            "hypothesis_warnings": list(pair.warnings),
        },
    )


def _split_label(i: int, j: int, m: int, n: int) -> str:
    if m > 9 or n > 9:
        return f"I{i},{j}"
    return f"I{i}{j}"


def family_prime_power(
    p: int, m: int, q: int, n: int, *, override: bool = False
) -> IdempotentFamily:
    """The 1 + m + n + 2mn primitive idempotents of F2[C_{p^m} x C_{q^n}].

    Labels keep the caller's (p, q) order: I0 is the all-ones hat, I0j and Ii0
    step down one subgroup level in a single factor, and each (i, j) level
    splits into Iij* and Iij** through the u, v blocks with their hat factors.
    """
    pair = validate_hypotheses(p, q, m, n, normalize=False, override=override)
    group = AbelianGroup([p**m, q**n])
    factors = [_cyclic_factor(group, p, 0), _cyclic_factor(group, q, 1)]

    labels: list[str] = []
    elements: dict[str, AlgebraElement] = {}
    dims: dict[str, int] = {}
    levels: dict[str, tuple[int, int]] = {}
    for member in _product_members(group, factors):
        i, j = member.levels
        lab = _split_label(i, j, m, n) + "*" * sum(member.halves) if i or j else "I0"
        labels.append(lab)
        elements[lab] = member.element
        dims[lab] = member.dim
        levels[lab] = member.levels

    return IdempotentFamily(
        group=group,
        shape="prime_power",
        labels=tuple(labels),
        elements=elements,
        predicted_dims=dims,
        params={
            "p": p,
            "q": q,
            "m": m,
            "n": n,
            "hypothesis_warnings": list(pair.warnings),
        },
        levels=levels,
    )


def validate_triple(p1: int, p2: int, p3: int, *, override: bool = False) -> tuple[str, ...]:
    """Admissibility of a prime triple: pairwise gcd of p-1 equal to 2, and 2
    generating the units modulo each prime."""
    failures = []
    primes = (p1, p2, p3)
    if len(set(primes)) != 3 or not all(is_odd_prime(r) for r in primes):
        failures.append(f"{primes} is not a triple of distinct odd primes")
        return tuple(failures)
    for i in range(3):
        for j in range(i + 1, 3):
            g = math.gcd(primes[i] - 1, primes[j] - 1)
            if g != 2:
                failures.append(
                    f"gcd({primes[i]}-1, {primes[j]}-1) = {g}, expected 2"
                )
    for r in primes:
        order = multiplicative_order(2, r)
        if order != r - 1:
            failures.append(f"2 has order {order} mod {r}, expected {r - 1}")
    if failures and not override:
        raise HypothesisError(failures)
    return tuple(failures)


def family_three_primes(
    p1: int, p2: int, p3: int, *, override: bool = False
) -> IdempotentFamily:
    """The fourteen primitive idempotents of F2[C_p1 x C_p2 x C_p3].

    e0..e3 take the three factor hats or one side, e4..e9 are the halves of
    the three pairwise splits times the remaining hat, and e10..e13 are the
    four products of a half of the (p1, p2) split with a half of the (p1, p3)
    split, the components of (1 + hat(a))(1 + hat(b))(1 + hat(c)).
    """
    warnings = validate_triple(p1, p2, p3, override=override)
    group = AbelianGroup([p1, p2, p3])
    factors = [_cyclic_factor(group, r, k) for k, r in enumerate((p1, p2, p3))]
    members = _product_members(group, factors)
    # the labels number the members in another order than the builder's
    built = [f"e{i}" for i in (0, 1, 2, 3, 8, 9, 6, 7, 4, 5, 11, 10, 13, 12)]
    return IdempotentFamily(
        group=group,
        shape="three_primes",
        labels=tuple(f"e{i}" for i in range(14)),
        elements={lab: member.element for lab, member in zip(built, members)},
        predicted_dims={lab: member.dim for lab, member in zip(built, members)},
        params={"primes": [p1, p2, p3], "hypothesis_warnings": list(warnings)},
    )


class PGroupIdempotent(NamedTuple):
    """One primitive idempotent of F2[A] for an abelian p-group A."""

    label: str
    subgroup: Subgroup
    cover: Subgroup | None
    element: AlgebraElement
    predicted_dim: int


def _p_group_prime(factor_orders: Sequence[int], *, override: bool = False) -> int:
    """The prime of an abelian p-group given by its factor orders, after
    checking that it is odd and that 2 has order p(p-1) mod p**2."""
    factors = factorize(math.prod(factor_orders))
    if len(factors) != 1:
        raise ValueError("factor orders must all be powers of one prime")
    p = next(iter(factors))
    if p == 2:
        raise ValueError("the prime must be odd")
    order_mod_p2 = multiplicative_order(2, p * p)
    if order_mod_p2 != p * (p - 1) and not override:
        raise HypothesisError(
            [f"2 has order {order_mod_p2} mod {p}**2, expected {p * (p - 1)}"]
        )
    return p


def p_group_idempotents(
    factor_orders: Sequence[int], *, override: bool = False
) -> list[PGroupIdempotent]:
    """Primitive idempotents of an abelian p-group: the full hat, plus
    hat(H) + hat(H*) for every H with nontrivial cyclic quotient.

    The records are the factor _p_factor builds on the whole group: the pairs
    (H, H*) are the character kernels, and the ideal generated by
    hat(H) + hat(H*) has dimension p**(r-1) * (p-1) where [A : H] = p**r.
    """
    p = _p_group_prime(factor_orders, override=override)
    group = AbelianGroup(factor_orders)
    factor = _p_factor(group, p, range(len(group.factor_orders)))
    return [PGroupIdempotent("hat", Subgroup.whole(group), None, factor.hat, 1)] + [
        PGroupIdempotent(f"H{k}", s.subgroup, s.cover, s.element, s.dim)
        for k, s in enumerate(factor.sides, 1)
    ]


def family_two_factor(
    p_factors: Sequence[int],
    q_factors: Sequence[int],
    *,
    override: bool = False,
) -> IdempotentFamily:
    """Primitive idempotents of F2[G_p x G_q] for abelian p- and q-groups.

    The members are hat(G_p)hat(G_q); hat(G_p) times each q-side idempotent;
    each p-side idempotent times hat(G_q); and for every (H, K) pair the two
    halves of e_H e_K split through the u and v blocks built from coset
    generators of H* / H and K* / K.
    """
    for side, orders in (("p_factors", p_factors), ("q_factors", q_factors)):
        if not orders:
            raise ValueError(f"{side} is empty: each side needs at least one cyclic factor")
    p = next(iter(factorize(math.prod(p_factors))))
    q = next(iter(factorize(math.prod(q_factors))))
    pair = validate_hypotheses(p, q, normalize=False, override=override)
    for orders in (p_factors, q_factors):
        _p_group_prime(orders, override=override)

    group = AbelianGroup(tuple(p_factors) + tuple(q_factors))
    cut = len(p_factors)
    factors = [
        _p_factor(group, p, range(cut)),
        _p_factor(group, q, range(cut, len(group.factor_orders))),
    ]

    labels: list[str] = []
    elements: dict[str, AlgebraElement] = {}
    dims: dict[str, int] = {}
    for member in _product_members(group, factors):
        p_lab, q_lab = (f"H{lv}" if lv else "hat" for lv in member.levels)
        lab = f"e_{p_lab}_{q_lab}" + "".join(f"_{h}" for h in member.halves)
        labels.append(lab)
        elements[lab] = member.element
        dims[lab] = member.dim

    return IdempotentFamily(
        group=group,
        shape="two_factor_general",
        labels=tuple(labels),
        elements=elements,
        predicted_dims=dims,
        params={
            "p": p,
            "q": q,
            "p_factors": list(p_factors),
            "q_factors": list(q_factors),
            "hypothesis_warnings": list(pair.warnings),
        },
    )


__all__ = [
    "UVBlock",
    "IdempotentFamily",
    "PGroupIdempotent",
    "uv_block",
    "split_pair",
    "family_pq",
    "family_prime_power",
    "family_three_primes",
    "family_two_factor",
    "validate_triple",
    "p_group_idempotents",
]
