"""Orbits of group elements under squaring, and their sums in F2[G].

For odd |G| the squaring map g -> g**2 permutes G; its orbits index the simple
components of F2[G], so the orbit count doubles as a completeness certificate
for a family of primitive idempotents.
"""

from typing import NamedTuple

from .group_algebra import AbelianGroup, AlgebraElement, GroupElement
from .number_theory import PrimePair, residue_partition, validate_hypotheses


class CyclotomicClass(NamedTuple):
    """One orbit under squaring; the representative is the smallest rank member."""

    representative: GroupElement
    member_ranks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_ranks)


def cyclotomic_classes(group: AbelianGroup) -> list[CyclotomicClass]:
    """The orbit partition of G under squaring, ordered by representative rank.

    For odd |G| squaring permutes the ranks (group.power_ranks(2)); each
    orbit is one of its cycles, walked from its least rank.
    """
    if not group.is_odd:
        raise ValueError("squaring orbits are only supported for odd group order")
    perm = group.power_ranks(2)
    seen = bytearray(group.order)
    classes = []
    for root in range(group.order):
        if seen[root]:
            continue
        members = []
        r = root
        while not seen[r]:
            seen[r] = 1
            members.append(r)
            r = perm[r]
        classes.append(
            CyclotomicClass(representative=group.unrank(root), member_ranks=tuple(sorted(members)))
        )
    if sum(c.size for c in classes) != group.order:
        raise RuntimeError("orbit sizes do not add up to the group order")
    return classes


def class_count(group: AbelianGroup) -> int:
    return len(cyclotomic_classes(group))


def class_sum(group: AbelianGroup, x: GroupElement) -> AlgebraElement:
    """Sum over the squaring orbit of x."""
    if not group.is_odd:
        raise ValueError("squaring orbits are only supported for odd group order")
    perm = group.power_ranks(2)
    start = group.rank(group.reduce(x))
    bits, r = 1 << start, perm[start]
    while r != start:
        bits |= 1 << r
        r = perm[r]
    return AlgebraElement(group, bits)


class ClassStructureReport(NamedTuple):
    """Comparison of the computed orbits of C_p x C_q with their residue description."""

    pair: PrimePair
    case: str
    ok: bool
    mismatches: tuple[str, ...]


def verify_class_structure(pair: PrimePair | tuple[int, int]) -> ClassStructureReport:
    """Check the five orbits of C_p x C_q against their quadratic-residue form.

    The orbits must be: the identity; exponent pairs that are both residues or
    both nonresidues; the two single-factor classes; and the mixed
    residue/nonresidue class, whose orbit contains g**(p+q) when both primes
    are 3 mod 4 and g**-1 when p is 1 mod 4.
    """
    if not isinstance(pair, PrimePair):
        pair = validate_hypotheses(*pair)
    p, q = pair.p, pair.q
    if pair.m != 1 or pair.n != 1:
        raise ValueError("class structure verification applies to squarefree pq only")
    group = AbelianGroup([p, q])
    rp, rq = residue_partition(p), residue_partition(q)

    def ranks(pairs: set[tuple[int, int]]) -> frozenset[int]:
        return frozenset(group.rank(e) for e in pairs)

    expected = {
        "identity": ranks({(0, 0)}),
        "diagonal": ranks(
            {(i, j) for i in rp.residues for j in rq.residues}
            | {(i, j) for i in rp.nonresidues for j in rq.nonresidues}
        ),
        "first_factor": ranks({(i, 0) for i in range(1, p)}),
        "second_factor": ranks({(0, j) for j in range(1, q)}),
        "mixed": ranks(
            {(i, j) for i in rp.residues for j in rq.nonresidues}
            | {(i, j) for i in rp.nonresidues for j in rq.residues}
        ),
    }
    actual = {frozenset(c.member_ranks) for c in cyclotomic_classes(group)}
    mismatches = []
    for name, members in expected.items():
        if members not in actual:
            mismatches.append(f"expected class '{name}' is not an orbit")
    if len(actual) != 5:
        mismatches.append(f"found {len(actual)} orbits, expected 5")

    if p % 4 == 3:
        case = "both_primes_3_mod_4"
        probe = (q % p, p % q)
    else:
        case = "p_1_mod_4"
        probe = ((-1) % p, (-1) % q)
    if group.rank(probe) not in expected["mixed"]:
        mismatches.append(f"probe element {probe} is not in the mixed class")

    return ClassStructureReport(
        pair=pair,
        case=case,
        ok=not mismatches,
        mismatches=tuple(mismatches),
    )


__all__ = [
    "CyclotomicClass",
    "ClassStructureReport",
    "cyclotomic_classes",
    "class_count",
    "class_sum",
    "verify_class_structure",
]
