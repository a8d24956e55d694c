"""Independent reference implementations that the tests compare the library with.

No code path of the package calls these; they are slow on purpose.
"""

from abelcodes.group_algebra import AbelianGroup, Subgroup


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
