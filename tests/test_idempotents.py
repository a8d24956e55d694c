import itertools
import json
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcodes import idempotents
from abelcodes.codes import (
    MIN_BUDGET,
    NotMinimalIdealError,
    family_verification,
    ideal_dimension,
    verify_primitivity,
)
from abelcodes.cyclotomic import class_count, cyclotomic_classes
from abelcodes.gf2 import independent_row_indices
from abelcodes.group_algebra import (
    AbelianGroup,
    AlgebraElement,
    Subgroup,
    as_cyclic,
)
from abelcodes.idempotents import (
    family_pq,
    family_prime_power,
    family_three_primes,
    family_two_factor,
    UVBlock,
    p_group_idempotents,
    split_pair,
    uv_block,
)
from abelcodes.number_theory import (
    ConsistencyError,
    HypothesisError,
    factorize,
    hypothesis_failures,
    is_odd_prime,
)
from oracles import (
    all_translates,
    chain_sides,
    cyclic_quotient_covers,
    embedded_sides,
    every_character_kernel,
    gray_flip_sequence,
    per_bit_square,
    per_term_product,
    quotient_is_cyclic,
    replace_elements,
    stabilizer,
)

GOLDEN_15 = [1, 2, 3, 4, 6, 8, 9, 12]
GOLDEN_33 = [1, 2, 3, 4, 6, 8, 9, 11, 12, 15, 16, 17, 18, 21, 22, 24, 25, 27, 29, 30, 31, 32]


def _members(fam):
    """A family up to its labels: the group, and each member with its predicted dimension."""
    return fam.group.factor_orders, Counter(
        (fam.elements[lab].bits, fam.predicted_dims[lab]) for lab in fam.labels
    )


class TestUVBlocks:
    def test_p3(self):
        g = AbelianGroup([3])
        block = uv_block(g, (1,), 3)
        assert block.element == AlgebraElement.from_terms(g, [(0,), (1,)])
        assert block.conjugate == AlgebraElement.from_terms(g, [(0,), (2,)])

    def test_p5(self):
        g = AbelianGroup([5])
        block = uv_block(g, (1,), 5)
        assert block.element == AlgebraElement.from_terms(g, [(1,), (4,)])

    def test_prime_power_level(self):
        g = AbelianGroup([9])
        h = Subgroup.from_generators(g, [(3,)])
        block = uv_block(g, (1,), 3, h)
        assert sorted(block.element.support_ranks()) == [0, 1, 3, 4, 6, 7]

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_block_relations(self, p):
        g = AbelianGroup([p])
        block = uv_block(g, (1,), p)
        assert block.element + block.conjugate == block.unity
        assert block.element**3 == block.unity
        assert block.element.augmentation() == 0


class TestSplitChecks:
    """Each check of split_pair runs and fails on blocks built to break it."""

    group = AbelianGroup([3, 5])
    one, zero = AlgebraElement.one(group), AlgebraElement.zero(group)
    a = Subgroup.from_generators(group, [(1, 0)]).hat()
    b = Subgroup.from_generators(group, [(0, 1)]).hat()

    def test_real_blocks_split_the_product_of_the_sides(self):
        ub, vb = uv_block(self.group, (1, 0), 3), uv_block(self.group, (0, 1), 5)
        e_h, e_k = self.one + self.a, self.one + self.b
        f1, f2 = split_pair(e_h, e_k, ub, vb)
        u, u2, v, v2 = ub.element, ub.conjugate, vb.element, vb.conjugate
        assert f1 == per_term_product(u, v) + per_term_product(u2, v2)
        assert f2 == per_term_product(u, v2) + per_term_product(u2, v)
        assert per_term_product(f1, f2) == self.zero
        assert f1 + f2 == per_term_product(e_h, e_k)

    @pytest.mark.parametrize(
        "orders, u_level, v_level", [([3, 5], None, None), ([9, 25], (3, 0), (0, 5))], ids=str
    )
    def test_each_term_of_the_orthogonality_check_alone_is_not_zero(
        self, orders, u_level, v_level
    ):
        # f1 * f2 = (u + u2)**2 * (v*v2) + (u*u2) * (v + v2)**2; on real blocks
        # each term is the product of the two component unities, so a check
        # that kept one term alone would refuse every split
        group = AbelianGroup(orders)
        ub, vb = (
            uv_block(group, base, p, level and Subgroup.from_generators(group, [level]))
            for base, p, level in (((1, 0), 3, u_level), ((0, 1), 5, v_level))
        )
        u, u2, v, v2 = ub.element, ub.conjugate, vb.element, vb.conjugate
        su, sv = u + u2, v + v2
        first = per_term_product(per_term_product(su, su), per_term_product(v, v2))
        second = per_term_product(per_term_product(u, u2), per_term_product(sv, sv))
        unities = per_term_product(ub.unity, vb.unity)
        assert first == second == unities != AlgebraElement.zero(group)
        f1, f2 = split_pair(ub.unity, vb.unity, ub, vb)
        assert first + second == per_term_product(f1, f2) == AlgebraElement.zero(group)

    def test_a_half_that_is_not_idempotent(self):
        ub = UVBlock(self.one, self.zero, self.one)
        vb = UVBlock(AlgebraElement.monomial(self.group, (0, 1)), self.zero, self.b)
        with pytest.raises(ConsistencyError, match="split produced a non-idempotent element"):
            split_pair(self.one, self.one, ub, vb)

    def test_halves_that_are_idempotent_but_not_orthogonal(self):
        # f1 = f2 = hat(a) * hat(b), the idempotent hat of the whole group
        ub = UVBlock(self.a, self.a, self.a)
        vb = UVBlock(self.b, self.zero, self.b)
        assert per_term_product(self.a * self.b, self.a * self.b) != self.zero
        with pytest.raises(ConsistencyError, match="split halves are not orthogonal"):
            split_pair(self.one, self.one, ub, vb)

    def test_halves_that_pass_a_check_reading_the_unities_are_not_orthogonal(self):
        # U = 1 + hat(a), V = 1 + hat(b): both halves are idempotent and sum to U*V,
        # and a check that read ub.unity for u*u2 and vb.unity for v*v2 would give
        # U*V + U*V = 0, yet f1 * f2 = U * hat(b) != 0
        big_u, big_v = self.one + self.a, self.one + self.b
        ub = UVBlock(big_u, self.zero, big_u)
        vb = UVBlock(self.b, self.one, big_v)
        f1, f2 = per_term_product(big_u, self.b), big_u
        assert f1 + f2 == per_term_product(big_u, big_v)
        assert per_term_product(f1, f1) == f1 and per_term_product(f2, f2) == f2
        assert per_term_product(f1, f2) != self.zero
        su, sv = ub.element + ub.conjugate, vb.element + vb.conjugate
        read_unities = per_term_product(per_term_product(su, su), vb.unity) + per_term_product(
            ub.unity, per_term_product(sv, sv)
        )
        assert read_unities == self.zero
        with pytest.raises(ConsistencyError, match="split halves are not orthogonal"):
            split_pair(big_u, big_v, ub, vb)

    def test_halves_that_do_not_sum_to_the_product(self):
        ub, vb = uv_block(self.group, (1, 0), 3), uv_block(self.group, (0, 1), 5)
        with pytest.raises(ConsistencyError, match="do not sum to the product idempotent"):
            split_pair(self.one, self.one, ub, vb)


class TestFamilyPQ:
    def test_c15_golden(self):
        fam = family_pq(3, 5)
        assert (fam.params["p"], fam.params["q"]) == (5, 3)
        assert fam.params["case"] == "b"
        assert sorted(as_cyclic(fam.elements["e3"]).support_ranks()) == GOLDEN_15
        assert sorted(as_cyclic(fam.elements["e4"]).support_ranks()) == [
            3, 6, 7, 9, 11, 12, 13, 14,
        ]
        assert fam.elements["e0"].weight == 15
        assert fam.predicted_dims == {"e0": 1, "e1": 2, "e2": 4, "e3": 4, "e4": 4}

    def test_c33_golden(self):
        fam = family_pq(3, 11)
        assert fam.params["case"] == "a"
        e3 = fam.elements["e3"]
        assert e3.weight == 22
        assert sorted(as_cyclic(e3).support_ranks()) == GOLDEN_33

    def test_c15_bit_exact_export(self):
        # frozen: rank order over factors [5, 3], little-endian bytes
        fam = family_pq(3, 5)
        assert list(fam.group.factor_orders) == [5, 3]
        assert {lab: fam.elements[lab].to_hex() for lab in fam.labels} == {
            "e0": "ff7f", "e1": "e07f", "e2": "de7b", "e3": "5e32", "e4": "9e49",
        }
        payload = fam.to_json()
        assert payload["idempotents"]["e3"]["hex"] == "5e32"
        assert payload["idempotents"]["e3"]["support_ranks"] == [1, 2, 3, 4, 6, 9, 12, 13]

    def test_e3_contains_the_generator(self):
        for p, q in ((3, 5), (3, 11), (11, 13)):
            fam = family_pq(p, q)
            assert fam.elements["e3"].contains((1, 1))
            assert not fam.elements["e4"].contains((1, 1))

    @pytest.mark.parametrize("pq", [(3, 5), (3, 11), (11, 13)])
    def test_axioms(self, pq):
        fam = family_pq(*pq)
        assert all(c["passed"] for c in fam.verify_axioms())
        assert len(fam.labels) == class_count(fam.group) == 5

    def test_rejects_bad_pairs(self):
        with pytest.raises(HypothesisError):
            family_pq(5, 11)


class TestFamilyPrimePower:
    def test_c45(self):
        fam = family_prime_power(3, 2, 5, 1)
        assert len(fam.labels) == 8
        assert fam.predicted_dims == {
            "I0": 1, "I01": 4, "I10": 2, "I20": 6,
            "I11*": 4, "I11**": 4, "I21*": 12, "I21**": 12,
        }
        assert all(c["passed"] for c in fam.verify_axioms())

    def test_levels_name_the_subgroup_level_of_each_label(self):
        fam = family_prime_power(3, 2, 5, 1)
        assert fam.levels == {
            "I0": (0, 0), "I01": (0, 1), "I10": (1, 0), "I20": (2, 0),
            "I11*": (1, 1), "I11**": (1, 1), "I21*": (2, 1), "I21**": (2, 1),
        }
        assert family_pq(3, 5).levels == {}

    def test_c225_shape(self):
        fam = family_prime_power(3, 2, 5, 2)
        assert len(fam.labels) == 1 + 2 + 2 + 2 * 2 * 2
        assert fam.predicted_dims["I11*"] == 4
        assert fam.predicted_dims["I12*"] == 20
        assert fam.predicted_dims["I22*"] == 60
        assert sum(fam.predicted_dims.values()) == 225
        assert len(fam.labels) == class_count(fam.group)

    def test_deeper_exponent_dims_by_rank(self):
        fam = family_prime_power(3, 3, 5, 1)
        from abelcodes.codes import ideal_dimension

        assert sum(fam.predicted_dims.values()) == 135
        for label in fam.labels:
            assert ideal_dimension(fam.elements[label]) == fam.predicted_dims[label]

    def test_degenerate_case_equals_pq_family(self):
        pp = family_prime_power(3, 1, 5, 1)
        pq = family_pq(3, 5)
        pp_set = {as_cyclic(e).bits for e in pp.elements.values()}
        pq_set = {as_cyclic(e).bits for e in pq.elements.values()}
        assert pp_set == pq_set
        # labels correspond through the hat structure and the split order
        pairs = {
            "I0": "e0", "I01": "e2", "I10": "e1", "I11*": "e3", "I11**": "e4",
        }
        for pp_label, pq_label in pairs.items():
            assert as_cyclic(pp.elements[pp_label]).bits == as_cyclic(
                pq.elements[pq_label]
            ).bits
            assert pp.predicted_dims[pp_label] == pq.predicted_dims[pq_label]


class TestFamilyThreePrimes:
    def test_c165(self):
        fam = family_three_primes(3, 5, 11)
        assert len(fam.labels) == 14
        assert [fam.predicted_dims[l] for l in fam.labels] == [
            1, 10, 4, 2, 4, 4, 10, 10, 20, 20, 20, 20, 20, 20,
        ]
        assert sum(fam.predicted_dims.values()) == 165
        assert all(c["passed"] for c in fam.verify_axioms())
        assert len(fam.labels) == class_count(fam.group)

    def test_rejects_bad_triples(self):
        with pytest.raises(HypothesisError):
            family_three_primes(3, 5, 13)  # gcd(4, 12) = 4
        with pytest.raises(HypothesisError):
            family_three_primes(3, 5, 7)  # 2 has order 3 mod 7


def _three_primes_reference(p1, p2, p3):
    """The explicit e0..e13 formulas through the u, v, w blocks, with their
    dimension table and the four-sum check, as the three-prime family wrote
    them before it shared the product builder."""
    group = AbelianGroup([p1, p2, p3])
    a, b, c = group.generator(0), group.generator(1), group.generator(2)
    one = AlgebraElement.one(group)
    a_hat = Subgroup.from_generators(group, [a]).hat()
    b_hat = Subgroup.from_generators(group, [b]).hat()
    c_hat = Subgroup.from_generators(group, [c]).hat()
    ma, mb, mc = one + a_hat, one + b_hat, one + c_hat
    u = uv_block(group, a, p1).element
    v = uv_block(group, b, p2).element
    w = uv_block(group, c, p3).element
    u2, v2, w2 = u.frobenius(), v.frobenius(), w.frobenius()
    deep = ma * mb * mc
    elements = {
        "e0": a_hat * b_hat * c_hat,
        "e1": a_hat * b_hat * mc,
        "e2": a_hat * mb * c_hat,
        "e3": ma * b_hat * c_hat,
        "e4": (u * v + u2 * v2) * c_hat,
        "e5": (u2 * v + u * v2) * c_hat,
        "e6": (u * w + u2 * w2) * b_hat,
        "e7": (u2 * w + u * w2) * b_hat,
        "e8": (v * w + v2 * w2) * a_hat,
        "e9": (v2 * w + v * w2) * a_hat,
        "e10": deep + u2 * v2 * w + u * v * w2,
        "e11": deep + u2 * v2 * w2 + u * v * w,
        "e12": deep + u2 * v * w + u * v2 * w2,
        "e13": deep + u * v2 * w + u2 * v * w2,
    }
    if elements["e10"] + elements["e11"] + elements["e12"] + elements["e13"] != deep:
        raise ConsistencyError(
            "the four deep split idempotents do not sum to the triple-complement unity"
        )
    d12, d13, d23 = (p1 - 1) * (p2 - 1) // 2, (p1 - 1) * (p3 - 1) // 2, (p2 - 1) * (p3 - 1) // 2
    d123 = (p1 - 1) * (p2 - 1) * (p3 - 1) // 4
    dims = [1, p3 - 1, p2 - 1, p1 - 1, d12, d12, d13, d13, d23, d23, d123, d123, d123, d123]
    return elements, dict(zip(elements, dims))


class TestThreePrimesAgainstTheFormulas:
    @pytest.mark.parametrize("primes", [(3, 5, 11), (3, 11, 13), (5, 11, 19), (3, 11, 19)])
    def test_members_and_dimensions_equal_the_formulas(self, primes):
        fam = family_three_primes(*primes)
        elements, dims = _three_primes_reference(*primes)
        assert list(fam.labels) == list(elements)
        assert {lab: fam.elements[lab].bits for lab in fam.labels} == {
            lab: e.bits for lab, e in elements.items()
        }
        assert fam.predicted_dims == dims

    def test_an_overridden_triple_builds_the_same_members(self):
        fam = family_three_primes(3, 5, 13, override=True)
        elements, dims = _three_primes_reference(3, 5, 13)
        assert {lab: fam.elements[lab].bits for lab in fam.labels} == {
            lab: e.bits for lab, e in elements.items()
        }
        assert fam.predicted_dims == dims

    @pytest.mark.parametrize("primes", [(3, 5, 7), (3, 7, 11)])
    def test_an_overridden_triple_fails_with_the_same_error(self, primes):
        with pytest.raises(ConsistencyError) as reference:
            _three_primes_reference(*primes)
        with pytest.raises(ConsistencyError) as built:
            family_three_primes(*primes, override=True)
        assert str(built.value) == str(reference.value)


class TestPGroupIdempotents:
    def test_c9(self):
        recs = p_group_idempotents([9])
        assert Counter(r.predicted_dim for r in recs) == Counter({1: 1, 2: 1, 6: 1})
        g = AbelianGroup([9])
        hat3 = Subgroup.from_generators(g, [(3,)]).hat()
        by_dim = {r.predicted_dim: r.element for r in recs}
        assert by_dim[1] == AlgebraElement.all_ones(g)
        assert by_dim[2] == hat3 + AlgebraElement.all_ones(g)
        assert by_dim[6] == AlgebraElement.one(g) + hat3

    def test_c3(self):
        recs = p_group_idempotents([3])
        g = AbelianGroup([3])
        elements = {r.element for r in recs}
        hat = AlgebraElement.all_ones(g)
        assert elements == {hat, AlgebraElement.one(g) + hat}

    def test_c3x3(self):
        recs = p_group_idempotents([3, 3])
        assert len(recs) == 5
        assert Counter(r.predicted_dim for r in recs) == Counter({1: 1, 2: 4})
        total = AlgebraElement.zero(AbelianGroup([3, 3]))
        for r in recs:
            assert r.element * r.element == r.element
            total = total + r.element
        assert total == AlgebraElement.one(AbelianGroup([3, 3]))

    def test_c27_depth_three_chain(self):
        recs = p_group_idempotents([27])
        assert Counter(r.predicted_dim for r in recs) == Counter({1: 1, 2: 1, 6: 1, 18: 1})
        from abelcodes.codes import ideal_dimension

        for rec in recs:
            assert ideal_dimension(rec.element) == rec.predicted_dim

    @pytest.mark.parametrize(
        "orders",
        [[3], [9], [27], [3, 3], [9, 3], [9, 9], [5, 5], [25, 5], [3, 3, 3], [7, 7]],
        ids=str,
    )
    def test_character_kernels_list_the_cyclic_quotient_subgroups(self, orders):
        recs = p_group_idempotents(orders, override=True)
        p = next(r for r in (3, 5, 7) if orders[0] % r == 0)
        expected = cyclic_quotient_covers(AbelianGroup(orders), p)
        assert [(r.subgroup.element_ranks, r.cover.element_ranks) for r in recs[1:]] == [
            (h.element_ranks, h_star.element_ranks) for h, h_star in expected
        ]
        assert [r.label for r in recs] == ["hat"] + [f"H{i}" for i in range(1, len(recs))]
        for rec, (h, h_star) in zip(recs[1:], expected):
            assert rec.element == h.hat() + h_star.hat()

    @pytest.mark.parametrize(
        "orders",
        [[3], [9], [27], [3, 3], [9, 3], [9, 9], [5, 5], [25, 5], [3, 3, 3], [7, 7], [27, 9]],
        ids=str,
    )
    def test_one_character_per_cyclic_subgroup_finds_every_kernel(self, orders):
        group = AbelianGroup(orders)
        p = next(r for r in (3, 5, 7) if orders[0] % r == 0)
        kernels = idempotents._character_kernels(group, p)
        assert [(h.element_ranks, h_star.element_ranks) for h, h_star in kernels] == (
            every_character_kernel(group, p)
        )


# p_group_idempotents of thirteen p-groups, recorded while subgroups were closed
# by a search over exponent tuples: per member the label, the generators and
# element ranks (as a hex bitset) of H and H*, the element as hex and the dimension
P_GROUP_RECORDS = json.loads(
    (Path(__file__).parent / "data" / "p_group_records.json").read_text()
)


def _subgroup_fields(sub):
    bits = sum(1 << r for r in sub.element_ranks)
    return {
        "generators": [list(g) for g in sub.generators],
        "ranks_hex": AlgebraElement(sub.group, bits).to_hex(),
    }


@pytest.mark.parametrize("name", list(P_GROUP_RECORDS))
def test_p_group_records_are_the_recorded_ones(name):
    recorded = P_GROUP_RECORDS[name]
    orders = [int(n) for n in name.split("x")]
    recs = p_group_idempotents(orders, override=recorded["override"])
    assert [
        {
            "label": r.label,
            "h": _subgroup_fields(r.subgroup),
            "h_star": None if r.cover is None else _subgroup_fields(r.cover),
            "hex": r.element.to_hex(),
            "dim": r.predicted_dim,
        }
        for r in recs
    ] == recorded["records"]
    for r in recs:
        assert r.subgroup.order == len(r.subgroup.element_ranks) == len(r.subgroup.elements())
        assert r.subgroup.hat().support_ranks() == list(r.subgroup.element_ranks)

# the factor orders of each group, in the p-factors its family builds
SIDE_GROUPS = {
    "15": [[5], [3]],
    "33": [[3], [11]],
    "45": [[9], [5]],
    "3x5x11": [[3], [5], [11]],
    "9x25": [[9], [25]],
    "27x25": [[27], [25]],
    "81x125": [[81], [125]],
    "(3x3)x11": [[3, 3], [11]],
    "(9x9)x5": [[9, 9], [5]],
    "(27x9)x5": [[27, 9], [5]],
}
CYCLIC_SIDE_GROUPS = [n for n, parts in SIDE_GROUPS.items() if all(len(f) == 1 for f in parts)]


def _p_factors(name):
    """(G, p, axes) for each p-factor of the group `name`."""
    parts = SIDE_GROUPS[name]
    group = AbelianGroup([n for part in parts for n in part])
    start = 0
    for part in parts:
        yield group, min(factorize(part[0])), range(start, start + len(part))
        start += len(part)


def _fields(factor):
    return factor.hat.bits, [
        (s.element.bits, s.dim, s.subgroup.element_ranks, s.cover.element_ranks, s.base)
        for s in factor.sides
    ]


class TestSidesAgainstTheOracles:
    @pytest.mark.parametrize("name", list(SIDE_GROUPS))
    def test_every_p_factor_equals_its_build_in_its_own_group(self, name):
        for group, p, axes in _p_factors(name):
            factor = idempotents._p_factor(group, p, axes)
            assert factor.prime == p
            assert _fields(factor) == embedded_sides(group, p, axes), axes

    @pytest.mark.parametrize("name", CYCLIC_SIDE_GROUPS)
    def test_every_cyclic_factor_equals_its_chain(self, name):
        for group, p, axes in _p_factors(name):
            factor = idempotents._cyclic_factor(group, p, axes.start)
            assert _fields(factor) == chain_sides(group, p, axes.start), axes


class TestErrors:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: p_group_idempotents([3, 5]),
                ValueError,
                "factor orders must all be powers of one prime",
            ),
            (lambda: p_group_idempotents([2, 4]), ValueError, "the prime must be odd"),
            (
                lambda: family_two_factor([3, 5], [11]),
                ValueError,
                "factor orders must all be powers of one prime",
            ),
            (
                lambda: family_two_factor([9], [2]),
                HypothesisError,
                "hypothesis check failed: q = 2 is not an odd prime",
            ),
            (
                lambda: family_two_factor([2], [9]),
                HypothesisError,
                "hypothesis check failed: p = 2 is not an odd prime",
            ),
            (
                lambda: family_two_factor([7], [11]),
                HypothesisError,
                "hypothesis check failed: condition (ii): 2 has order 21 mod 7**2, expected 42",
            ),
        ],
    )
    def test_bad_groups_raise_the_recorded_error(self, build, error, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert raised.type is error
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "p_factors, q_factors, side", [([], [5], "p_factors"), ([3], [], "q_factors")]
    )
    def test_an_empty_side_is_refused_by_name(self, p_factors, q_factors, side):
        with pytest.raises(ValueError, match=f"^{side} is empty") as raised:
            family_two_factor(p_factors, q_factors)
        assert raised.type is ValueError


# (C3 x C3) x C11, recorded before the two-sided families shared one builder:
# labels in family order and each member's bitset as hex
C3X3_X_C11_HEX = {
    "e_hat_hat": "ffffffffffffffffffffffff07",
    "e_hat_H1": "00feffffffffffffffffffff07",
    "e_H1_hat": "f8f1e3c78f1f3f7efcf8f1e307",
    "e_H2_hat": "b66ddbb66ddbb66ddbb66ddb06",
    "e_H3_hat": "eedcb973e7ce9d3b77eedcb903",
    "e_H4_hat": "5ebd7af5ead5ab57af5ebd7a05",
    "e_H1_H1_1": "f87f1cfff1e3c7f1e3c77f1c07",
    "e_H1_H1_2": "f88fff387efcf88f1f3f8eff00",
    "e_H2_H1_1": "b6b7b5ddb66d5bdbb66db7b505",
    "e_H2_H1_2": "b6db6e6bdbb6edb66ddbda6e03",
    "e_H3_H1_1": "eee6769e3b776ee7ce9de77606",
    "e_H3_H1_2": "ee3acfeddcb9f3dcb9733bcf05",
    "e_H4_H1_1": "5e57d75bbd7a75bd7af556d703",
    "e_H4_H1_2": "5eebadae57afdeead5abebad06",
}


class TestFamilyTwoFactor:
    def test_c3x3_times_c11_is_pinned(self):
        fam = family_two_factor([3, 3], [11])
        assert fam.group.order == 99
        assert list(fam.labels) == list(C3X3_X_C11_HEX)
        assert {lab: fam.elements[lab].to_hex() for lab in fam.labels} == C3X3_X_C11_HEX

    def test_c3x3_times_c11_smoke(self):
        fam = family_two_factor([3, 3], [11])
        assert len(fam.labels) == 14
        assert sum(fam.predicted_dims.values()) == 99
        assert all(c["passed"] for c in fam.verify_axioms())
        assert len(fam.labels) == class_count(fam.group)

    def test_cyclic_case_matches_direct_construction(self):
        general = family_two_factor([9], [5])
        direct = family_prime_power(3, 2, 5, 1)
        assert {e.bits for e in general.elements.values()} == {
            e.bits for e in direct.elements.values()
        }

    @pytest.mark.parametrize("primes", [(3, 5), (5, 3), (3, 11), (11, 3)])
    def test_pq_family_equals_the_other_two_constructions(self, primes):
        fam = family_pq(*primes)
        p, q = fam.params["p"], fam.params["q"]  # the normalized pair
        assert (
            _members(fam)
            == _members(family_prime_power(p, 1, q, 1))
            == _members(family_two_factor([p], [q]))
        )

    def test_c9_x_c25_prime_power_family_equals_the_two_factor_family(self):
        assert _members(family_prime_power(3, 2, 5, 2)) == _members(family_two_factor([9], [25]))


def _pairwise_axioms(fam):
    """The reference for verify_axioms: each member squared by ** 2, and every
    pair of members multiplied, n(n - 1)/2 products."""
    checks = []
    bad = [lab for lab in fam.labels if fam.elements[lab] ** 2 != fam.elements[lab]]
    checks.append(
        {
            "name": "each member squares to itself",
            "passed": not bad,
            "detail": f"failing labels: {bad}" if bad else f"{len(fam.labels)} members",
        }
    )
    zero = AlgebraElement.zero(fam.group)
    bad_pairs = []
    for i, la in enumerate(fam.labels):
        for lb in fam.labels[i + 1 :]:
            if fam.elements[la] * fam.elements[lb] != zero:
                bad_pairs.append((la, lb))
    checks.append(
        {
            "name": "distinct members annihilate each other",
            "passed": not bad_pairs,
            "detail": f"failing pairs: {bad_pairs}" if bad_pairs else "all pairs checked",
        }
    )
    total = AlgebraElement.zero(fam.group)
    for lab in fam.labels:
        total = total + fam.elements[lab]
    ok_sum = total == AlgebraElement.one(fam.group)
    checks.append(
        {
            "name": "members sum to 1",
            "passed": ok_sum,
            "detail": "" if ok_sum else f"sum has weight {total.weight}",
        }
    )
    n_classes = class_count(fam.group)
    checks.append(
        {
            "name": "member count equals squaring-orbit count",
            "passed": len(fam.labels) == n_classes,
            "detail": f"{len(fam.labels)} members, {n_classes} orbits",
        }
    )
    return checks


AXIOM_FAMILIES = {
    "15": lambda: family_pq(3, 5),
    "33": lambda: family_pq(3, 11),
    "45": lambda: family_prime_power(3, 2, 5, 1),
    "3x5x11": lambda: family_three_primes(3, 5, 11),
    "9x25": lambda: family_prime_power(3, 2, 5, 2),
    "27x25": lambda: family_prime_power(3, 3, 5, 2),
    "(3x3)x11": lambda: family_two_factor([3, 3], [11]),
}


@cache
def _axiom_family(name):
    return AXIOM_FAMILIES[name]()


def _sum_of_two(fam, k, j):
    return fam.elements[fam.labels[k]] + fam.elements[fam.labels[j]]


def _non_idempotent(fam, k, j):
    # (e + g)**2 = e + g**2, and g**2 != g for every g but the identity
    g = fam.group.generator(0)
    return fam.elements[fam.labels[k]] + AlgebraElement.monomial(fam.group, g)


def _copy_of_another(fam, k, j):
    # an idempotent of F2[G]e_j: it squares to itself, so only orthogonality fails
    return fam.elements[fam.labels[j]]


def _certified_dimensions(fam):
    return {lab: ideal_dimension(fam.elements[lab]) for lab in fam.labels}


def _axioms_with_products(fam, dimensions, monkeypatch):
    """verify_axioms(dimensions) and the number of products it took."""
    products = []
    original = AlgebraElement.__mul__

    def counted(x, y):
        products.append((x, y))
        return original(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraElement, "__mul__", counted)
        checks = fam.verify_axioms(dimensions)
    return checks, len(products)


ADMISSIBLE_PAIRS_BELOW_60 = [
    (p, q)
    for p in range(3, 60)
    for q in range(p + 1, 60)
    if is_odd_prime(p) and is_odd_prime(q) and not hypothesis_failures(p, q)
]


class TestAxiomsAgainstThePairwiseReference:
    @pytest.mark.parametrize("name", list(AXIOM_FAMILIES))
    def test_checks_match_the_reference(self, name):
        fam = _axiom_family(name)
        checks = fam.verify_axioms()
        assert checks == _pairwise_axioms(fam)
        assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("name", list(AXIOM_FAMILIES))
    def test_every_member_squares_as_the_per_bit_square(self, name):
        fam = _axiom_family(name)
        for lab in fam.labels:
            e = fam.elements[lab]
            assert e.frobenius() == per_bit_square(e) == e, lab

    @pytest.mark.parametrize("name", list(AXIOM_FAMILIES))
    def test_the_certified_dimensions_prove_orthogonality_without_products(
        self, name, monkeypatch
    ):
        fam = _axiom_family(name)
        checks, products = _axioms_with_products(fam, _certified_dimensions(fam), monkeypatch)
        assert products == 0
        assert checks == _pairwise_axioms(fam)

    @pytest.mark.parametrize("name", ["15", "3x5x11", "27x25", "(3x3)x11"])
    def test_members_that_do_not_sum_to_1_are_multiplied_pairwise(self, name, monkeypatch):
        # for 15, e3 replaced by e4: the last two members are the halves of one
        # split, so the dimensions still sum to |G|, but e4 now appears twice
        fam = _axiom_family(name)
        a, b = fam.labels[-2:]
        bad = replace_elements(fam, {**fam.elements, a: fam.elements[b]})
        dimensions = _certified_dimensions(bad)
        assert sum(dimensions.values()) == fam.group.order
        checks, products = _axioms_with_products(bad, dimensions, monkeypatch)
        assert checks == _pairwise_axioms(bad)
        assert str((a, b)) in checks[1]["detail"] and not checks[2]["passed"]
        assert products == len(fam) * (len(fam) - 1) // 2

    @pytest.mark.parametrize("name", ["15", "3x5x11", "27x25", "(3x3)x11"])
    def test_dimensions_over_the_order_are_multiplied_pairwise(self, name, monkeypatch):
        # the repetition member added to two others: every member is still
        # idempotent and they still sum to 1, but the dimensions sum to |G| + 2
        fam = _axiom_family(name)
        hat, a, b = fam.labels[0], fam.labels[1], fam.labels[-1]
        e = fam.elements
        bad = replace_elements(fam, {**e, a: e[a] + e[hat], b: e[b] + e[hat]})
        dimensions = _certified_dimensions(bad)
        assert sum(dimensions.values()) == fam.group.order + 2
        checks, _ = _axioms_with_products(bad, dimensions, monkeypatch)
        assert checks == _pairwise_axioms(bad)
        assert checks[0]["passed"] and checks[2]["passed"] and not checks[1]["passed"]

    @pytest.mark.parametrize("name", ["15", "3x5x11", "27x25", "(3x3)x11"])
    def test_members_that_are_not_idempotent_are_multiplied_pairwise(self, name, monkeypatch):
        # a monomial added to two members keeps the sum 1; they have no record,
        # so the dimensions passed are those of the family they came from
        fam = _axiom_family(name)
        g = AlgebraElement.monomial(fam.group, fam.group.generator(0))
        a, b = fam.labels[1], fam.labels[-1]
        bad = replace_elements(fam, {**fam.elements, a: fam.elements[a] + g, b: fam.elements[b] + g})
        checks, _ = _axioms_with_products(bad, _certified_dimensions(fam), monkeypatch)
        assert checks == _pairwise_axioms(bad)
        assert checks[2]["passed"] and not checks[0]["passed"] and not checks[1]["passed"]

    @pytest.mark.parametrize("corrupt", [_sum_of_two, _non_idempotent, _copy_of_another])
    @pytest.mark.parametrize("name", ["15", "3x5x11", "27x25", "(3x3)x11"])
    def test_corrupted_families_give_the_reference_details(self, name, corrupt):
        fam = _axiom_family(name)
        n = len(fam)
        for k, j in ((0, 1), (n - 1, 0), (n // 2, n - 1)):
            bad = replace_elements(fam, {**fam.elements, fam.labels[k]: corrupt(fam, k, j)})
            checks = bad.verify_axioms()
            assert checks == _pairwise_axioms(bad), (k, j)
            assert not all(c["passed"] for c in checks), (k, j)

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_60))
    def test_family_verification_checks_the_axioms_like_the_reference(self, pair):
        fam = family_pq(*pair)
        checks = family_verification(fam, budget=MIN_BUDGET)["checks"]
        assert checks[:4] == _pairwise_axioms(fam)


class TestPrimitivity:
    def test_small_ideal_has_two_idempotents(self):
        fam = family_pq(3, 5)
        report = verify_primitivity(fam.elements["e3"], 4)
        assert report["idempotents_found"] == 2
        assert report["primitive"] is True
        assert report["dimension_matches"]

    def test_dimension_60_member_is_counted_exactly(self):
        fam = family_pq(11, 13)
        report = verify_primitivity(fam.elements["e3"], 60)
        assert report["dimension"] == 60
        assert report["idempotents_found"] == 2
        assert report["primitive"] is True

    def test_sum_of_the_split_pair_is_not_primitive(self):
        fam = family_pq(11, 13)
        report = verify_primitivity(fam.elements["e3"] + fam.elements["e4"], 120)
        assert report["dimension_matches"]
        assert report["idempotents_found"] == 4
        assert report["primitive"] is False

    def test_negative_control(self):
        g = AbelianGroup([3])
        report = verify_primitivity(AlgebraElement.one(g), None)
        assert report["idempotents_found"] == 4
        assert report["primitive"] is False

    def test_scan_agrees_with_convolution_idempotency(self):
        # spot check that the orbit-mask test of the Gray reference walk matches x*x == x
        fam = family_pq(3, 5)
        e3 = fam.elements["e3"]
        g = fam.group
        candidates = [
            e3,
            e3 + fam.elements["e4"],
            AlgebraElement.from_terms(g, [(1, 1)]),
            AlgebraElement.from_terms(g, [(1, 0), (2, 0)]),
        ]
        from abelcodes.cyclotomic import cyclotomic_classes

        masks = []
        for cls in cyclotomic_classes(g):
            m = 0
            for r in cls.member_ranks:
                m |= 1 << r
            masks.append(m)
        for x in candidates:
            mask_fixed = all(
                not (x.bits & m) or (x.bits & m) == m for m in masks
            )
            assert mask_fixed == (x * x == x)


def _gray_idempotent_count(e):
    """The exhaustive reference: walk every element of F2[G]e in Gray order and
    count the idempotents.  In characteristic 2 an element is idempotent exactly
    when its support is a union of squaring orbits, so the test is a per-orbit
    mask comparison."""
    masks = [sum(1 << r for r in cls.member_ranks) for cls in cyclotomic_classes(e.group)]
    translates = all_translates(e)
    rows = [translates[i] for i in independent_row_indices(translates)]
    found, word = 1, 0  # the zero element
    for flip in gray_flip_sequence(len(rows)):
        word ^= rows[flip]
        if all(not word & m or word & m == m for m in masks):
            found += 1
    return found


PRIMITIVITY_FAMILIES = ["15", "33", "45", "3x5x11", "(3x3)x11"]
REFERENCE_MAX_DIM = 16


class TestPrimitivityAgainstTheGrayWalk:
    @pytest.mark.parametrize("name", PRIMITIVITY_FAMILIES)
    def test_every_member_is_primitive(self, name):
        fam = _axiom_family(name)
        for lab in fam.labels:
            e, dim = fam.elements[lab], fam.predicted_dims[lab]
            report = verify_primitivity(e, dim)
            assert report["dimension_matches"], lab
            assert report["idempotents_found"] == 2 and report["primitive"], lab
            if dim <= REFERENCE_MAX_DIM:
                assert _gray_idempotent_count(e) == 2, lab

    @pytest.mark.parametrize("name", PRIMITIVITY_FAMILIES)
    def test_sums_of_two_to_four_members_count_like_the_reference(self, name):
        fam = _axiom_family(name)
        sums = [
            c
            for r in (2, 3, 4)
            for c in itertools.combinations(fam.labels, r)
            if sum(fam.predicted_dims[lab] for lab in c) <= REFERENCE_MAX_DIM
        ]
        stride = -(-len(sums) // 24)  # at most 24 sums per family, spread over the list
        assert sums
        counted = 0
        for labels in sums[::stride]:
            e = AlgebraElement.zero(fam.group)
            for lab in labels:
                e = e + fam.elements[lab]
            reference = _gray_idempotent_count(e)
            assert reference == 2 ** len(labels), labels
            # a sum whose G/H is not cyclic has no basis along gamma, and is refused
            if not quotient_is_cyclic(fam.group, stabilizer(e)):
                with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                    verify_primitivity(e)
                continue
            report = verify_primitivity(e)
            assert report["idempotents_found"] == reference and report["primitive"] is False
            counted += 1
        assert counted


class TestOneBuilder:
    @pytest.mark.parametrize("p, m, q, n", [(3, 3, 5, 2), (3, 2, 5, 2)])
    def test_a_prime_power_family_builds_one_uv_block_per_side_level(
        self, p, m, q, n, monkeypatch
    ):
        calls = []
        original = idempotents.uv_block

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(idempotents, "uv_block", counted)
        fam = family_prime_power(p, m, q, n)
        assert len(calls) == m + n
        assert len(fam) == 1 + m + n + 2 * m * n

    def test_the_three_prime_family_builds_three_blocks_and_three_splits(self, monkeypatch):
        calls = Counter()
        for name in ("uv_block", "split_pair"):
            original = getattr(idempotents, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(idempotents, name, counted)
        fam = family_three_primes(3, 5, 11)
        assert calls == {"uv_block": 3, "split_pair": 3}
        assert len(fam) == 14
