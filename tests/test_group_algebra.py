import copy
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from abelcodes import codes, group_algebra
from abelcodes.group_algebra import (
    AbelianGroup,
    AlgebraElement,
    Subgroup,
    as_cyclic,
    cyclic_exponent,
    gather_bits,
)
from abelcodes.idempotents import family_pq, family_prime_power
from oracles import all_subgroups, per_bit_square, per_term_product, searched_subgroup_ranks

C15 = AbelianGroup([15])
C3x5 = AbelianGroup([3, 5])
C9x25 = AbelianGroup([9, 25])

SMALL_ODD_GROUPS = [
    AbelianGroup([9]),
    AbelianGroup([15]),
    AbelianGroup([3, 5]),
    AbelianGroup([3, 3]),
    AbelianGroup([45]),
    AbelianGroup([9, 25]),
]


# Non-coprime and even factor orders: the rotation must not rely on a cyclic group.
NAMED_TRANSLATE_GROUPS = [[3, 3], [9, 3], [2, 4], [2, 2, 2], [3, 5, 7]]


def random_element(group, data):
    bits = data.draw(st.integers(0, (1 << group.order) - 1))
    return AlgebraElement(group, bits)


def reference_translate(group, bits, shift):
    """The per-bit translation: rank(add(unrank(k), shift)) for every set bit k."""
    out = 0
    for k in range(group.order):
        if bits >> k & 1:
            out |= 1 << group.rank(group.add(group.unrank(k), shift))
    return out


def reference_product(x, y):
    """Convolution by the double loop over support pairs (g, h)."""
    group = x.group
    out = 0
    for g in x.support():
        for h in y.support():
            out ^= 1 << group.rank(group.add(g, h))
    return AlgebraElement(group, out)


factor_orders = st.one_of(
    st.sampled_from(NAMED_TRANSLATE_GROUPS),
    st.lists(st.integers(2, 9), min_size=1, max_size=4).filter(lambda o: math.prod(o) <= 512),
)


class TestAddition:
    def test_self_cancellation(self):
        x = AlgebraElement.from_terms(C15, [(1,), (7,)])
        assert (x + x).bits == 0

    def test_zero_is_identity(self):
        x = AlgebraElement.from_terms(C15, [(3,)])
        assert x + AlgebraElement.zero(C15) == x

    def test_middle_terms_cancel(self):
        one_plus_a = AlgebraElement.from_terms(C15, [(0,), (1,)])
        a_plus_a2 = AlgebraElement.from_terms(C15, [(1,), (2,)])
        assert one_plus_a + a_plus_a2 == AlgebraElement.from_terms(C15, [(0,), (2,)])

    def test_group_mismatch(self):
        with pytest.raises(ValueError, match="group mismatch"):
            AlgebraElement.one(C15) + AlgebraElement.one(C3x5)


class TestHat:
    def test_trivial_subgroup_is_one(self):
        assert Subgroup.trivial(C15).hat() == AlgebraElement.one(C15)

    def test_order_five_subgroup(self):
        h = Subgroup.from_generators(C15, [(3,)])
        hat = h.hat()
        assert hat.weight == 5
        assert hat * hat == hat

    def test_whole_group(self):
        assert Subgroup.whole(C15).hat() == AlgebraElement.all_ones(C15)

    def test_every_subgroup_hat_is_idempotent(self):
        for group in (C15, AbelianGroup([3, 3]), AbelianGroup([45])):
            for sub in all_subgroups(group):
                hat = sub.hat()
                assert hat * hat == hat


class TestMultiplication:
    def test_subgroup_hat_is_idempotent(self):
        a_hat = Subgroup.from_generators(C15, [(5,)]).hat()
        assert a_hat * a_hat == a_hat

    def test_disjoint_supports(self):
        one_plus_a = AlgebraElement.from_terms(C3x5, [(0, 0), (1, 0)])
        one_plus_b = AlgebraElement.from_terms(C3x5, [(0, 0), (0, 1)])
        product = one_plus_a * one_plus_b
        assert product == AlgebraElement.from_terms(
            C3x5, [(0, 0), (1, 0), (0, 1), (1, 1)]
        )

    def test_known_split_idempotent_product(self):
        # u = 1 + g^5, v = g^3 + g^12 in the cyclic order-15 group
        u = AlgebraElement.from_terms(C15, [(0,), (5,)])
        v = AlgebraElement.from_terms(C15, [(3,), (12,)])
        e = u * v + (u * u) * (v * v)
        assert sorted(e.support_ranks()) == [1, 2, 3, 4, 6, 8, 9, 12]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_ODD_GROUPS[:4]), st.data())
    def test_ring_axioms(self, group, data):
        x = random_element(group, data)
        y = random_element(group, data)
        z = random_element(group, data)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=60, deadline=None)
    @given(factor_orders, st.data())
    def test_matches_pairwise_double_loop(self, orders, data):
        group = AbelianGroup(orders)
        bits = st.integers(0, (1 << group.order) - 1)
        if group.order > 64:
            # sparse operands keep the double loop short on the larger groups
            ranks = st.lists(st.integers(0, group.order - 1), max_size=12)
            bits = ranks.map(lambda rs: sum(1 << r for r in set(rs)))
        x = AlgebraElement(group, data.draw(bits))
        y = AlgebraElement(group, data.draw(bits))
        assert x * y == reference_product(x, y)


# (factor orders, split point i): F2[G] = F2[A] (x) F2[B], A the first i factors
SPLIT_POINTS = [
    ([27, 25], 1),
    ([9, 25], 1),
    ([3, 5, 11], 1),
    ([3, 5, 11], 2),
    ([4, 6, 5], 1),
    ([4, 6, 5], 2),
]


def _factor_words(group, i):
    """Words of A (bits below the place P of factor i) and of B (bits at
    multiples of P): 0, 1, each hat, a word with bit P - 1, and random ones."""
    rng = random.Random(group.order + i)
    place = math.prod(group.factor_orders[:i])
    count = group.order // place
    low = [0, 1, (1 << place) - 1, 1 << place - 1, rng.getrandbits(place)]
    spread = [sum(rng.getrandbits(1) << place * t for t in range(count)) for _ in range(2)]
    high = [0, 1, sum(1 << place * t for t in range(count)), 1 << place, *spread]
    return low, high


class TestCarryFreeProduct:
    @pytest.mark.parametrize("orders,i", SPLIT_POINTS, ids=str)
    def test_cross_factor_products_are_integer_products(self, orders, i, monkeypatch):
        group = AbelianGroup(orders)
        low, high = _factor_words(group, i)
        pairs = [(AlgebraElement(group, x), AlgebraElement(group, y)) for x in low for y in high]
        expected = [per_term_product(x, y) for x, y in pairs]

        def refuse(*args):
            raise AssertionError("a cross-factor product took the translate loop")

        monkeypatch.setattr(AbelianGroup, "translate_bits", refuse)
        for (x, y), product in zip(pairs, expected):
            assert x * y == product == y * x, (x.bits, y.bits)
            assert product.bits == x.bits * y.bits

    @pytest.mark.parametrize("orders,i", SPLIT_POINTS, ids=str)
    def test_same_factor_pairs_take_the_loop(self, orders, i, monkeypatch):
        group = AbelianGroup(orders)
        place = math.prod(orders[:i])
        rng = random.Random(group.order - i)
        # two words of factor 0 off the identity, and two of the last factor
        first = [1 | 2, 2 | rng.getrandbits(orders[0]) << 1 & (1 << orders[0]) - 1]
        last_place = group.order // orders[-1]
        last = [(1 << last_place) | (1 << 2 * last_place), 1 << last_place | 1]
        pairs = [(x, y) for words in (first, last) for x in words for y in words]
        pairs.append((rng.getrandbits(group.order), rng.getrandbits(place)))
        calls = []
        translate = AbelianGroup.translate_bits

        def counted(*args):
            calls.append(args)
            return translate(*args)

        for x, y in pairs:
            x, y = AlgebraElement(group, x), AlgebraElement(group, y)
            expected = per_term_product(x, y)
            monkeypatch.setattr(AbelianGroup, "translate_bits", counted)
            calls.clear()
            assert x * y == expected, (x.bits, y.bits)
            assert calls, (x.bits, y.bits)
            monkeypatch.undo()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SPLIT_POINTS), st.data())
    def test_any_split_pair_matches_the_per_term_product(self, split, data):
        orders, i = split
        group = AbelianGroup(orders)
        place = math.prod(orders[:i])
        x = data.draw(st.integers(0, (1 << place) - 1))
        cosets = data.draw(st.integers(0, (1 << group.order // place) - 1))
        y = sum(1 << place * t for t in range(group.order // place) if cosets >> t & 1)
        x, y = AlgebraElement(group, x), AlgebraElement(group, y)
        assert x * y == per_term_product(x, y) == reference_product(x, y)


class TestFrobenius:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_ODD_GROUPS), st.data())
    def test_squaring_is_support_doubling(self, group, data):
        x = random_element(group, data)
        assert x * x == x.frobenius()

    @pytest.mark.parametrize("orders", [[3, 5], [9, 25], [3, 5, 11], [27, 25], [3, 3, 11]])
    def test_matches_per_bit_scaling(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(group.order)
        words = [1, (1 << group.order) - 1, *(rng.getrandbits(group.order) for _ in range(4))]
        for bits in words:
            x = AlgebraElement(group, bits)
            assert x.frobenius() == per_bit_square(x)

    @settings(max_examples=60, deadline=None)
    @given(factor_orders, st.data())
    def test_matches_the_per_bit_square(self, orders, data):
        # even orders too: there distinct g share a square and the terms cancel
        x = random_element(AbelianGroup(orders), data)
        assert x.frobenius() == per_bit_square(x)

    def test_square_by_doubling_in_c5(self):
        c5 = AbelianGroup([5])
        x = AlgebraElement.from_terms(c5, [(1,), (4,)])
        assert x.frobenius() == AlgebraElement.from_terms(c5, [(2,), (3,)])

    @pytest.mark.parametrize("orders", [[2], [3], [4], [6], [2, 2], [2, 3], [3, 4], [2, 2, 3]])
    def test_every_word_of_a_small_group(self, orders):
        # odd and even factors, one to three of them: each digit is doubled on its own
        group = AbelianGroup(orders)
        for bits in range(1 << group.order):
            x = AlgebraElement(group, bits)
            assert x.frobenius() == per_bit_square(x), bits

    @pytest.mark.parametrize("orders", [[27, 25], [4, 6, 5]])
    def test_no_product_and_no_gather(self, orders, monkeypatch):
        def refuse(*args):
            raise AssertionError("the square made a product, a gather or a power table")

        group = AbelianGroup(orders)
        x = AlgebraElement(group, random.Random(group.order).getrandbits(group.order))
        expected = per_bit_square(x)
        monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
        monkeypatch.setattr(group_algebra, "gather_bits", refuse)
        monkeypatch.setattr(AbelianGroup, "power_ranks", refuse)
        assert x.frobenius() == expected

    @pytest.mark.parametrize("orders", [[27, 25], [2, 4], [3, 5, 11]])
    def test_the_masks_are_built_once_per_group(self, orders):
        group = AbelianGroup(orders)
        plan = group._square_plan()
        AlgebraElement.all_ones(group).frobenius()
        assert group._square_plan() is plan
        # 1 + ceil(log2 h) masks per factor of order n, h = ceil(n / 2)
        for n, (_, _, _, _, steps) in zip(orders, plan):
            assert len(steps) == ((n + 1) // 2 - 1).bit_length()


class TestPower:
    def test_first_power(self):
        x = AlgebraElement.from_terms(C15, [(2,), (7,)])
        assert x**1 == x

    def test_cube_of_block_is_component_unity(self):
        c5 = AbelianGroup([5])
        u = AlgebraElement.from_terms(c5, [(1,), (4,)])
        a_hat = Subgroup.whole(c5).hat()
        assert u**3 == AlgebraElement.one(c5) + a_hat

    def test_zeroth_power(self):
        x = AlgebraElement.from_terms(C15, [(2,)])
        assert x**0 == AlgebraElement.one(C15)


class TestTranslate:
    def test_identity_translation(self):
        x = AlgebraElement.from_terms(C15, [(1,), (2,)])
        assert x.translated((0,)) == x

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_ODD_GROUPS), st.data())
    def test_weight_is_preserved(self, group, data):
        x = random_element(group, data)
        g = data.draw(st.sampled_from(list(group.elements())))
        assert x.translated(g).weight == x.weight

    def test_subgroup_sum_is_stable(self):
        a_hat = Subgroup.from_generators(C15, [(5,)]).hat()
        assert a_hat.translated((5,)) == a_hat

    @pytest.mark.parametrize("orders", NAMED_TRANSLATE_GROUPS)
    def test_every_shift_matches_per_bit_reference(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(group.order)
        words = [0, 1, (1 << group.order) - 1, rng.getrandbits(group.order)]
        for shift in group.elements():
            for bits in words:
                expected = reference_translate(group, bits, shift)
                assert group.translate_bits(bits, shift) == expected

    @settings(max_examples=200, deadline=None)
    @given(factor_orders, st.data())
    def test_matches_per_bit_reference(self, orders, data):
        group = AbelianGroup(orders)
        bits = data.draw(st.integers(0, (1 << group.order) - 1))
        shift = tuple(
            data.draw(st.one_of(st.just(0), st.integers(0, n - 1))) for n in group.factor_orders
        )
        assert group.translate_bits(bits, shift) == reference_translate(group, bits, shift)

    def test_memory_stays_within_a_few_patterns(self):
        # |G| = 300009: a per-element table or per-shift masks would need far more
        group = AbelianGroup([3, 100003])
        word = random.Random(7).getrandbits(group.order)
        tracemalloc.start()
        try:
            for shift in [(1, 0), (0, 1), (2, 99999), (1, 50001), (0, 0)]:
                group.translate_bits(word, shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024
        corner = 1 << group.rank((2, 100002))
        assert group.translate_bits(corner, (1, 1)) == 1


# One to three factors, with even orders and non-cyclic Sylow subgroups among them.
closure_orders = st.one_of(
    st.sampled_from(NAMED_TRANSLATE_GROUPS + [[4, 6], [9, 3, 5]]),
    st.lists(st.integers(2, 9), min_size=1, max_size=3).filter(lambda o: math.prod(o) <= 300),
)


class TestOrbitBits:
    @pytest.mark.parametrize("orders", [[15], [9, 25], [2, 4], [3, 5, 11], [3, 3, 11]])
    def test_matches_iterated_translates(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(group.order)
        bits = rng.getrandbits(group.order)
        shifts = [
            group.identity(),
            group.generator(0),
            group.generator(len(orders) - 1),
            (1,) * len(orders),
            group.unrank(rng.randrange(group.order)),
        ]
        for shift in shifts:
            period = math.lcm(*(n // math.gcd(s, n) for s, n in zip(shift, orders)))
            for count in (0, 1, 2, period, period + 3):
                expected, row = [], bits
                for _ in range(count):
                    expected.append(row)
                    row = group.translate_bits(row, shift)
                assert group.orbit_bits(bits, shift, count) == expected, (shift, count)

    def test_a_zero_shift_repeats_the_word(self):
        group = AbelianGroup([3, 5, 11])
        assert group.orbit_bits(0b1011, (0, 5, 11), 4) == [0b1011] * 4


class TestAugmentation:
    def test_examples(self):
        assert AlgebraElement.one(C15).augmentation() == 1
        assert AlgebraElement.zero(C15).augmentation() == 0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_ODD_GROUPS[:4]), st.data())
    def test_ring_homomorphism(self, group, data):
        x = random_element(group, data)
        y = random_element(group, data)
        assert (x * y).augmentation() == x.augmentation() & y.augmentation()
        assert (x + y).augmentation() == x.augmentation() ^ y.augmentation()


class TestSubgroupClosure:
    def test_cyclic_subgroup_orders(self):
        assert Subgroup.from_generators(C15, [(3,)]).order == 5
        assert Subgroup.from_generators(C15, [(1,)]).order == 15

    def test_two_generator_closure(self):
        h = Subgroup.from_generators(C9x25, [(3, 0), (0, 5)])
        assert h.order == 15

    @settings(max_examples=200, deadline=None)
    @given(closure_orders, st.data())
    def test_translation_closure_agrees_with_the_search(self, orders, data):
        group = AbelianGroup(orders)
        ranks = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
        gens = [group.unrank(r) for r in ranks]
        sub = Subgroup.from_generators(group, gens)
        expected = searched_subgroup_ranks(group, gens)
        assert sub.element_ranks == expected
        assert sub.order == len(expected)
        assert sub.hat().support_ranks() == list(expected)
        assert sub.generators == tuple(gens)

    @pytest.mark.parametrize("orders", [[2, 4], [4, 6], [9, 3], [3, 3, 3], [8], [25, 5]])
    def test_every_cyclic_subgroup_and_every_extension(self, orders):
        # every cyclic subgroup, each extended by about a dozen elements spread over G
        group = AbelianGroup(orders)
        table = list(group.elements())
        for g in table:
            cyclic = Subgroup.from_generators(group, [g])
            assert cyclic.element_ranks == searched_subgroup_ranks(group, [g])
            for h in table[:: max(1, group.order // 12)]:
                assert cyclic.extended(h).element_ranks == searched_subgroup_ranks(group, [g, h])

    def test_a_closure_whose_size_does_not_divide_the_order_is_refused(self):
        # {0, 1} is no subgroup of C9; under 3 it grows to {0, 1, 3, 4, 6, 7} and stops
        with pytest.raises(RuntimeError, match="does not divide"):
            Subgroup(AbelianGroup([9]), (), 0b11).extended((3,))


class TestSerialization:
    def test_known_hex(self):
        # ranks 0 and 1 set, order 15 -> two little-endian bytes
        x = AlgebraElement.from_terms(C3x5, [(0, 0), (1, 0)])
        assert x.to_hex() == "0300"
        assert AlgebraElement.from_hex(C3x5, "0300") == x

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_ODD_GROUPS), st.data())
    def test_roundtrip(self, group, data):
        x = random_element(group, data)
        assert AlgebraElement.from_hex(group, x.to_hex()) == x


class TestElementIsAValue:
    """An element is an immutable value of its group and bits, not a tuple."""

    @pytest.mark.parametrize("bits", [-1, 1 << 15])
    def test_a_bitset_out_of_range_is_refused(self, bits):
        with pytest.raises(ValueError, match="out of range"):
            AlgebraElement(C3x5, bits)

    def test_the_full_bitset_is_accepted(self):
        assert AlgebraElement(C3x5, (1 << 15) - 1) == AlgebraElement.all_ones(C3x5)

    @pytest.mark.parametrize("op", [lambda e: 3 * e, len, iter], ids=["3*e", "len", "iter"])
    def test_tuple_operations_are_refused(self, op):
        with pytest.raises(TypeError):
            op(AlgebraElement(C3x5, 0b101))

    def test_an_element_is_not_equal_to_its_fields(self):
        e = AlgebraElement(C3x5, 0b101)
        assert e != (e.group, e.bits) and not e == (e.group, e.bits)

    def test_an_element_cannot_be_changed(self):
        e = AlgebraElement(C3x5, 0b101)
        with pytest.raises(AttributeError):
            e.bits = 0
        with pytest.raises(AttributeError):
            del e.group
        assert e.bits == 0b101

    def test_a_copy_and_a_pickle_are_equal(self):
        e = AlgebraElement(C3x5, 0b101)
        assert copy.copy(e) == e and pickle.loads(pickle.dumps(e)) == e

    def test_equal_elements_hash_alike_and_share_one_ideal_record(self):
        e = family_pq(3, 5).elements["e3"]
        twin = AlgebraElement(AbelianGroup(e.group.factor_orders), e.bits)
        assert twin is not e and twin == e and hash(twin) == hash(e)
        codes.clear_caches()
        assert codes._checked_ideal(twin) is codes._checked_ideal(e)
        assert codes._checked_ideal.cache_info().currsize == 1
        codes.clear_caches()


TABLE_GROUPS = [[15], [3, 5], [9, 25], [3, 5, 11], [3, 3, 11], [27, 9, 5], [6]]


class TestRankTables:
    """Each table against the element-by-element map it tabulates."""

    @pytest.mark.parametrize("orders", TABLE_GROUPS)
    def test_power_ranks(self, orders):
        group = AbelianGroup(orders)
        for k in (0, 1, 2, 3, 7, (math.lcm(*orders) + 1) // 2, -1):
            table = group.power_ranks(k)
            assert table == [
                group.rank(group.scale(group.unrank(r), k)) for r in range(group.order)
            ]
            assert group.power_ranks(k) is table

    @pytest.mark.parametrize("orders", TABLE_GROUPS)
    def test_multiple_ranks(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(group.order)
        picks = [group.identity(), (1,) * len(orders), group.generator(len(orders) - 1)]
        picks += [group.unrank(rng.randrange(group.order)) for _ in range(3)]
        for g in picks:
            assert group.multiple_ranks(g, group.order) == [
                group.rank(group.scale(g, t)) for t in range(group.order)
            ]

    @pytest.mark.parametrize(
        "orders, g, count",
        [
            ([9, 25], (0, 5), 5),  # a u/v block's count = prime, below the order 25
            ([27, 25], (3, 0), 3),
            ([3, 5, 11], (1, 2, 3), 4),  # below two of the orders
            ([3, 5, 11], (2, 1, 7), 17),  # not a multiple of 3, 5 or 11
            ([27, 9, 5], (1, 1, 1), 301),
            ([6], (4,), 7),  # period 3 in an even order
            ([9, 25], (0, 0), 7),  # the identity: all ranks 0
            ([3, 5], (1, 1), 0),
        ],
    )
    def test_multiple_ranks_for_any_count(self, orders, g, count):
        group = AbelianGroup(orders)
        assert group.multiple_ranks(g, count) == [
            group.rank(group.scale(g, t)) for t in range(count)
        ]

    @pytest.mark.parametrize("orders", TABLE_GROUPS)
    def test_linear_values(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(group.order)
        for modulus in (math.lcm(*orders), group.order, 7):
            images = [rng.randrange(modulus) for _ in orders]
            assert group.linear_values(images, modulus) == [
                sum(c * x for c, x in zip(images, group.unrank(r))) % modulus
                for r in range(group.order)
            ]

    @pytest.mark.parametrize("orders", TABLE_GROUPS)
    def test_unrank_inverts_rank(self, orders):
        group = AbelianGroup(orders)
        elements = list(group.elements())
        assert [group.rank(e) for e in elements] == list(range(group.order))
        assert all(0 <= x < n for e in elements for x, n in zip(e, orders))


class TestGatherBits:
    def test_each_single_source(self):
        # one source: itemgetter returns one character, not a tuple
        word = 0b1011001
        for r in range(7):
            assert gather_bits(word, 7, [r]) == word >> r & 1

    def test_the_quotient_of_the_whole_group_hat_is_one_coset(self):
        # I0 is the hat of G: G/H is trivial, n' = 1, and its word is read from one source
        fam = family_prime_power(3, 2, 5, 2)
        quotient = codes._cyclic_quotient(fam.elements["I0"])
        assert (quotient.order, quotient.word) == (1, 1)
        assert quotient.lift(1) == fam.elements["I0"].bits


class TestCyclicBridge:
    def test_generator_exponents(self):
        assert cyclic_exponent(C3x5, (1, 0)) == 10
        assert cyclic_exponent(C3x5, (0, 1)) == 6
        assert cyclic_exponent(C3x5, (1, 1)) == 1

    def test_roundtrip(self):
        x = AlgebraElement.from_terms(C3x5, [(1, 2), (2, 0), (0, 4)])
        orders = C3x5.factor_orders
        terms = [tuple(k % n for n in orders) for k in as_cyclic(x).support_ranks()]
        back = AlgebraElement.from_terms(C3x5, terms)
        assert back == x

    def test_rejects_non_coprime_factors(self):
        with pytest.raises(ValueError, match="coprime"):
            cyclic_exponent(AbelianGroup([3, 3]), (1, 1))

    def test_as_cyclic_rejects_non_coprime_factors_even_for_zero(self):
        c3x3 = AbelianGroup([3, 3])
        for x in (AlgebraElement.zero(c3x3), AlgebraElement.one(c3x3)):
            with pytest.raises(ValueError, match="coprime"):
                as_cyclic(x)

    @pytest.mark.parametrize("orders", [[15], [3, 5], [3, 5, 11], [9, 25]])
    def test_as_cyclic_matches_the_per_element_exponents(self, orders):
        group = AbelianGroup(orders)
        x = AlgebraElement(group, random.Random(group.order).getrandbits(group.order))
        expected = sum(1 << cyclic_exponent(group, e) for e in x.support())
        assert as_cyclic(x) == AlgebraElement(AbelianGroup([group.order]), expected)


class TestOutsideInputsAreChecked:
    """An element or rank from a caller is refused, not zipped short or wrapped."""

    WRONG_LENGTH = "expected 2 entries, one per cyclic factor"

    @pytest.mark.parametrize("e", [(1, 2, 4), (1,)])
    def test_monomial(self, e):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            AlgebraElement.monomial(C3x5, e)

    def test_from_terms(self):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            AlgebraElement.from_terms(C3x5, [(1,), (1, 0)])

    def test_subgroup_generator(self):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            Subgroup.from_generators(C3x5, [(1,)])

    def test_extended_reduces_its_generator(self):
        sub = Subgroup.trivial(C3x5).extended((4, 10))
        assert sub.generators == ((1, 0),) and sub.order == 3

    @pytest.mark.parametrize("e", [(1,), (1, 0, 7)])
    def test_cyclic_exponent(self, e):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            cyclic_exponent(C3x5, e)

    @pytest.mark.parametrize("r", [-1, 15])
    def test_unrank(self, r):
        with pytest.raises(ValueError, match=r"outside \[0, 15\)"):
            C3x5.unrank(r)

    def test_multiple_ranks(self):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            C3x5.multiple_ranks((1,), 15)

    def test_linear_values(self):
        with pytest.raises(ValueError, match=self.WRONG_LENGTH):
            C3x5.linear_values([1], 15)
