import itertools
import math
import random
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from abelcodes import codes, cyclotomic, idempotents
from abelcodes.cli import RunConfig, run
from abelcodes.codes import (
    BudgetExceededError,
    FalsificationError,
    NotMinimalIdealError,
    analyze_family,
    code_seed_word,
    family_verification,
    generator_matrix,
    ideal_basis,
    ideal_dimension,
    minimum_weight,
    explicit_bases,
    scan_codewords,
    split_swap_map_matches,
    table_witness_words,
    theoretical_expectations,
    verify_primitivity,
    weight_distribution,
)
from abelcodes.gf2 import bit_indices, gf2_rank, independent_row_indices, poly_mulmod
from abelcodes.group_algebra import AbelianGroup, AlgebraElement, Subgroup, gather_bits
from abelcodes.idempotents import (
    family_pq,
    family_prime_power,
    family_three_primes,
    family_two_factor,
)
from abelcodes.number_theory import hypothesis_failures, is_odd_prime, multiplicative_order
from oracles import (
    berlekamp_massey,
    doubling_orbit_leaders,
    doubling_orbit_sizes,
    first_translates,
    full_width_idempotent_count,
    gray_flip_sequence,
    gray_scan_codewords,
    naive_weight_distribution,
    orbit_walk,
    per_bit_power,
    per_term_product,
    poly_powmod,
    quotient_is_cyclic,
    rabin_is_irreducible,
    replace_elements,
    stabilizer,
)


@pytest.fixture(scope="module")
def fam15():
    return family_pq(3, 5)


@pytest.fixture(scope="module")
def fam33():
    return family_pq(3, 11)


@pytest.fixture(scope="module")
def fam45():
    return family_prime_power(3, 2, 5, 1)


@pytest.fixture(scope="module")
def fam675():
    return family_prime_power(3, 3, 5, 2)


class TestDimension:
    def test_examples(self, fam15, fam33):
        assert ideal_dimension(fam15.elements["e3"]) == 4
        assert ideal_dimension(fam33.elements["e3"]) == 10
        assert ideal_dimension(fam15.elements["e0"]) == 1
        assert ideal_dimension(fam33.elements["e0"]) == 1

    def test_basis_is_in_ideal(self, fam15):
        e = fam15.elements["e3"]
        for x in ideal_basis(e):
            assert x * e == x


class TestIdealCertificate:
    @pytest.mark.parametrize("build", [ideal_basis, ideal_dimension])
    def test_a_generator_that_is_not_idempotent_is_refused(self, fam15, build):
        g = fam15.group
        e = fam15.elements["e3"] + AlgebraElement.monomial(g, g.generator(0))
        codes.clear_caches()
        with pytest.raises(FalsificationError, match="not fixed by the idempotent"):
            build(e)

    def test_explicit_bases_refuse_a_hat_difference_word_outside_the_ideal(
        self, fam15, monkeypatch
    ):
        # hat(a) + 1 in place of hat(a) puts every e1 hat-difference word outside F2[G]e1
        subgroup = codes.Subgroup

        def wrong_a_hat(group, generators):
            sub = subgroup.from_generators(group, generators)
            if list(generators) != [(1, 0)]:
                return sub
            return SimpleNamespace(hat=lambda: sub.hat() + AlgebraElement.one(group))

        monkeypatch.setattr(codes, "Subgroup", SimpleNamespace(from_generators=wrong_a_hat))
        with pytest.raises(FalsificationError, match="not fixed by the idempotent"):
            explicit_bases(fam15)

    def test_a_dependent_basis_is_refused(self, fam15, monkeypatch):
        # with every translate equal to its word, the e1 translate basis is e1, e1
        monkeypatch.setattr(AlgebraElement, "translated", lambda x, g: x)
        with pytest.raises(FalsificationError, match="linearly dependent"):
            explicit_bases(fam15)

    @pytest.mark.parametrize("label", ["e0", "e1", "e2", "e3", "e4"])
    def test_a_check_polynomial_below_the_dimension_is_refused(self, fam15, label, monkeypatch):
        # the modulus as gcd(e-bar, x**n' + 1) gives h = 1 and k = 0: the rank
        # proves only dim >= 0, and h * e-bar == e-bar != 0 refuses the record
        monkeypatch.setattr(codes, "poly_gcd", lambda modulus, word: modulus)
        codes.clear_caches()
        try:
            with pytest.raises(FalsificationError, match="does not annihilate e-bar"):
                ideal_dimension(fam15.elements[label])
        finally:
            codes.clear_caches()

    @pytest.mark.parametrize("fixture", ["fam15", "fam45", "fam675"])
    def test_each_basis_certificate_takes_one_squaring(self, fixture, request, monkeypatch):
        fam = request.getfixturevalue(fixture)
        codes.clear_caches()
        checked = _count_calls(monkeypatch, codes, "check_basis")
        squarings = _count_calls(monkeypatch, AlgebraElement, "frobenius")
        products = _count_calls(monkeypatch, AlgebraElement, "__mul__")
        for label in fam.labels:
            assert len(ideal_basis(fam.elements[label])) == fam.predicted_dims[label]
        assert [args[1] for args, _ in checked] == [fam.elements[lab] for lab in fam.labels]
        assert [args for args, _ in squarings] == [(fam.elements[lab],) for lab in fam.labels]
        assert products == []


class TestSeedWord:
    def test_weights(self):
        for (p, q), expected in (((3, 5), 8), ((3, 11), 14), ((11, 13), 24)):
            fam = family_pq(p, q)
            assert code_seed_word(fam, "e3").weight == expected
            assert code_seed_word(fam, "e4").weight == expected


class TestExplicitBases:
    def test_c15(self, fam15):
        bases = explicit_bases(fam15)
        # normalized pair is (5, 3): e1 has dimension q - 1 = 2, e2 has p - 1 = 4
        assert len(bases["e1"]["hat_difference"]) == 2
        assert len(bases["e1"]["translates"]) == 2
        assert len(bases["e2"]["hat_difference"]) == 4
        assert len(bases["e3"]["seed_translates"]) == 4
        assert bases["e0"]["unit"] == [fam15.elements["e0"]]
        for word in bases["e3"]["seed_translates"] + bases["e4"]["seed_translates"]:
            assert word.weight == 8

    def test_c33(self, fam33):
        bases = explicit_bases(fam33)
        assert len(bases["e1"]["translates"]) == 10
        assert len(bases["e3"]["seed_translates"]) == 10
        for word in bases["e3"]["seed_translates"]:
            assert word.weight == 14


class TestMinimumWeight:
    def test_c15_exact(self, fam15):
        expected = {"e0": 15, "e1": 10, "e2": 6, "e3": 8, "e4": 8}
        for label, value in expected.items():
            result = minimum_weight(fam15.elements[label], budget=1 << 10)
            assert result.exact and result.value == value
            assert result.witness is not None and result.witness.weight == value

    def test_c33_exact(self, fam33):
        expected = {"e0": 33, "e1": 6, "e2": 22, "e3": 12, "e4": 12}
        for label, value in expected.items():
            result = minimum_weight(fam33.elements[label], budget=1 << 12)
            assert result.exact and result.value == value

    def test_bounds_when_budget_refuses(self):
        fam = family_pq(11, 13)
        # the bare primitive only knows the parity bound and the idempotent itself
        bare = minimum_weight(fam.elements["e3"], budget=1 << 10)
        assert not bare.exact
        assert (bare.lower, bare.upper) == (2, 72)
        # the analysis pipeline folds in the theory bracket and the seed codeword
        from abelcodes.codes import analyze_code

        report = analyze_code(fam, "e3", budget=1 << 10)
        assert not report.min_weight.exact
        assert report.min_weight.lower == 4
        assert report.min_weight.upper == 24


class TestWeightDistribution:
    def test_c15_e3(self, fam15):
        assert weight_distribution(fam15.elements["e3"], budget=1 << 10) == {8: 15}

    def test_c33_e3(self, fam33):
        assert weight_distribution(fam33.elements["e3"], budget=1 << 10) == {
            12: 165, 14: 165, 16: 165, 18: 330, 20: 165, 22: 33,
        }

    def test_repetition_code(self, fam15):
        assert weight_distribution(fam15.elements["e0"], budget=1 << 10) == {15: 1}

    def test_budget_refusal(self):
        fam = family_pq(11, 13)
        with pytest.raises(BudgetExceededError) as exc:
            weight_distribution(fam.elements["e3"], budget=1 << 10)
        assert exc.value.required_budget == 1 << 60

    def test_an_oversize_scan_is_refused_before_the_field_search(self, monkeypatch):
        e = family_prime_power(3, 2, 5, 2).elements["I22*"]
        rows = [x.bits for x in ideal_basis(e)]
        searches = _count_calls(monkeypatch, codes, "_orbit_multiplier")
        with pytest.raises(BudgetExceededError, match="scan limit") as exc:
            scan_codewords(rows, e=e)
        assert searches == [] and exc.value.required_budget == 1 << 60

    def test_a_row_count_other_than_the_dimension_is_refused_cold_and_warm(self, fam33):
        # unchecked, a cold scan of 3 rows folds their 7 words and a warm one returns
        # the 1023 of the carried full scan
        e = fam33.elements["e3"]
        codes.clear_caches()
        rows = [x.bits for x in ideal_basis(e)]
        assert len(rows) == 10
        with pytest.raises(ValueError, match="takes 10 basis rows, got 3"):
            scan_codewords(rows[:3], e=e)
        assert sum(scan_codewords(rows, e=e)[2].values()) == 1023
        for wrong in (rows[:3], rows[:9], rows + rows[:1]):
            with pytest.raises(ValueError, match="takes 10 basis rows"):
                scan_codewords(wrong, e=e)

    @pytest.mark.parametrize("limit", [10, 100])
    def test_a_sum_is_refused_by_the_scan_limit_or_as_not_minimal(
        self, fam15, limit, monkeypatch
    ):
        # e3 + e4 is not a field: its fold would span 255 // 15 = 17 cosets, and
        # the scan limit is checked before the field certificate
        e = fam15.elements["e3"] + fam15.elements["e4"]
        codes.clear_caches()
        rows = [x.bits for x in ideal_basis(e)]
        monkeypatch.setattr(codes, "MAX_SCAN_ENTRIES", limit)
        certificates = _count_calls(monkeypatch, codes, "_idempotent_count")
        if limit < 17:
            with pytest.raises(BudgetExceededError, match="needs 17 entries"):
                scan_codewords(rows, e=e)
            result = minimum_weight(e, budget=1 << 10)
            assert not result.exact and f"scan limit {limit}" in result.notes[0]
            assert certificates == []
        else:
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                scan_codewords(rows, e=e)
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                minimum_weight(e, budget=1 << 10)

    def test_csv_export(self, fam33):
        from abelcodes.codes import distribution_csv

        hist = weight_distribution(fam33.elements["e3"], budget=1 << 10)
        csv = distribution_csv(hist)
        assert csv.splitlines()[0] == "weight,count"
        assert "12,165" in csv and "22,33" in csv

    def test_gray_agrees_with_naive_oracle(self, fam15, fam33, fam45):
        cases = [
            (fam15, ("e1", "e2", "e3", "e4")),
            (fam33, ("e3",)),
            (fam45, ("I20", "I11*")),
        ]
        for fam, labels in cases:
            for label in labels:
                e = fam.elements[label]
                rows = [x.bits for x in ideal_basis(e)]
                assert len(rows) <= 12
                naive = naive_weight_distribution(rows)
                _, _, hist = scan_codewords(rows, e=e)
                assert hist == naive
                _, _, gray = gray_scan_codewords(rows, ncols=fam.group.order)
                assert gray == naive

    def test_fold_matches_gray_scan(self, fam33):
        e = fam33.elements["e3"]
        rows = [x.bits for x in ideal_basis(e)]
        best, word, hist = scan_codewords(rows, e=e)
        gray_best, _, gray_hist = gray_scan_codewords(rows, ncols=33)
        assert (best, hist) == (gray_best, gray_hist)
        assert word.bit_count() == best
        assert scan_codewords(rows, e=e) == (best, word, hist)

    def test_orbit_reduced_crosscheck_c33(self, fam33):
        # every codeword weight is constant on its translation orbit, so the
        # histogram can be rebuilt from orbit representatives
        e = fam33.elements["e3"]
        group = fam33.group
        rows = [x.bits for x in ideal_basis(e)]
        hist = weight_distribution(e, budget=1 << 10)
        _, _, full = scan_codewords(rows, e=e)
        # enumerate all words once more, canonicalizing by translation orbit
        seen: set[int] = set()
        rebuilt: dict[int, int] = {}
        word = 0
        for flip in gray_flip_sequence(len(rows)):
            word ^= rows[flip]
            if word in seen:
                continue
            orbit = {group.translate_bits(word, g) for g in group.elements()}
            seen |= orbit
            w = word.bit_count()
            assert all(o.bit_count() == w for o in orbit)
            rebuilt[w] = rebuilt.get(w, 0) + len(orbit)
        assert rebuilt == hist == full


class TestNotAMinimalIdeal:
    """Only minimal ideals are enumerated; every other ideal is refused by name."""

    def test_the_zero_element_has_no_minimum_weight(self):
        zero = AlgebraElement.zero(AbelianGroup([15]))
        assert ideal_basis(zero) == []
        for enumerate_ in (minimum_weight, weight_distribution):
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                enumerate_(zero, budget=1 << 10)

    def test_the_unit_of_an_even_group_is_refused(self):
        one = AlgebraElement.one(AbelianGroup([2]))
        assert ideal_dimension(one) == 2
        with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
            minimum_weight(one, budget=1 << 10)

    def test_an_over_budget_sum_gets_bounds_without_a_field_test(self, monkeypatch):
        fam = family_pq(11, 13)
        e = fam.elements["e3"] + fam.elements["e4"]
        codes.clear_caches()
        certificates = _count_calls(monkeypatch, codes, "_idempotent_count")
        result = minimum_weight(e, budget=1 << 20)
        assert (result.lower, result.upper, result.exact) == (2, 120, False)
        assert certificates == []


class TestKeptRefusals:
    """Each ideal is scanned or refused once until clear_caches: its record
    keeps the refusal and raises it again on every later read."""

    def test_a_not_minimal_refusal_is_raised_again_without_a_second_scan(
        self, fam15, monkeypatch
    ):
        e = fam15.elements["e3"] + fam15.elements["e4"]
        codes.clear_caches()
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        raised = []
        for enumerate_ in (weight_distribution, minimum_weight, weight_distribution):
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal") as exc:
                enumerate_(e, budget=1 << 10)
            raised.append(exc.value)
        ideal = codes._checked_ideal(e)
        assert len(scans) == 1 and "scan" not in vars(ideal)
        assert all(exc is ideal.refusal for exc in raised)

    def test_a_scan_limit_refusal_is_kept_and_carries_n(self, monkeypatch):
        e = family_prime_power(3, 2, 5, 2).elements["I22*"]
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        raised = []
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="over the scan limit") as exc:
                weight_distribution(e, budget=1 << 64)
            raised.append(exc.value)
        result = minimum_weight(e, budget=1 << 64)
        assert len(scans) == 1 and raised[0] is raised[1] is codes._checked_ideal(e).refusal
        assert result.notes[0] == f"enumeration refused: {raised[0]}" and not result.exact
        n = quotient.cosets
        assert raised[0].entries == n == ((1 << 60) - 1) // quotient.order > codes.MAX_SCAN_ENTRIES
        # the budget refuses before any scan, and its refusal carries no entries
        with pytest.raises(BudgetExceededError, match="exceeds the budget") as exc:
            weight_distribution(e, budget=1 << 20)
        assert (exc.value.entries, exc.value.required_budget) == (0, 1 << 60)
        assert len(scans) == 1

    def test_clear_caches_forgets_a_refusal(self, fam15, monkeypatch):
        # e3 + e4 on 15 spans 17 cosets: over a scan limit of 10, not of 100
        e = fam15.elements["e3"] + fam15.elements["e4"]
        codes.clear_caches()
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        monkeypatch.setattr(codes, "MAX_SCAN_ENTRIES", 10)
        with pytest.raises(BudgetExceededError, match="needs 17 entries"):
            weight_distribution(e, budget=1 << 10)
        monkeypatch.setattr(codes, "MAX_SCAN_ENTRIES", 100)
        with pytest.raises(BudgetExceededError, match="needs 17 entries"):
            weight_distribution(e, budget=1 << 10)
        assert len(scans) == 1
        codes.clear_caches()
        with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
            weight_distribution(e, budget=1 << 10)
        assert len(scans) == 2
        assert isinstance(codes._checked_ideal(e).refusal, NotMinimalIdealError)


ORACLE_FAMILIES = {
    "15": lambda: family_pq(3, 5),
    "33": lambda: family_pq(3, 11),  # "3x11" names the same family
    "45": lambda: family_prime_power(3, 2, 5, 1),
    "3x5x11": lambda: family_three_primes(3, 5, 11),
    "9x25": lambda: family_prime_power(3, 2, 5, 2),
    "27x25": lambda: family_prime_power(3, 3, 5, 2),
}


ADMISSIBLE_PAIRS_BELOW_60 = [
    (p, q)
    for p in range(3, 60)
    for q in range(p + 1, 60)
    if is_odd_prime(p) and is_odd_prime(q) and not hypothesis_failures(p, q)
]


class TestOrbitWalk:
    @pytest.mark.parametrize("spec", sorted(ORACLE_FAMILIES))
    def test_small_codes_match_the_naive_oracle(self, spec):
        fam = ORACLE_FAMILIES[spec]()
        checked = 0
        for label in fam.labels:
            e = fam.elements[label]
            rows = [x.bits for x in ideal_basis(e)]
            if len(rows) > 16:
                continue
            best, word, hist = scan_codewords(rows, e=e)
            assert hist == naive_weight_distribution(rows), label
            witness = AlgebraElement(fam.group, word)
            assert best == min(hist) == witness.weight, label
            assert witness * e == witness, label
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("spec", sorted(ORACLE_FAMILIES))
    def test_codes_up_to_dimension_20_match_the_gray_scan(self, spec, monkeypatch):
        fam = ORACLE_FAMILIES[spec]()
        paths = _scan_paths(monkeypatch)
        labels = [lab for lab in fam.labels if fam.predicted_dims[lab] <= 20]
        assert len(labels) >= 5
        codes.clear_caches()
        for label in labels:
            e = fam.elements[label]
            rows = [x.bits for x in ideal_basis(e)]
            best, word, hist = codes.scan_codewords(rows, e=e)
            _assert_certified(paths[-1], label)
            gray_best, _, gray_hist = gray_scan_codewords(rows, ncols=fam.group.order)
            assert (best, hist) == (gray_best, gray_hist), label
            witness = AlgebraElement(fam.group, word)
            assert witness.weight == best and witness * e == witness, label

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_60))
    def test_pq_codes_match_the_naive_oracle(self, pair):
        fam = family_pq(*pair)
        for label in fam.labels:
            if fam.predicted_dims[label] > 14:
                continue
            e = fam.elements[label]
            rows = [x.bits for x in ideal_basis(e)]
            best, word, hist = scan_codewords(rows, e=e)
            assert hist == naive_weight_distribution(rows), (pair, label)
            assert best == min(hist) == word.bit_count(), (pair, label)

    @pytest.mark.parametrize("label", ["e8", "e9"])
    def test_one_field_certificate_per_code(self, label, monkeypatch):
        # one idempotent count, on the quotient record of check polynomial h,
        # and one table set, of y -> y**2 in F2[x]/h
        e = family_three_primes(3, 5, 11).elements[label]
        codes.clear_caches()
        certificates = _count_calls(monkeypatch, codes, "_idempotent_count")
        tables = _count_calls(monkeypatch, codes, "_split_tables")
        assert minimum_weight(e, budget=1 << 20).value == 48
        quotient = codes._checked_ideal(e).quotient
        h = quotient.check
        assert [args for args, _ in certificates] == [(quotient,)]
        assert [args for args, _ in tables] == [(codes._shift_images(1, h, 40)[::2], 7)]

    @pytest.mark.parametrize("fixture", ["fam15", "fam33"])
    def test_split_pair_sum_is_refused_as_not_minimal(self, fixture, request, monkeypatch):
        fam = request.getfixturevalue(fixture)
        e = fam.elements["e3"] + fam.elements["e4"]  # not a minimal ideal, so not a field
        assert e * e == e
        codes.clear_caches()
        folds = _count_calls(monkeypatch, codes, "_coset_fold")
        rows = [x.bits for x in ideal_basis(e)]
        with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
            scan_codewords(rows, e=e)
        for enumerate_ in (minimum_weight, weight_distribution):
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                enumerate_(e, budget=1 << 20)
        ideal = codes._checked_ideal(e)
        assert folds == [] and "scan" not in vars(ideal)
        assert isinstance(ideal.refusal, NotMinimalIdealError)
        # the oracle still walks the sum: its lightest word has weight 4
        best, word, _ = gray_scan_codewords(rows, ncols=fam.group.order)
        witness = AlgebraElement(fam.group, word)
        assert best == witness.weight == 4 and witness * e == witness

    def test_a_sum_with_k_equal_to_the_order_of_2_is_refused_by_the_idempotent_count(
        self, fam45, monkeypatch
    ):
        # I20 + I01 + I10 on 45 has n' = 45 and k = 6 + 4 + 2 = 12 = ord_45(2), like a
        # field would, but its h is the product of the three members' check polynomials
        e = fam45.elements["I20"] + fam45.elements["I01"] + fam45.elements["I10"]
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        assert (quotient.order, quotient.dimension) == (45, 12)
        assert multiplicative_order(2, 45) == 12
        assert verify_primitivity(e)["idempotents_found"] == 8
        certificates = _count_calls(monkeypatch, codes, "_idempotent_count")
        for enumerate_ in (minimum_weight, weight_distribution):
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                enumerate_(e, budget=1 << 20)
        # the ideal keeps the refusal of its one scan: one count for both reads
        assert [args for args, _ in certificates] == [(quotient,)]
        assert isinstance(codes._checked_ideal(e).refusal, NotMinimalIdealError)

    def test_cold_runs_give_the_same_witness(self):
        fam = family_three_primes(3, 5, 11)
        witnesses = []
        for _ in range(2):
            codes.clear_caches()
            witnesses.append(minimum_weight(fam.elements["e8"], budget=1 << 20).witness)
        assert witnesses[0] == witnesses[1]
        assert witnesses[0].weight == 48


# N = (2**k - 1)/d for every d | 2**k - 1, k <= 18: the orders the oracle walk
# sieves, where every orbit size divides k; then the orders of the k = 20
# workload codes
SIEVE_ORDERS = sorted(
    {((1 << k) - 1) // d for k in range(1, 19) for d in range(1, 1 << k) if ((1 << k) - 1) % d == 0}
) + [6355, 13981, 19065, 41943]

# (f, z) that the search with poly_powmod chose on each certified k >= 10 label,
# f the check polynomial h of its record (9x25 I22* and I22** have k = 60 and
# are never scanned)
POWMOD_GENERATORS = {
    ("3x5x11", "e1"): (0b11111111111, 11),
    ("3x5x11", "e6"): (0b11000100011, 3),
    ("3x5x11", "e7"): (0b10010101001, 3),
    ("3x5x11", "e8"): (0b101101101001011100111, 11),
    ("3x5x11", "e9"): (0b111001110100101101101, 11),
    ("3x5x11", "e10"): (0b111010001110010010011, 3),
    ("3x5x11", "e11"): (0b110001011000111010101, 3),
    ("3x5x11", "e12"): (0b110010010011100010111, 3),
    ("3x5x11", "e13"): (0b101010111000110100011, 3),
    ("9x25", "I02"): (0b100001000010000100001, 19),
    ("9x25", "I12*"): (0b100001000000000000001, 3),
    ("9x25", "I12**"): (0b100000000000000100001, 3),
    ("9x25", "I21*"): (0b1001000000001, 3),
    ("9x25", "I21**"): (0b1000000001001, 3),
}


class TestLeaderWalk:
    @pytest.mark.parametrize("n", SIEVE_ORDERS)
    def test_leaders_and_sizes_match_the_per_exponent_table(self, n):
        leaders, sizes = doubling_orbit_leaders(n)
        table = doubling_orbit_sizes(n)
        assert list(leaders) == [j for j, size in enumerate(table) if size] + [n]
        assert list(sizes) == [size for size in table if size] + [0]
        assert sum(sizes) == n

    @pytest.mark.parametrize("spec, label", sorted(POWMOD_GENERATORS))
    def test_table_powers_match_poly_powmod(self, spec, label):
        fam = ORACLE_FAMILIES[spec]()
        e, k = fam.elements[label], fam.predicted_dims[label]
        quotient = codes._checked_ideal(e).quotient
        f = quotient.check
        z, _, square = codes._orbit_multiplier(quotient)
        assert (f, z) == POWMOD_GENERATORS[spec, label]
        width = -(-k // 3)
        assert square == codes._split_tables(codes._shift_images(1, f, 2 * k)[::2], width)
        rng = random.Random(k)
        for y in [z] + [rng.randrange(1, 1 << k) for _ in range(15)]:
            for exp in [0, 1, (1 << k) - 1] + [rng.randrange(1 << (k + 1)) for _ in range(10)]:
                assert codes._table_power(square, y, f, exp) == poly_powmod(y, exp, f)


# the z of _orbit_multiplier by n', on every field code of RANK_FAMILIES,
# 3x29 and 11x13 that scan_codewords would search
MULTIPLIERS = {
    5: 3, 9: 3, 11: 11, 13: 11, 25: 19, 27: 11, 29: 43, 33: 3, 45: 3, 55: 11, 75: 3, 87: 3, 165: 3,
}

QUOTIENT_FAMILIES = {
    "(3x3)x11": lambda: family_two_factor([3, 3], [11]),
    "(3x3)x5": lambda: family_two_factor([3, 3], [5]),
    "(9x9)x5": lambda: family_two_factor([9, 9], [5]),
    "(27x9)x5": lambda: family_two_factor([27, 9], [5]),
    "27x25": lambda: family_prime_power(3, 3, 5, 2),
    "3x5x11": lambda: family_three_primes(3, 5, 11),
}

RANK_FAMILIES = {
    **ORACLE_FAMILIES,
    "(3x3)x11": QUOTIENT_FAMILIES["(3x3)x11"],
    "(27x9)x5": QUOTIENT_FAMILIES["(27x9)x5"],
}

ADMISSIBLE_PAIRS_BELOW_100 = [
    (p, q)
    for p in range(3, 100)
    for q in range(p + 1, 100)
    if is_odd_prime(p) and is_odd_prime(q) and not hypothesis_failures(p, q)
]


def _rotation(word, t, n):
    """The n-bit word rotated by t: bit s goes to bit s + t mod n."""
    return (word << t | word >> (n - t)) & ((1 << n) - 1)


def _assert_gamma_basis(e, tag):
    """The basis of an ideal with a record is its k translates along gamma,
    certified in full by check_basis, with the span of all its translates."""
    group = e.group
    quotient = codes._checked_ideal(e).quotient
    n, k = quotient.order, quotient.dimension
    rows = [x.bits for x in ideal_basis(e)]
    assert len(rows) == k, tag
    cosets = quotient.coset_indices()  # quotient.lift, with the indices built once
    for t, row in enumerate(rows):
        assert row == group.translate_bits(e.bits, group.scale(quotient.gamma, t)), (tag, t)
        assert row == gather_bits(_rotation(quotient.word, t, n), n, cosets), (tag, t)
    assert codes.check_basis(rows, e) == k, tag
    translates, _ = first_translates(e)
    oracle = [translates[i] for i in independent_row_indices(translates)]
    assert len(oracle) == k == gf2_rank(rows + oracle), tag


class TestQuotientRecord:
    @pytest.mark.parametrize("spec", sorted(QUOTIENT_FAMILIES))
    def test_every_member_is_the_lift_of_its_quotient_word(self, spec):
        fam = QUOTIENT_FAMILIES[spec]()
        group = fam.group
        for label in fam.labels:
            e = fam.elements[label]
            quotient = codes._cyclic_quotient(e)
            rows, _ = first_translates(e)
            assert quotient.order == len(rows) == group.order // stabilizer(e).order, label
            assert quotient.lift(quotient.word) == e.bits, label
            # gamma has order n' modulo H, and g_i = c_i * gamma modulo H
            cosets = quotient.coset_indices()
            for t in range(quotient.order):
                g = group.scale(quotient.gamma, t)
                assert cosets[group.rank(g)] == t, (label, t)
            for i, c in enumerate(quotient.coefficients):
                g = group.add(group.generator(i), group.scale(quotient.gamma, -c))
                assert group.translate_bits(e.bits, g) == e.bits, (label, i)

    def test_sums_of_two_members_have_a_record_exactly_when_g_mod_h_is_cyclic(self):
        fam = QUOTIENT_FAMILIES["(3x3)x11"]()
        outcomes = []
        for i, j in itertools.combinations(range(len(fam.labels)), 2):
            e = fam.elements[fam.labels[i]] + fam.elements[fam.labels[j]]
            h = stabilizer(e)
            codes.clear_caches()
            refused = not quotient_is_cyclic(fam.group, h)
            outcomes.append(refused)
            if refused:
                for build in (
                    codes._cyclic_quotient,
                    ideal_basis,
                    ideal_dimension,
                    generator_matrix,
                    verify_primitivity,
                ):
                    with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                        build(e)
                continue
            quotient = codes._cyclic_quotient(e)
            assert quotient.order == fam.group.order // h.order, (i, j)
            assert quotient.lift(quotient.word) == e.bits, (i, j)
            _assert_gamma_basis(e, (i, j))
            assert verify_primitivity(e)["idempotents_found"] == 4, (i, j)
        assert (outcomes.count(True), outcomes.count(False)) == (54, 37)

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_the_record_keeps_the_generator_and_the_squares(self, spec):
        # g = gcd(e-bar, x**n' + 1) and g * h = x**n' + 1; N and x**(2i) mod h
        for label, e in RANK_FAMILIES[spec]().elements.items():
            quotient = codes._cyclic_quotient(e)
            n, k, h, g = quotient.order, quotient.dimension, quotient.check, quotient.generator
            modulus = 1 << n | 1
            assert g == codes.poly_gcd(modulus, quotient.word), label
            assert poly_mulmod(g, h, 1 << 2 * n + 1) == modulus, label
            assert quotient.cosets == ((1 << k) - 1) // n, label
            assert quotient.squares == [poly_powmod(2, 2 * i, h) for i in range(k)], label

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_gcd_dimension_matches_the_rank_of_the_translates(self, spec):
        fam = RANK_FAMILIES[spec]()
        for label in fam.labels:
            e = fam.elements[label]
            quotient = codes._cyclic_quotient(e)
            rank = gf2_rank(first_translates(e)[0])
            assert quotient.dimension == rank == fam.predicted_dims[label], label
            assert ideal_dimension(e) == rank, label

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_100))
    def test_gcd_dimension_matches_the_rank_on_pq_pairs(self, pair):
        fam = family_pq(*pair)
        for label in fam.labels:
            e = fam.elements[label]
            rank = gf2_rank(first_translates(e)[0])
            assert codes._cyclic_quotient(e).dimension == rank == ideal_dimension(e), (pair, label)

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_every_basis_is_taken_along_gamma(self, spec):
        fam = RANK_FAMILIES[spec]()
        codes.clear_caches()
        for label in fam.labels:
            _assert_gamma_basis(fam.elements[label], label)

    # few examples: the oracle reduces all |G| translates of each label (5561 on 67x83)
    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_100))
    def test_every_basis_is_taken_along_gamma_on_pq_pairs(self, pair):
        fam = family_pq(*pair)
        codes.clear_caches()
        for label in fam.labels:
            _assert_gamma_basis(fam.elements[label], (pair, label))

    @pytest.mark.parametrize("spec", ["3x5x11", "9x25"])
    def test_check_polynomial_is_the_minimal_polynomial_of_beta(self, spec):
        # beta = gamma * e; the identity coefficients of e, beta, beta**2, ...
        fam = ORACLE_FAMILIES[spec]()
        group = fam.group
        for label in fam.labels:
            e = fam.elements[label]
            quotient = codes._checked_ideal(e).quotient
            k = quotient.dimension
            seq = [
                group.translate_bits(e.bits, group.scale(quotient.gamma, i)) & 1
                for i in range(2 * k)
            ]
            assert berlekamp_massey(seq) == quotient.check, label


class TestPrimitivityOracle:
    """verify_primitivity's count on k-bit rows of F2[x]/h against the
    full-width count on the ideal's basis (full_width_idempotent_count)."""

    @staticmethod
    def _assert_same_count(e, tag):
        """Both counts agree, or both refuse an e with no cyclic G/H (False)."""
        try:
            report = verify_primitivity(e)
        except NotMinimalIdealError:
            with pytest.raises(NotMinimalIdealError, match="not a minimal ideal"):
                full_width_idempotent_count(e)
            return False
        assert report["idempotents_found"] == full_width_idempotent_count(e), tag
        assert report["dimension"] == ideal_dimension(e), tag
        return True

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_members_and_sums_match_the_full_width_count(self, spec):
        fam = RANK_FAMILIES[spec]()
        codes.clear_caches()
        for label in fam.labels:
            e = fam.elements[label]
            assert verify_primitivity(e)["idempotents_found"] == 2, label
            assert self._assert_same_count(e, label)
        counted = 0
        for r in (2, 3):
            sums = list(itertools.combinations(fam.labels, r))
            for labels in sums[:: -(-len(sums) // 40)]:  # at most 40, spread over the list
                e = sum((fam.elements[lab] for lab in labels[1:]), fam.elements[labels[0]])
                counted += self._assert_same_count(e, labels)
        assert counted

    @pytest.mark.parametrize("n, found", [(2, 2), (3, 4), (4, 2)])
    def test_the_unit_and_zero_of_a_cyclic_group(self, n, found):
        # F2[C2] and F2[C4] are local rings; F2[C3] = F2 x F4
        group = AbelianGroup([n])
        one, zero = AlgebraElement.one(group), AlgebraElement.zero(group)
        assert verify_primitivity(one)["idempotents_found"] == found
        assert self._assert_same_count(one, n)
        report = verify_primitivity(zero)
        assert (report["dimension"], report["idempotents_found"]) == (0, 1)
        assert self._assert_same_count(zero, n)

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_60))
    def test_split_pairs_and_their_sums_on_pq_pairs(self, pair):
        fam = family_pq(*pair)
        e3, e4 = fam.elements["e3"], fam.elements["e4"]
        for label, e in (("e3", e3), ("e4", e4), ("e3 + e4", e3 + e4)):
            assert self._assert_same_count(e, (pair, label))
        assert verify_primitivity(e3 + e4)["idempotents_found"] == 4


class TestFieldCount:
    """codes._idempotent_count, the package's one test of whether F2[x]/h is
    a field, against Rabin's test of h (oracles.rabin_is_irreducible)."""

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_the_count_matches_rabin_on_members_and_pairwise_sums(self, spec):
        fam = RANK_FAMILIES[spec]()
        members = [fam.elements[label] for label in fam.labels]
        sums = [a + b for a, b in itertools.combinations(members, 2)]
        fields, records = 0, 0
        for e in members + sums:
            try:
                quotient = codes._cyclic_quotient(e)
            except NotMinimalIdealError:
                continue
            records += 1
            n, k = quotient.order, quotient.dimension
            field = codes._idempotent_count(quotient) == 1
            assert field == rabin_is_irreducible(quotient.check), (n, k, bin(quotient.word))
            if field and n > 1:
                # c == 1 gives k == ord_n'(2), so N = (2**k - 1)/n' is exact
                assert multiplicative_order(2, n) == k, (n, k)
                assert quotient.cosets * n == (1 << k) - 1, (n, k)
            fields += field
        assert fields == len(members) and records > len(members)


def _folds_and_scans(fam, labels):
    folds = []
    original = codes._coset_fold

    def counted(quotient, *args):
        folds.append(quotient.order)
        return original(quotient, *args)

    codes.clear_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "_coset_fold", counted)
        scans = {}
        for label in labels:
            e = fam.elements[label]
            scans[label] = scan_codewords([x.bits for x in ideal_basis(e)], e=e)
    return folds, scans


class TestCarriedScans:
    @pytest.mark.parametrize("spec", sorted(ORACLE_FAMILIES))
    def test_each_carried_scan_matches_the_code_own_fold(self, spec):
        fam = ORACLE_FAMILIES[spec]()
        labels = [lab for lab in fam.labels if fam.predicted_dims[lab] <= 20]
        folds, shared = _folds_and_scans(fam, labels)
        for label in labels:
            e = fam.elements[label]
            _, alone = _folds_and_scans(fam, [label])
            best, word, hist = shared[label]
            assert (best, hist) == (alone[label][0], alone[label][2]), label
            witness = AlgebraElement(fam.group, word)
            assert witness.weight == best and witness * e == witness, label
        # one fold per quotient order n'
        assert sorted(folds) == sorted(set(folds))

    def test_the_dimension_20_codes_of_165_take_two_folds(self):
        fam = ORACLE_FAMILIES["3x5x11"]()
        labels = [lab for lab in fam.labels if fam.predicted_dims[lab] == 20]
        folds, scans = _folds_and_scans(fam, labels)
        assert labels == ["e8", "e9", "e10", "e11", "e12", "e13"]
        assert folds == [55, 165]
        for label in labels:
            e = fam.elements[label]
            best, word, hist = scans[label]
            witness = AlgebraElement(fam.group, word)
            assert best == 48 and witness.weight == 48 and witness * e == witness, label
            assert sum(hist.values()) == (1 << 20) - 1

    @pytest.mark.parametrize("n", [15, 33, 45, 55, 165, 225, 675, 1023])
    def test_one_unit_from_each_coset_of_2(self, n):
        codes.clear_caches()
        leaders = codes._unit_coset_leaders(n)
        units = {u for u in range(1, n) if math.gcd(u, n) == 1}
        cosets = [frozenset(u * pow(2, s, n) % n for s in range(n)) for u in leaders]
        assert all(math.gcd(u, n) == 1 for u in leaders)
        assert len(set(cosets)) == len(leaders) == len(units) // multiplicative_order(2, n)
        assert frozenset().union(*cosets) == units
        assert list(leaders) == sorted(min(c) for c in cosets)

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_unit_leaders_are_the_unit_leaders_of_the_oracle_sieve(self, spec):
        orders = set()
        for e in RANK_FAMILIES[spec]().elements.values():
            orders.add(codes._checked_ideal(e).quotient.order)
        for n in sorted(orders - {1}):  # n' = 1 is the repetition code, never carried
            leaders, _ = doubling_orbit_leaders(n)
            units = [u for u in leaders[:-1] if math.gcd(u, n) == 1]
            assert list(codes._unit_coset_leaders(n)) == units, n


def _takes_the_dual_side(n, k):
    """The rule of scan_codewords for a code of length n and dimension k:
    N = (2**k - 1)/n > 1 fits the scan limit and 2**m <= N // k, m = n - k."""
    total = (1 << k) - 1
    return total > n and total // n <= codes.MAX_SCAN_ENTRIES and 1 << (n - k) <= total // n // k


# every label of RANK_FAMILIES (which holds ORACLE_FAMILIES) that the rule
# sends to the dual side: n' = 11 (k = 10), 25 (k = 20) and 27 (k = 18)
DUAL_LABELS = [
    ("(27x9)x5", f"e_H{i}_hat") for i in range(1, 10)
] + [
    ("(3x3)x11", "e_hat_H1"),
    ("27x25", "I02"),
    ("27x25", "I30"),
    ("33", "e1"),
    ("3x5x11", "e1"),
    ("9x25", "I02"),
]

# the pairs with a faithful code of length p or q on the dual side
DUAL_PAIRS_BELOW_60 = [
    pair
    for pair in ADMISSIBLE_PAIRS_BELOW_60
    if any(_takes_the_dual_side(r, multiplicative_order(2, r)) for r in pair)
]


@lru_cache(maxsize=None)
def _quotient_gray_scan(word, n, k):
    """gray_scan_codewords over the first k rotations of the n-bit word."""
    return gray_scan_codewords([_rotation(word, t, n) for t in range(k)], ncols=n)


def _fold(quotient):
    """The package's fold of the quotient code of a field ideal, on n'-bit words."""
    return codes._coset_fold(quotient, *codes._orbit_multiplier(quotient))


def _walk(quotient):
    """The oracle leader walk of the same code, from the same z."""
    z, _, _ = codes._orbit_multiplier(quotient)
    return orbit_walk(quotient, z)


def _takes_the_fold(n, k):
    """The codes scan_codewords folds: N > 1 within the scan limit, off the dual side."""
    total = (1 << k) - 1
    return total > n and total // n <= codes.MAX_SCAN_ENTRIES and not _takes_the_dual_side(n, k)


def _field_idempotent(orders, h):
    """The idempotent of the minimal cyclic code of length n = prod(orders),
    the orders coprime, with check polynomial h: 1 mod h and 0 mod
    g = (x**n + 1)/h, with coefficient t on (t mod n_i)_i of C_n1 x C_n2 ..."""
    group, n = AbelianGroup(orders), math.prod(orders)
    modulus = 1 << n | 1
    g = codes._poly_quotient(modulus, h)
    inverse = poly_powmod(g, (1 << (h.bit_length() - 1)) - 2, h)
    word = poly_mulmod(g, inverse, modulus)
    ranks = [group.rank(tuple(t % m for m in orders)) for t in range(n)]
    return AlgebraElement(group, sum(1 << r for t, r in enumerate(ranks) if word >> t & 1))


def _assert_generator_witness(quotient, scanned, tag):
    """The dual side's word is g = (x**n' + 1)/h: h * g == 0 and wt(g) == d."""
    best, word, _ = scanned
    n = quotient.order
    assert poly_mulmod(quotient.check, word, 1 << n | 1) == 0, tag
    assert word.bit_count() == best, tag


class TestDualScan:
    def test_the_dual_labels_are_every_label_the_rule_picks(self):
        picked = []
        for spec, build in RANK_FAMILIES.items():
            for label, e in build().elements.items():
                quotient = codes._checked_ideal(e).quotient
                if _takes_the_dual_side(quotient.order, quotient.dimension):
                    picked.append((spec, label))
        assert sorted(picked) == sorted(DUAL_LABELS)

    @pytest.mark.parametrize("spec, label", DUAL_LABELS)
    def test_each_dual_label_matches_the_walk_and_the_gray_scan(self, spec, label):
        fam = RANK_FAMILIES[spec]()
        e = fam.elements[label]
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        n, k = quotient.order, quotient.dimension
        dual = codes._dual_scan(quotient)
        walk = _walk(quotient)
        best, word, hist = dual
        assert (best, hist) == (walk[0], walk[2]), label
        assert _fold(quotient) == walk, label
        gray_best, _, gray_hist = _quotient_gray_scan(quotient.word, n, k)
        assert (best, hist) == (gray_best, gray_hist), label
        _assert_generator_witness(quotient, dual, label)
        # the ideal's scan takes the dual side and lifts g to a word of weight |H| * d
        codes.clear_caches()
        scanned = scan_codewords([x.bits for x in ideal_basis(e)], e=e)
        scale = fam.group.order // n
        assert scanned[0] == scale * best and scanned[2] == {scale * w: c for w, c in hist.items()}
        witness = AlgebraElement(fam.group, scanned[1])
        assert witness == AlgebraElement(fam.group, quotient.lift(word)), label
        assert witness.weight == scanned[0] and witness * e == witness, label
        assert codes._checked_ideal(e).dual_dimension == n - k, label

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(DUAL_PAIRS_BELOW_60))
    def test_pq_codes_match_the_fold_and_the_walk(self, pair):
        # every pq code on the dual side has n' = p prime with ord_p(2) = p - 1: it
        # is the even-weight code; the fold runs at every k (n' = 29 has
        # N = 9,256,395), the oracle walk up to k = 20
        fam = family_pq(*pair)
        picked = 0
        for label in fam.labels:
            quotient = codes._checked_ideal(fam.elements[label]).quotient
            n, k = quotient.order, quotient.dimension
            if not _takes_the_dual_side(n, k):
                continue
            picked += 1
            dual = codes._dual_scan(quotient)
            assert dual[2] == {w: math.comb(n, w) for w in range(2, n + 1, 2)}, (pair, label)
            _assert_generator_witness(quotient, dual, (pair, label))
            fold = _fold(quotient)
            assert (dual[0], dual[2]) == (fold[0], fold[2]), (pair, label)
            if k <= 20:
                assert _walk(quotient) == fold, (pair, label)
        assert picked

    def test_the_transform_maps_the_simplex_code_to_the_hamming_code_and_back(self):
        # [7, 3, 4] simplex: seven words of weight 4; its dual is the [7, 4, 3] Hamming code
        assert codes._macwilliams(7, [1, 0, 0, 0, 7, 0, 0, 0], 4) == {3: 7, 4: 7, 7: 1}
        assert codes._macwilliams(7, [1, 0, 0, 7, 7, 0, 0, 1], 3) == {4: 7}

    @pytest.mark.parametrize(
        "n, dual, k",
        [
            (3, [1, 3, 0, 0], 1),  # four words, three of weight 1: not a linear code
            (7, [1, 0, 0, 0, 7, 0, 0, 0], 3),  # the simplex code read as 2**4 dual words
            (7, [1, 0, 0, 0, 7, 0, 0, 0], 5),  # and as 2**2
        ],
    )
    def test_counts_that_are_not_a_dual_code_are_refused(self, n, dual, k):
        with pytest.raises(RuntimeError, match="MacWilliams transform"):
            codes._macwilliams(n, dual, k)

    def test_a_generator_heavier_than_the_minimum_falls_back_to_the_fold(self, monkeypatch):
        # g * (x**3 + x + 1) = x**4 + x**3 + x**2 + 1 is a codeword of weight 4 > d = 2,
        # put in the record in place of g
        e = family_pq(3, 11).elements["e1"]
        codes.clear_caches()
        ideal = codes._checked_ideal(e)
        quotient = ideal.quotient
        heavier = poly_mulmod(quotient.generator, 0b1011, 1 << quotient.order | 1)
        assert heavier.bit_count() == 4 and quotient.generator.bit_count() == 2
        monkeypatch.setattr(ideal, "quotient", quotient._replace(generator=heavier))
        duals = _returns(monkeypatch, codes, "_dual_scan")
        folds = _count_calls(monkeypatch, codes, "_coset_fold")
        certificates = _count_calls(monkeypatch, codes, "_idempotent_count")
        result = minimum_weight(e, budget=1 << 20)
        assert (quotient.order, duals, len(folds)) == (11, [None], 1)
        # one idempotent count covers both sides
        assert [args for args, _ in certificates] == [(quotient._replace(generator=heavier),)]
        assert result.exact and result.value == result.witness.weight == 6
        assert result.notes == ("enumerated all 2**10 - 1 nonzero codewords",)

    def test_a_dual_minimum_names_the_macwilliams_identity(self):
        fam = family_prime_power(3, 2, 5, 2)
        codes.clear_caches()
        dual = minimum_weight(fam.elements["I02"], budget=1 << 20)
        folded = minimum_weight(fam.elements["I12*"], budget=1 << 20)
        assert dual.exact and dual.value == 18
        assert dual.notes == (
            "MacWilliams identity over all 2**5 words of the dual of the length-25 quotient code",
        )
        assert folded.exact and folded.notes == ("enumerated all 2**20 - 1 nonzero codewords",)
        assert dual.to_json()["exact"] is True

    def test_a_carried_dual_scan_keeps_its_note(self, monkeypatch):
        fam = RANK_FAMILIES["(27x9)x5"]()
        labels = [lab for spec, lab in DUAL_LABELS if spec == "(27x9)x5"]
        codes.clear_caches()
        duals = _count_calls(monkeypatch, codes, "_dual_scan")
        notes = {minimum_weight(fam.elements[lab], budget=1 << 20).notes for lab in labels}
        assert len(duals) == 1
        assert notes == {
            ("MacWilliams identity over all 2**9 words of the dual of the length-27 quotient code",)
        }

    def test_a_sum_is_refused_on_the_dual_side_with_the_fold_message(self, monkeypatch):
        # e1 + e0 on 33 has n' = 11 and k = 11, so the rule picks the dual side, and
        # its certificate refuses the sum before any dual word is counted
        fam = family_pq(3, 11)
        e = fam.elements["e1"] + fam.elements["e0"]
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        assert (quotient.order, quotient.dimension) == (11, 11)
        transforms = _count_calls(monkeypatch, codes, "_macwilliams")
        folds = _count_calls(monkeypatch, codes, "_coset_fold")
        rows = [x.bits for x in ideal_basis(e)]
        message = r"^F2\[G\]e is not a field, so it is not a minimal ideal$"
        with pytest.raises(NotMinimalIdealError, match=message):
            scan_codewords(rows, e=e)
        split = fam.elements["e3"] + fam.elements["e4"]  # n' = 33, k = 20: the fold side
        with pytest.raises(NotMinimalIdealError, match=message):
            scan_codewords([x.bits for x in ideal_basis(split)], e=split)
        assert transforms == [] and folds == []


class TestCosetFold:
    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES))
    def test_every_folded_label_matches_the_oracle_walk(self, spec):
        # the same minimum, word and histogram; the Gray scan too up to k = 12
        # (the k = 20 codes meet it in TestOrbitWalk through scan_codewords)
        fam = RANK_FAMILIES[spec]()
        codes.clear_caches()
        folded = 0
        for label, e in fam.elements.items():
            quotient = codes._checked_ideal(e).quotient
            n, k = quotient.order, quotient.dimension
            if not _takes_the_fold(n, k):
                continue
            fold = _fold(quotient)
            assert fold == _walk(quotient), label
            if k <= 12:
                gray_best, _, gray_hist = _quotient_gray_scan(quotient.word, n, k)
                assert (fold[0], fold[2]) == (gray_best, gray_hist), label
            folded += 1
        assert folded

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(ADMISSIBLE_PAIRS_BELOW_60))
    def test_pq_codes_match_the_oracle_walk(self, pair):
        fam = family_pq(*pair)
        for label, e in fam.elements.items():
            quotient = codes._checked_ideal(e).quotient
            n, k = quotient.order, quotient.dimension
            if _takes_the_fold(n, k) and k <= 20:
                fold = _fold(quotient)
                assert fold == _walk(quotient), (pair, label)
                if k <= 12:
                    gray_best, _, gray_hist = _quotient_gray_scan(quotient.word, n, k)
                    assert (fold[0], fold[2]) == (gray_best, gray_hist), (pair, label)

    @pytest.mark.parametrize(
        "block, specs", [(1, ["33"]), (7, ["33", "3x5x11"]), (97, ["33", "3x5x11"]), (4096, ["3x5x11"])]
    )
    def test_every_block_size_gives_the_same_fold(self, block, specs, monkeypatch):
        # e3 of 33 has N = 31 and e8 of 3x5x11 has N = 19065; one block is the default
        for spec in specs:
            label = {"33": "e3", "3x5x11": "e8"}[spec]
            fam = ORACLE_FAMILIES[spec]()
            quotient = codes._checked_ideal(fam.elements[label]).quotient
            whole = _fold(quotient)
            with monkeypatch.context() as patch:
                patch.setattr(codes, "_FOLD_BLOCK", block)
                assert _fold(quotient) == whole, label

    def test_a_wrong_tap_set_does_not_close(self, monkeypatch):
        # x = z + 1 read as x = z: window n' is window 0 shifted by n'
        e = family_three_primes(3, 5, 11).elements["e10"]
        codes.clear_caches()
        original = codes._orbit_multiplier

        def one_tap_short(*args):
            z, coordinates, square = original(*args)
            taps = coordinates[1]
            assert taps == 0b11
            return z, [coordinates[0], taps & (taps - 1), *coordinates[2:]], square

        monkeypatch.setattr(codes, "_orbit_multiplier", one_tap_short)
        with pytest.raises(RuntimeError, match="did not close"):
            weight_distribution(e, budget=1 << 20)
        assert "scan" not in vars(codes._checked_ideal(e))

    @pytest.mark.parametrize("power", [51, 275, 1043, 4115])
    def test_a_wrong_doubling_pass_does_not_close(self, power, monkeypatch):
        # e10 (k = 20, N = 6355, x = z + 1, so 165 bits of margin) takes 13 passes,
        # from 20, 21, 23, ... terms to 4115; z**power gets a wrong z**0
        # coordinate, which adds the first power - 19 >= k terms, never all 0,
        # to the next ones
        e = family_three_primes(3, 5, 11).elements["e10"]
        codes.clear_caches()
        original = codes._table_power
        corrupted = []

        def table_power(square, z, f, exp):
            y = original(square, z, f, exp)
            if exp != power:
                return y
            corrupted.append(exp)
            return y ^ 1

        monkeypatch.setattr(codes, "_table_power", table_power)
        with pytest.raises(RuntimeError, match="did not close"):
            weight_distribution(e, budget=1 << 20)
        assert corrupted == [power]
        assert "scan" not in vars(codes._checked_ideal(e))

    def test_a_dropped_window_caches_no_scan(self, monkeypatch):
        e = family_three_primes(3, 5, 11).elements["e10"]
        codes.clear_caches()
        original = codes._add_window
        calls = []

        def one_short(planes, window):
            calls.append(None)
            if len(calls) != 4:
                original(planes, window)

        monkeypatch.setattr(codes, "_add_window", one_short)
        with pytest.raises(RuntimeError, match="coset fold") as refused:
            weight_distribution(e, budget=1 << 20)
        assert "did not close" not in str(refused.value) and len(calls) == 165
        assert "scan" not in vars(codes._checked_ideal(e))

    def test_an_uncounted_weight_caches_no_scan(self, monkeypatch):
        # the cosets of the lightest weight left out: the counts no longer cover N
        e = family_three_primes(3, 5, 11).elements["e10"]
        codes.clear_caches()
        original = codes._count_masks

        def all_but_the_first(*args):
            masks = original(*args)
            next(masks)
            yield from masks

        monkeypatch.setattr(codes, "_count_masks", all_but_the_first)
        with pytest.raises(RuntimeError, match="did not give every coset a weight"):
            weight_distribution(e, budget=1 << 20)
        assert "scan" not in vars(codes._checked_ideal(e))

    def test_a_witness_from_the_wrong_powers_is_refused(self, monkeypatch):
        # the fold's last power is z**j, j the witness exponent, recomputed after
        # every weight is counted; with its z**0 coordinate flipped the witness
        # gains e-bar: a codeword, but not one of the minimum weight
        e = family_three_primes(3, 5, 11).elements["e10"]
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        with monkeypatch.context() as patch:
            powers = _count_calls(patch, codes, "_table_power")
            _fold(quotient)
        last = len(powers) - 1
        original = codes._table_power
        calls = []

        def table_power(*args):
            calls.append(args[-1])
            y = original(*args)
            return y ^ 1 if len(calls) - 1 == last else y

        monkeypatch.setattr(codes, "_table_power", table_power)
        with pytest.raises(RuntimeError, match="witness does not have the minimum weight"):
            weight_distribution(e, budget=1 << 20)
        assert len(calls) == len(powers) and calls[last] == powers[last][0][-1]
        assert "scan" not in vars(codes._checked_ideal(e))

    @pytest.mark.parametrize("spec", sorted(RANK_FAMILIES) + ["3x29", "11x13"])
    def test_the_multiplier_is_pinned_on_every_field_code(self, spec):
        # z fixes every witness word the fold returns
        build = RANK_FAMILIES.get(spec) or (lambda: family_pq(*map(int, spec.split("x"))))
        searched = 0
        for label, e in build().elements.items():
            quotient = codes._checked_ideal(e).quotient
            n, k = quotient.order, quotient.dimension
            total = (1 << k) - 1
            if total == n or total // n > codes.MAX_SCAN_ENTRIES:
                continue
            codes._certify_field(quotient)
            z, coordinates, _ = codes._orbit_multiplier(quotient)
            assert z == MULTIPLIERS[n], label
            powers = [poly_powmod(z, b, quotient.check) for b in range(k)]
            for t, coords in enumerate(coordinates):
                spelled = 0
                for b in bit_indices(coords):
                    spelled ^= powers[b]
                assert spelled == 1 << t, (label, t)
            searched += 1
        assert searched

    def test_a_generator_in_a_proper_subfield_is_passed_over(self):
        # the length-85 code with h = x**8 + x**6 + x**5 + x**4 + x**3 + x + 1 has
        # N = 3; z = x**2 + x + 1 lies in F_16 but still generates K*/T
        h, n, k = 0b101111011, 85, 8
        e = _field_idempotent([5, 17], h)
        assert e * e == e
        codes.clear_caches()
        quotient = codes._checked_ideal(e).quotient
        assert (quotient.order, quotient.dimension, quotient.check) == (n, k, h)
        assert poly_powmod(0b111, 16, h) == 0b111
        assert poly_powmod(0b111, 255 // 3, h) != 1
        assert codes._power_coordinates(0b111, h, k) is None
        z, coordinates, _ = codes._orbit_multiplier(quotient)
        assert z > 0b111 and poly_powmod(z, 16, h) != z
        for t, coords in enumerate(coordinates):
            spelled = 0
            for b in range(k):
                if coords >> b & 1:
                    spelled ^= poly_powmod(z, b, h)
            assert spelled == 1 << t, t
        rows = [x.bits for x in ideal_basis(e)]
        best, word, hist = scan_codewords(rows, e=e)
        assert hist == naive_weight_distribution(rows)
        assert best == min(hist) == word.bit_count()

    def test_dependent_powers_have_no_coordinates(self):
        # z = 1 and, in F_64 = F2[x]/(x**6 + x**3 + 1) of the length-9 code, z = x**3
        # of order 3, in F_4
        assert codes._power_coordinates(1, 0b1001001, 6) is None
        assert codes._power_coordinates(0b1000, 0b1001001, 6) is None
        assert codes._power_coordinates(0b10, 0b1001001, 6) == [1 << t for t in range(6)]


class TestNoGrayWalkOnTheCli:
    @pytest.mark.parametrize("spec", ["15", "33", "45", "3x5x11", "9x25", "27x25"])
    def test_every_cli_code_is_folded_as_a_field(self, spec, monkeypatch):
        paths = _scan_paths(monkeypatch)
        code, report, _ = run(
            RunConfig(group_spec=spec, analyses=("weights", "distribution"), budget=1 << 20)
        )
        assert code in (0, 3) and "fold" in [path for path, _ in paths]
        assert ("dual" in [path for path, _ in paths]) == (spec in ("33", "3x5x11", "9x25", "27x25"))
        for scanned in paths:
            _assert_certified(scanned, spec)


class TestTheory:
    def test_pq_expectations(self, fam33):
        theory = theoretical_expectations(fam33)
        assert theory["e0"].value == 33
        assert theory["e1"].value == 6
        assert theory["e2"].value == 22
        assert (theory["e3"].lower, theory["e3"].upper) == (4, 14)

    def test_prime_power_expectations(self, fam45):
        theory = theoretical_expectations(fam45)
        assert theory["I0"].value == 45
        assert theory["I01"].value == 18
        assert theory["I10"].value == 30
        assert theory["I20"].value == 10
        # top-level split indices sit outside the conjectured range for n = 1
        assert theory["I11*"].kind == "none"

    def test_conjecture_range_on_c225(self):
        fam = family_prime_power(3, 2, 5, 2)
        theory = theoretical_expectations(fam)
        assert theory["I11*"].kind == "conjecture"
        assert theory["I11*"].value == 8
        assert theory["I12*"].kind == "none"
        assert theory["I22**"].kind == "none"

    def test_witness_words(self, fam45):
        witnesses = table_witness_words(fam45)
        assert witnesses["I01"].weight == 18
        assert witnesses["I10"].weight == 30
        assert witnesses["I20"].weight == 10

    @pytest.mark.parametrize("spec", [(3, 2, 5, 1), (3, 2, 5, 2), (3, 3, 5, 2)], ids=str)
    def test_witness_words_take_no_product(self, spec, monkeypatch):
        fam = family_prime_power(*spec)
        p, m, q, n = spec
        group = fam.group
        one = AlgebraElement.one(group)
        expected = {}
        for label, (i, j) in fam.levels.items():
            # the product formula (1 + g) * hat(A_i) * hat(B_j)
            if i == 0 and j > 0:
                g, gens = (0, q ** (j - 1)), ([(1, 0)], [(0, q**j % q**n)])
            elif j == 0 and i > 0:
                g, gens = (p ** (i - 1), 0), ([(p**i % p**m, 0)], [(0, 1)])
            else:
                continue
            hats = [Subgroup.from_generators(group, x).hat() for x in gens]
            word = per_term_product(one + AlgebraElement.monomial(group, g), hats[0])
            expected[label] = per_term_product(word, hats[1])
        products = _count_calls(monkeypatch, AlgebraElement, "__mul__")
        assert table_witness_words(fam) == expected
        assert products == []
        assert len(expected) == m + n

    def test_swap_map(self, fam15, fam33):
        assert split_swap_map_matches(fam15)
        assert split_swap_map_matches(fam33)


class TestSwapMap:
    @pytest.mark.parametrize("pair", ADMISSIBLE_PAIRS_BELOW_60, ids=str)
    def test_matches_the_per_bit_image(self, pair):
        fam = family_pq(*pair)
        p, q = fam.group.factor_orders
        a, b = (q % p, p % q) if fam.params["case"] == "a" else (p - 1, q - 1)
        k = next(k for k in range(p * q) if k % p == a and k % q == b)
        assert per_bit_power(fam.elements["e3"], k) == fam.elements["e4"]
        assert split_swap_map_matches(fam)

    @pytest.mark.parametrize("pair", ADMISSIBLE_PAIRS_BELOW_60, ids=str)
    def test_refuses_a_translate_of_e4(self, pair):
        fam = family_pq(*pair)
        moved = fam.elements["e4"].translated((1, 0))
        assert moved != fam.elements["e4"]
        swapped = replace_elements(fam, {**fam.elements, "e4": moved})
        assert not split_swap_map_matches(swapped)


class TestGeneratorMatrix:
    def test_repetition_row(self, fam15):
        mat = generator_matrix(fam15.elements["e0"])
        assert mat.text() == "1" * 15
        assert mat.hex_rows() == [AlgebraElement.all_ones(fam15.group).to_hex()]

    def test_split_code_matrix(self, fam15):
        mat = generator_matrix(fam15.elements["e3"])
        assert len(mat.rows) == 4
        for row in mat.rows:
            assert row.bit_count() == 8
        lines = mat.text().split("\n")
        assert len(lines) == 4 and all(len(line) == 15 for line in lines)

    def test_row_count_equals_dimension(self, fam33):
        for label in fam33.labels:
            e = fam33.elements[label]
            assert len(generator_matrix(e).rows) == ideal_dimension(e)


class TestFamilyVerification:
    def test_c15_suite_passes(self, fam15):
        outcome = family_verification(fam15, budget=1 << 12)
        assert outcome["passed"], [c for c in outcome["checks"] if not c["passed"]]

    def test_c45_suite_passes(self, fam45):
        outcome = family_verification(fam45, budget=1 << 14)
        assert outcome["passed"], [c for c in outcome["checks"] if not c["passed"]]

    def test_reports_contain_exact_values(self, fam45):
        reports = analyze_family(fam45, budget=1 << 14)
        mins = {label: reports[label].min_weight.value for label in fam45.labels}
        assert mins["I0"] == 45
        assert mins["I01"] == 18
        assert mins["I10"] == 30
        assert mins["I20"] == 10


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _scan_paths(monkeypatch):
    """Record, for each codes.scan_codewords call that returns, how its code
    was proven: "dual" when _certify_field certified it a field and
    _dual_scan scanned it, "fold" when _certify_field certified it and the
    fold scanned it, "carried" when _carried_scan carried a kept scan onto
    it, "translates" when none of them ran; and whether its translates are
    all its nonzero words (N == 1)."""
    paths = []
    fields = _count_calls(monkeypatch, codes, "_certify_field")
    duals = _returns(monkeypatch, codes, "_dual_scan")
    carried = _returns(monkeypatch, codes, "_carried_scan")
    scan = codes.scan_codewords

    def recorded(rows, *, e):
        fields.clear()
        duals.clear()
        carried.clear()
        out = scan(rows, e=e)
        if fields:
            path = "dual" if any(duals) else "fold"
        else:
            path = "carried" if any(carried) else "translates"
        paths.append((path, (1 << len(rows)) - 1 == codes._checked_ideal(e).quotient.order))
        return out

    monkeypatch.setattr(codes, "scan_codewords", recorded)
    return paths


def _assert_certified(scanned, tag):
    """A scan with N > 1 went through a field certificate; one with N == 1 did not."""
    path, all_translates = scanned
    assert path == "translates" if all_translates else path in ("fold", "dual", "carried"), tag


def _returns(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the value of each call."""
    values = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        values.append(original(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(module, name, recorded)
    return values


class TestOneAnalysisPass:
    def test_cli_builds_each_basis_once_and_scans_each_code_once(self, fam15, monkeypatch):
        codes.clear_caches()
        checked = _count_calls(monkeypatch, codes, "check_basis")
        records = _count_calls(monkeypatch, codes, "_cyclic_quotient")
        quotients = _returns(monkeypatch, codes, "_cyclic_quotient")
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        config = RunConfig(group_spec="15", analyses=("weights", "distribution", "verify"))
        code, report, _ = run(config)
        labels = report["group"]["labels"]
        assert code == 0 and report["verify"]["passed"]
        assert [args[0] for args, _ in records] == [fam15.elements[lab] for lab in labels]
        # every member has a record, so no basis reduces all |G| translates
        assert len(quotients) == len(labels) and None not in quotients
        # check_basis runs once per label, on the deg h rows taken along gamma
        assert [args[1] for args, _ in checked] == [fam15.elements[lab] for lab in labels]
        assert [len(args[0]) for args, _ in checked] == [
            fam15.predicted_dims[lab] for lab in labels
        ]
        assert len(scans) == len(labels)

    def test_weights_with_verify_scan_each_code_once(self, monkeypatch):
        codes.clear_caches()
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        code, report, _ = run(
            RunConfig(group_spec="33", analyses=("weights", "verify"))
        )
        assert code == 0
        assert len(scans) == len(report["group"]["labels"])

    @pytest.mark.parametrize("spec, analyses", [("27x25", ("dims",)), ("3x5x11", ("weights",))])
    def test_a_cold_run_reduces_each_ideal_once(self, spec, analyses, monkeypatch):
        reductions = _count_calls(monkeypatch, codes, "independent_row_indices")
        code, report, _ = run(RunConfig(group_spec=spec, analyses=analyses))
        assert code == 0
        assert len(reductions) == len(report["group"]["labels"])

    def test_primitivity_reads_the_cached_basis(self, fam675, monkeypatch):
        codes.clear_caches()
        analyze_family(fam675, want_weights=False)
        records = _count_calls(monkeypatch, codes, "_cyclic_quotient")
        reductions = _count_calls(monkeypatch, codes, "independent_row_indices")
        ranks = _count_calls(monkeypatch, codes, "gf2_rank")
        for label in fam675.labels:
            report = verify_primitivity(fam675.elements[label], fam675.predicted_dims[label])
            assert report["primitive"] and report["dimension_matches"], label
        assert records == [] and reductions == []
        # one rank per member, over the images b**2 + b of its basis words
        assert [len(args[0]) for args, _ in ranks] == [
            fam675.predicted_dims[lab] for lab in fam675.labels
        ]

    def test_verify_counts_the_squaring_orbits_once(self, monkeypatch):
        orbits = _count_calls(monkeypatch, cyclotomic, "cyclotomic_classes")
        code, report, _ = run(RunConfig(group_spec="45", analyses=("dims", "verify")))
        assert code == 0 and report["verify"]["passed"]
        assert report["group"]["squaring_orbit_count"] == 8
        assert len(orbits) == 1

    def test_verify_validates_the_pair_once(self, monkeypatch):
        # the family build validates the pair; the orbit check takes it as built
        built = _count_calls(monkeypatch, idempotents, "validate_hypotheses")
        checked = _count_calls(monkeypatch, cyclotomic, "validate_hypotheses")
        code, report, _ = run(RunConfig("15", ("verify",)))
        assert code == 0 and report["verify"]["passed"]
        assert len(built) + len(checked) == 1

    @pytest.mark.parametrize("fixture", ["fam15", "fam33", "fam45"])
    def test_one_pass_reports_match_the_oracles(self, fixture, request):
        fam = request.getfixturevalue(fixture)
        codes.clear_caches()
        reports = analyze_family(fam, budget=1 << 14, want_distribution=True)
        minimum_only = analyze_family(fam, budget=1 << 14)
        for label in fam.labels:
            e = fam.elements[label]
            rep = reports[label]
            rows = [x.bits for x in ideal_basis(e)]
            assert rep.distribution == naive_weight_distribution(rows), label
            codes.clear_caches()
            alone = minimum_weight(e, budget=1 << 14)
            assert rep.min_weight.exact and rep.min_weight.value == alone.value, label
            witness = rep.min_weight.witness
            assert witness.weight == alone.value and witness * e == witness, label
            assert rep.theory_match == minimum_only[label].theory_match, label

    @pytest.mark.parametrize("fixture", ["fam15", "fam45"])
    def test_verification_after_an_analysis_matches_a_cold_run(self, fixture, request):
        fam = request.getfixturevalue(fixture)
        codes.clear_caches()
        analyze_family(fam, budget=1 << 12, want_distribution=True)
        warm = family_verification(fam, budget=1 << 12)
        codes.clear_caches()
        cold = family_verification(fam, budget=1 << 12)
        assert warm["passed"] and warm["checks"] == cold["checks"]
        for label in fam.labels:
            hot, fresh = warm["reports"][label], cold["reports"][label]
            assert hot == fresh, label

    def test_cached_results_are_handed_out_as_copies(self, fam45):
        e = fam45.elements["I01"]
        first = ideal_basis(e)
        first.clear()
        assert len(ideal_basis(e)) == fam45.predicted_dims["I01"]
        hist = weight_distribution(e, budget=1 << 14)
        hist.clear()
        again = weight_distribution(e, budget=1 << 14)
        assert sum(again.values()) == (1 << len(ideal_basis(e))) - 1

    @pytest.mark.parametrize("distribution_first", [False, True])
    def test_minimum_and_distribution_share_one_scan(self, distribution_first, monkeypatch):
        e = family_three_primes(3, 5, 11).elements["e8"]
        codes.clear_caches()
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        if distribution_first:
            hist = weight_distribution(e, budget=1 << 20)
            result = minimum_weight(e, budget=1 << 20)
        else:
            result = minimum_weight(e, budget=1 << 20)
            hist = weight_distribution(e, budget=1 << 20)
        assert len(scans) == 1
        assert result.exact and result.value == min(hist) == 48
        assert sum(hist.values()) == (1 << 20) - 1

    @pytest.mark.parametrize(
        "fixture, label, path",
        [("fam15", "e0", "translates"), ("fam33", "e3", "fold")],
        ids=["translates", "fold"],
    )
    def test_every_scan_path_returns_the_full_histogram(
        self, fixture, label, path, request, monkeypatch
    ):
        fam = request.getfixturevalue(fixture)
        e = fam.elements[label]
        codes.clear_caches()
        searches = _count_calls(monkeypatch, codes, "_orbit_multiplier")
        rows = [x.bits for x in ideal_basis(e)]
        best, word, hist = scan_codewords(rows, e=e)
        # the multiplier search runs unless the translates are the whole code
        taken = "fold" if searches else "translates"
        assert taken == path
        assert sum(hist.values()) == (1 << len(rows)) - 1
        assert best == min(hist) == word.bit_count()

    def test_dims_only_reports_enumerate_nothing(self, fam45, monkeypatch):
        scans = _count_calls(monkeypatch, codes, "scan_codewords")
        reports = analyze_family(fam45, budget=1 << 14, want_weights=False)
        assert scans == []
        assert all(rep.min_weight is None for rep in reports.values())
        full = analyze_family(fam45, budget=1 << 14)
        assert {lab: r.dimension for lab, r in reports.items()} == {
            lab: r.dimension for lab, r in full.items()
        }
