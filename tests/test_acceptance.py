"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values are frozen from independent derivations: residue-set and
orbit computations done by direct modular arithmetic, plus the published
reference values for the two golden groups.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from abelcodes.codes import (
    analyze_family,
    code_seed_word,
    ideal_basis,
    minimum_weight,
    scan_codewords,
    theoretical_expectations,
    weight_distribution,
)
from abelcodes.cyclotomic import class_count
from abelcodes.group_algebra import AbelianGroup, AlgebraElement, as_cyclic
from abelcodes.idempotents import (
    family_pq,
    family_prime_power,
    family_three_primes,
)
from abelcodes.number_theory import (
    hypothesis_failures,
    is_odd_prime,
    joint_order_2,
    residue_partition,
)
from oracles import naive_weight_distribution


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


GOLDEN_15_SUPPORT = [1, 2, 3, 4, 6, 8, 9, 12]
GOLDEN_33_SUPPORT = [
    1, 2, 3, 4, 6, 8, 9, 11, 12, 15, 16, 17, 18, 21, 22, 24, 25, 27, 29, 30, 31, 32,
]
GOLDEN_33_DISTRIBUTION = {12: 165, 14: 165, 16: 165, 18: 330, 20: 165, 22: 33}


def test_criterion_01_c15_golden():
    with criterion(1, "order-15 golden split code"):
        start = time.perf_counter()
        fam = family_pq(3, 5)
        e3 = fam.elements["e3"]
        assert sorted(as_cyclic(e3).support_ranks()) == GOLDEN_15_SUPPORT
        basis = ideal_basis(e3)
        assert len(basis) == 4
        assert weight_distribution(e3, budget=1 << 10) == {8: 15}
        assert time.perf_counter() - start < 1.0


def test_criterion_02_c33_golden():
    with criterion(2, "order-33 golden split code and full distribution"):
        start = time.perf_counter()
        fam = family_pq(3, 11)
        e3 = fam.elements["e3"]
        assert sorted(as_cyclic(e3).support_ranks()) == GOLDEN_33_SUPPORT
        assert len(ideal_basis(e3)) == 10
        hist = weight_distribution(e3, budget=1 << 10)
        assert hist == GOLDEN_33_DISTRIBUTION
        assert sum(hist.values()) == 1023
        assert time.perf_counter() - start < 5.0


def test_criterion_03_exact_min_weights():
    with criterion(3, "exact minimum weights on the two golden groups"):
        for p_in, q_in in ((3, 5), (3, 11)):
            fam = family_pq(p_in, q_in)
            p, q = int(fam.params["p"]), int(fam.params["q"])
            mins = {
                label: minimum_weight(fam.elements[label], budget=1 << 12).value
                for label in fam.labels
            }
            assert mins["e0"] == p * q
            assert mins["e1"] == 2 * p
            assert mins["e2"] == 2 * q
            assert 4 <= mins["e3"] <= p + q
            assert 4 <= mins["e4"] <= p + q
            assert mins["e3"] == mins["e4"]


def test_criterion_04_short_codeword_weights():
    with criterion(4, "short split codeword has weight p + q"):
        for pair, expected in (((3, 5), 8), ((3, 11), 14), ((11, 13), 24)):
            fam = family_pq(*pair)
            assert code_seed_word(fam, "e3").weight == expected


ACCEPTANCE_FAMILIES = [
    ("C15", lambda: family_pq(3, 5)),
    ("C33", lambda: family_pq(3, 11)),
    ("C45", lambda: family_prime_power(3, 2, 5, 1)),
    ("C225", lambda: family_prime_power(3, 2, 5, 2)),
    ("C165", lambda: family_three_primes(3, 5, 11)),
    ("C143", lambda: family_pq(11, 13)),
]


def test_criterion_05_dimensions_and_completeness():
    with criterion(5, "dimensions, completeness and family axioms on all test groups"):
        from abelcodes.codes import ideal_dimension

        for name, build in ACCEPTANCE_FAMILIES:
            fam = build()
            computed = {
                label: ideal_dimension(fam.elements[label]) for label in fam.labels
            }
            assert computed == fam.predicted_dims, name
            assert sum(computed.values()) == fam.group.order, name
            assert len(fam.labels) == class_count(fam.group), name
            assert all(c["passed"] for c in fam.verify_axioms()), name


def test_criterion_06_c45_table():
    with criterion(6, "order-45 dimension and weight table"):
        start = time.perf_counter()
        fam = family_prime_power(3, 2, 5, 1)
        assert fam.predicted_dims == {
            "I0": 1, "I01": 4, "I10": 2, "I20": 6,
            "I11*": 4, "I11**": 4, "I21*": 12, "I21**": 12,
        }
        reports = analyze_family(fam, budget=1 << 14)
        for label in fam.labels:
            assert reports[label].dimension_matches, label
        mins = {label: reports[label].min_weight.value for label in fam.labels}
        assert mins["I0"] == 45
        assert mins["I01"] == 18
        assert mins["I10"] == 30
        assert mins["I20"] == 10
        assert time.perf_counter() - start < 10.0


def test_criterion_07_c225_split_codes():
    with criterion(7, "order-225 split codes against the conjectured weight formula"):
        fam = family_prime_power(3, 2, 5, 2)
        theory = theoretical_expectations(fam)

        # the dim-20 split code: enumerated and recorded, match not asserted
        e12 = fam.elements["I12*"]
        basis12 = ideal_basis(e12)
        assert len(basis12) == 20
        result12 = minimum_weight(e12, budget=1 << 20)
        assert result12.exact
        conj12 = theory["I12*"]
        print(
            f"  recorded: I12* enumerated min weight {result12.value}; "
            f"conjectured formula is out of its stated index range "
            f"(kind = {conj12.kind!r}), no match asserted"
        )

        # the dim-4 split code
        e11 = fam.elements["I11*"]
        basis11 = ideal_basis(e11)
        assert len(basis11) == 4
        result11 = minimum_weight(e11, budget=1 << 10)
        assert result11.exact
        assert theory["I11*"].kind == "conjecture" and theory["I11*"].value == 8
        print(
            f"  recorded: I11* enumerated min weight {result11.value} "
            f"vs conjectured {theory['I11*'].value}"
        )
        assert result11.value == 8, (
            "the conjectured formula value 8 is not attained: the ideal lies in "
            "the span of coset sums of an order-15 subgroup, so every codeword "
            "weight is a multiple of 15 (see the decisions ledger)"
        )


def test_criterion_08_c165_family():
    with criterion(8, "order-165 three-prime family with dim-20 enumerations"):
        start = time.perf_counter()
        fam = family_three_primes(3, 5, 11)
        assert len(fam.labels) == 14
        dims = [fam.predicted_dims[label] for label in fam.labels]
        assert Counter(dims) == Counter(
            {1: 1, 2: 1, 4: 3, 10: 3, 20: 6}
        )
        from abelcodes.codes import ideal_dimension

        for label in fam.labels:
            assert ideal_dimension(fam.elements[label]) == fam.predicted_dims[label]

        # A + B + C + D identity for the deep split members
        one = AlgebraElement.one(fam.group)
        deep = one
        from abelcodes.group_algebra import Subgroup

        for i in range(3):
            hat = Subgroup.from_generators(fam.group, [fam.group.generator(i)]).hat()
            deep = deep * (one + hat)
        four = (
            fam.elements["e10"] + fam.elements["e11"]
            + fam.elements["e12"] + fam.elements["e13"]
        )
        assert four == deep

        total = AlgebraElement.zero(fam.group)
        for label in fam.labels:
            total = total + fam.elements[label]
        assert total == one

        # exact minimum weights of every dim-20 ideal at budget 2^20
        for label in fam.labels:
            if fam.predicted_dims[label] == 20:
                result = minimum_weight(fam.elements[label], budget=1 << 20)
                assert result.exact and result.value >= 4
        assert time.perf_counter() - start < 30.0


def test_criterion_09_property_suites():
    with criterion(9, "property suites: ring axioms, squaring, enumeration oracle"):
        rng = random.Random(0)
        groups = [AbelianGroup([15]), AbelianGroup([3, 5]), AbelianGroup([45]),
                  AbelianGroup([3, 3]), AbelianGroup([9, 25])]
        for group in groups:
            mask = (1 << group.order) - 1
            for _ in range(5):
                x = AlgebraElement(group, rng.getrandbits(group.order) & mask)
                y = AlgebraElement(group, rng.getrandbits(group.order) & mask)
                z = AlgebraElement(group, rng.getrandbits(group.order) & mask)
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x * x == x.frobenius()
                g = group.unrank(rng.randrange(group.order))
                assert x.translated(g).weight == x.weight

        # the production enumerator equals the naive recomputation oracle (dim <= 12)
        for fam, labels in (
            (family_pq(3, 5), ("e1", "e2", "e3", "e4")),
            (family_pq(3, 11), ("e3",)),
            (family_prime_power(3, 2, 5, 1), ("I20", "I21*")),
        ):
            for label in labels:
                e = fam.elements[label]
                rows = [x.bits for x in ideal_basis(e)]
                assert len(rows) <= 12
                _, _, hist = scan_codewords(rows, e=e)
                assert hist == naive_weight_distribution(rows)

        # residue class cardinalities for every p = 3 mod 4 under 200
        for p in range(3, 200):
            if is_odd_prime(p) and p % 4 == 3:
                part = residue_partition(p)
                assert len(part.qq) == len(part.qn) == len(part.nn) == (p - 3) // 4
                assert len(part.nq) == (p + 1) // 4

        # the joint order identity for every admissible pair with pq < 500
        pairs = [
            (p, q)
            for p in range(3, 200)
            for q in range(p + 1, 200)
            if p * q < 500
            and is_odd_prime(p)
            and is_odd_prime(q)
            and not hypothesis_failures(p, q)
        ]
        assert len(pairs) >= 10
        for p, q in pairs:
            assert joint_order_2(p, q) == (p - 1) * (q - 1) // 2


def test_criterion_10_cli_determinism():
    with criterion(10, "byte-identical JSON output across thread counts"):
        env = dict(os.environ)  # the child imports the package from this checkout
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "abelcodes", "33", "--distribution",
                 "--format", "json", "--threads", threads],
                capture_output=True,
                check=True,
                env=env,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["distributions"]["e3"] == {
            str(w): c for w, c in GOLDEN_33_DISTRIBUTION.items()
        }
