"""Unit and property tests for the Z2 polynomial substrate."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathsum import GF2Poly, gf2poly, parse_poly

from conftest import set_loop_product


def poly_of(*terms):
    return GF2Poly.from_terms(terms)


class TestConstruction:
    def test_zero_and_one(self):
        assert not GF2Poly.zero()
        assert GF2Poly.one()
        assert GF2Poly.zero() == GF2Poly.constant(0)
        assert GF2Poly.one() == GF2Poly.constant(1)
        assert len(GF2Poly.zero()) == 0
        assert len(GF2Poly.one()) == 1

    def test_variable(self):
        assert GF2Poly.variable(3).masks == frozenset((8,))
        with pytest.raises(ValueError):
            GF2Poly.variable(-1)

    def test_duplicate_masks_cancel(self):
        assert GF2Poly([3, 3]) == GF2Poly.zero()
        assert GF2Poly([3, 3, 3]) == GF2Poly([3])

    def test_from_terms_exponent_collapse(self):
        # x1 * x1 = x1: repeated indices inside one term merge
        assert poly_of([1, 1]) == GF2Poly.variable(1)

    def test_constant_rejects_other_ints(self):
        with pytest.raises(ValueError):
            GF2Poly.constant(2)


class TestRendering:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (GF2Poly.zero(), "0"),
            (GF2Poly.one(), "1"),
            (GF2Poly.variable(2), "x2"),
            (poly_of([3], [2, 4]), "x3 + x2*x4"),
            (poly_of([], [1], [1, 2, 3]), "1 + x1 + x1*x2*x3"),
            (poly_of([2, 4], [5]), "x5 + x2*x4"),
        ],
    )
    def test_graded_lex_rendering(self, poly, text):
        assert str(poly) == text

    def test_parse_inverts_render(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            masks = rng.integers(0, 1 << 10, size=rng.integers(0, 8))
            poly = GF2Poly(int(m) for m in masks)
            assert parse_poly(str(poly)) == poly

    @pytest.mark.parametrize("bad", ["", "x", "y1", "x1 +", "x1 * + x2", "2", "0 + x1"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad)

    def test_parse_accepts_unsorted_and_cancelling(self):
        assert parse_poly("x2*x1 + x3") == parse_poly("x3 + x1*x2")
        assert parse_poly("x1 + x1") == GF2Poly.zero()


class TestArithmetic:
    def test_add_is_xor_of_monomials(self):
        p = poly_of([1], [2])
        q = poly_of([2], [3])
        assert p + q == poly_of([1], [3])

    def test_int_coercion(self):
        p = GF2Poly.variable(1)
        assert p + 1 == poly_of([1], [])
        assert 1 + p == p + 1
        assert p * 1 == p
        assert p * 0 == GF2Poly.zero()

    def test_multiply_merges_variables(self):
        assert GF2Poly.variable(1) * GF2Poly.variable(2) == poly_of([1, 2])
        assert GF2Poly.variable(1) * GF2Poly.variable(1) == GF2Poly.variable(1)

    def test_multiply_distributes_with_cancellation(self):
        # (x1 + x2) * (x1 + x2) = x1 + x2 over Z2
        p = poly_of([1], [2])
        assert p * p == p

    def test_degree_and_support(self):
        p = poly_of([], [1], [2, 5])
        assert p.degree == 2
        assert p.support() == frozenset((1, 2, 5))
        assert GF2Poly.zero().degree == 0
        assert GF2Poly.one().support() == frozenset()

    def test_terms_sorted(self):
        p = poly_of([2, 4], [5], [])
        assert p.terms() == ((), (5,), (2, 4))


class TestEvaluation:
    def test_evaluate_requires_support(self):
        p = poly_of([1, 2])
        assert p.evaluate({1: 1, 2: 1}) == 1
        assert p.evaluate({1: 1, 2: 0}) == 0
        with pytest.raises(ValueError):
            p.evaluate({1: 1})

    def test_evaluate_refuses_an_unassigned_variable_beside_a_zero_factor(self):
        p = GF2Poly.from_terms([[1, 2]])
        with pytest.raises(ValueError, match="no value for variable x2"):
            p.evaluate({1: 0})
        with pytest.raises(ValueError, match="no value for variable x1"):
            p.evaluate({})  # the lowest unassigned variable is named
        assert p.evaluate({1: np.int64(3), 2: np.True_}) == 1  # values read mod 2

    def test_evaluate_mask_agrees_with_evaluate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            poly = GF2Poly(int(m) for m in rng.integers(0, 64, size=5))
            for point in range(64):
                assignment = {v: (point >> v) & 1 for v in range(6)}
                assert poly.evaluate(assignment) == poly.evaluate_mask(point)

    def test_values_agrees_with_evaluate_mask(self):
        rng = np.random.default_rng(2)
        points = np.arange(256, dtype=np.uint64)
        for _ in range(25):
            poly = GF2Poly(int(m) for m in rng.integers(0, 256, size=6))
            table = poly.values(points)
            assert table.dtype == bool
            for point in range(256):
                assert bool(table[point]) == poly.evaluate_mask(point)


class TestSubstitute:
    def test_substitute_matches_definition(self):
        # substituting x2 := x3 + 1 in x1*x2 + x2 gives x1*x3 + x1 + x3 + 1
        p = poly_of([1, 2], [2])
        r = poly_of([3], [])
        assert p.substitute(2, r) == poly_of([1, 3], [1], [3], [])

    def test_substitute_absent_variable_is_identity(self):
        p = poly_of([1], [2, 3])
        assert p.substitute(5, GF2Poly.one()) == p

    def test_substitute_by_constant(self):
        p = poly_of([1, 2], [1])
        assert p.substitute(2, GF2Poly.zero()) == GF2Poly.variable(1)
        assert p.substitute(2, GF2Poly.one()) == GF2Poly.zero()


@st.composite
def polys(draw, max_vars: int = 6, max_terms: int = 8):
    n = draw(st.integers(1, max_vars))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_terms))
    return GF2Poly(masks)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys(), polys(), polys())
    def test_multiply_associative_commutative(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(polys(), polys(), polys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys())
    def test_characteristic_two_and_idempotence(self, p):
        assert p + p == GF2Poly.zero()
        assert p * p == p

    @given(polys(), polys())
    def test_arithmetic_is_pointwise(self, p, q):
        for point in range(64):
            assert (p + q).evaluate_mask(point) == (
                p.evaluate_mask(point) ^ q.evaluate_mask(point)
            )
            assert (p * q).evaluate_mask(point) == (
                p.evaluate_mask(point) & q.evaluate_mask(point)
            )

    @given(polys(max_vars=12), polys(max_vars=12))
    def test_anf_uniqueness(self, p, q):
        if p == q:
            return
        points = np.arange(1 << 12, dtype=np.uint64)
        assert np.any(p.values(points) != q.values(points))

    @given(polys(), st.integers(0, 5), polys())
    def test_substitute_agrees_with_evaluate(self, p, var, r):
        s = p.substitute(var, r)
        for point in range(64):
            patched = (point & ~(1 << var)) | (r.evaluate_mask(point) << var)
            assert s.evaluate_mask(point) == p.evaluate_mask(patched)


@st.composite
def product_operands(draw):
    """Two operands of 0-64 masks over 4-12 variables, so products fall
    on both sides of the 128-pair threshold and many pairs OR to the
    same mask; sometimes one operand gains a mask of 2^63 or more."""
    masks = st.integers(0, (1 << draw(st.integers(4, 12))) - 1)
    left, right = (
        draw(st.lists(masks, min_size=size, max_size=size))
        for size in draw(st.tuples(st.integers(0, 64), st.integers(0, 64)))
    )
    if draw(st.booleans()):
        left.append(draw(st.integers(1 << 63, (1 << 80) - 1)))
    if draw(st.booleans()):
        left, right = right, left
    return GF2Poly(left), GF2Poly(right)


class TestProduct:
    """Both paths of GF2Poly.__mul__ against the set loop in conftest."""

    @given(product_operands())
    def test_product_equals_the_set_loop(self, operands):
        p, q = operands
        assert p * q == set_loop_product(p, q)

    U, V = 0b01, 0b10

    @pytest.mark.parametrize(
        "left, right, kept",
        [
            ((U, U | V), (V,), False),  # x0*x1 twice: cancels
            ((U, V, U | V), (U | V,), True),  # x0*x1 three times: kept
        ],
    )
    def test_repeated_products_keep_their_parity(self, left, right, kept):
        pad = [1 << bit for bit in range(8, 24)]
        p, q = GF2Poly([*left, *pad]), GF2Poly([*right, *pad])
        assert len(p) * len(q) >= 128
        product = p * q
        assert product == set_loop_product(p, q)
        assert ((self.U | self.V) in product.masks) is kept

    def test_dispatch_on_pair_count_and_mask_width(self, monkeypatch):
        vectorised = []
        odd_products = gf2poly._odd_products
        monkeypatch.setattr(
            gf2poly, "_odd_products", lambda a, b: vectorised.append(len(a) * len(b)) or odd_products(a, b)
        )
        sixteen = GF2Poly(range(16))
        eight = GF2Poly(range(1, 9))
        wide = GF2Poly([*range(1, 8), 1 << 63])
        for p, q in [(sixteen, eight), (sixteen, GF2Poly(range(1, 8))), (sixteen, wide), (wide, sixteen)]:
            assert p * q == set_loop_product(p, q)
        assert vectorised == [128]  # 112 pairs and the wide operand take the set loop

    @given(product_operands())
    def test_runs_of_many_blocks_merge_to_the_set_loop(self, operands):
        # With 16-pair blocks a product of up to 4,096 pairs makes up to
        # 256 runs, many of them empty, for the binary-counter merge.
        p, q = operands
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf2poly, "_BLOCK_PAIRS", 16)
            assert p * q == set_loop_product(p, q)

    def test_blocks_that_cancel_entirely_give_zero(self):
        # x0 * (1 + x0) = 0 over Z2, so x0*Q times (1 + x0)*Q' cancels in
        # every row: both blocks of its 2^21 pairs leave empty runs.
        rng = np.random.default_rng(21)
        q, q2 = (np.unique(rng.integers(0, 1 << 40, 3 * size))[:size].tolist() for size in (2048, 512))
        p = GF2Poly(1 | m << 1 for m in q)
        r = GF2Poly(m << 1 | bit for m in q2 for bit in (0, 1))
        assert len(p) * len(r) == 2 * gf2poly._BLOCK_PAIRS
        assert p * r == set_loop_product(p, r) == GF2Poly.zero()

    def test_blocked_product_bounds_memory(self):
        # All 4,096 subsets of 12 variables spread below bit 62. A * A = A,
        # and every partial sum stays inside A, so the peak is the blocks':
        # one unblocked outer product of the 16.7 M pairs takes 134 MB.
        spread = [5 * i + 2 for i in range(12)]
        a = GF2Poly(
            sum(1 << bit for j, bit in enumerate(spread) if subset >> j & 1) for subset in range(1 << 12)
        )
        tracemalloc.start()
        try:
            product = a * a
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert product == a
        assert peak < 48_000_000
