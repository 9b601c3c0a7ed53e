from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from abideal.qpoly import (
    ONE,
    bracket,
    bracket_factorial,
    even_bracket_factorial,
    poly,
    poly_degree,
    poly_divexact,
    poly_eval_one,
    poly_mul,
    poly_prod,
)

from reference_impl import poly_add, poly_str


def test_bracket_small():
    assert bracket(1) == (1,)
    assert bracket(4) == (1, 1, 1, 1)
    assert poly_eval_one(bracket(7)) == 7


def test_bracket_factorial_values():
    # [3]! = [1][2][3] = 1 + 2t + 2t^2 + t^3
    assert bracket_factorial(3) == (1, 2, 2, 1)
    assert poly_eval_one(bracket_factorial(5)) == 120


def test_even_bracket_factorial():
    # [2][4] = (1+t)(1+t+t^2+t^3)
    assert even_bracket_factorial(2) == poly_mul(bracket(2), bracket(4))
    assert poly_eval_one(even_bracket_factorial(3)) == 2 * 4 * 6


def test_divexact_roundtrip():
    a = bracket_factorial(4)
    b = bracket(3)
    assert poly_mul(poly_divexact(a, b), b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        poly_divexact(poly([1, 1, 1]), poly([1, 1]))


def test_degree_and_one():
    assert poly_degree(()) == -1
    assert poly_degree(ONE) == 0
    assert poly_degree(bracket(6)) == 5


def test_str_render():
    assert poly_str(poly([1, 0, 2])) == "1 + 2t^2"


coeffs = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


@given(coeffs, coeffs)
def test_mul_eval_homomorphism(a, b):
    pa, pb = poly(a), poly(b)
    assert poly_eval_one(poly_mul(pa, pb)) == poly_eval_one(pa) * poly_eval_one(pb)


@given(coeffs, coeffs)
def test_add_eval_homomorphism(a, b):
    pa, pb = poly(a), poly(b)
    assert poly_eval_one(poly_add(pa, pb)) == poly_eval_one(pa) + poly_eval_one(pb)


@given(coeffs, st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
def test_divexact_undoes_mul(a, b):
    pa = poly(a)
    pb = poly(list(b) + [1])  # force a nonzero polynomial
    assert poly_divexact(poly_mul(pa, pb), pb) == pa


def test_prod_empty_is_one():
    assert poly_prod([]) == ONE
