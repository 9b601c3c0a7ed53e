"""Polynomials in one variable t with integer coefficients.

A polynomial is a tuple of coefficients in ascending degree with no trailing
zeros, so () is the zero polynomial and (1,) is 1.  This is all the Poincare
series bookkeeping needs: products, exact quotients, the t-analogues
[n] = 1 + t + ... + t^(n-1), and evaluation at 1.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

Poly = tuple

ONE: Poly = (1,)


def poly(coeffs: Iterable[int]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def poly_prod(ps: Iterable[Sequence[int]]) -> Poly:
    return reduce(poly_mul, ps, ONE)


def poly_divexact(p: Sequence[int], q: Sequence[int]) -> Poly:
    """Quotient p / q, raising ValueError unless q divides p exactly in Z[t]."""
    p = poly(p)
    q = poly(q)
    if not q:
        raise ValueError("division by zero polynomial")
    if not p:
        return ()
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[k + len(q) - 1], q[-1])
        if r:
            raise ValueError("inexact polynomial division")
        out[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    if any(rem):
        raise ValueError("inexact polynomial division")
    return poly(out)


def bracket(n: int) -> Poly:
    """The t-integer [n] = 1 + t + ... + t^(n-1)."""
    if n < 0:
        raise ValueError("bracket of negative integer")
    return (1,) * n


def bracket_factorial(n: int) -> Poly:
    """[n]! = [1][2]...[n]."""
    return poly_prod(bracket(k) for k in range(1, n + 1))


def even_bracket_factorial(n: int) -> Poly:
    """[2n]!! = [2][4]...[2n]."""
    return poly_prod(bracket(2 * k) for k in range(1, n + 1))


def poly_eval_one(p: Sequence[int]) -> int:
    return sum(p)


def poly_degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(poly(p)) - 1
