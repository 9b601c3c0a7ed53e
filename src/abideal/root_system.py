"""Finite irreducible root systems over exact rationals.

Everything is coordinatized in the simple-root basis: a root is a tuple of
ints.  Node indices are 1-based in the public API (0 is reserved for the
extra affine reflection elsewhere); coordinate tuples are ordinary 0-based
Python data.

The invariant inner product is normalized so the highest root theta has
squared length 1/g, where g is the dual Coxeter number.  It is stored once,
as the integer matrix form[i][j] = d_i a_ij (d the minimal symmetrizer)
over the single integer denominator form_den = g (theta|theta)_raw, so

    (x|y) = sum_ij x_i form[i][j] y_j / form_den.

rho enters only as 2 rho, the integer sum of the positive roots
(`two_rho`), and through <rho, alpha_i-check> = 1, which reads 2 (rho|x)
off the form's diagonal (`twice_raw_rho`).  Sums, sign and zero tests,
and determinants and adjugates from the one fraction-free elimination
`bareiss`, stay in the integers; a Fraction is built only where a value
leaves the package (`length_to_theta`, `kostant_value`, the facet ratios
of `hasse` and the exported `Q`), and `fractions` is imported only there.
The checks of `verify` compare ratios cross-multiplied and write one with
`_ratio_text`, as str(Fraction) would, so `verify` loads no `fractions`.

The global rescaling puts the classical identities into denominator-free
shape:

    (rho+theta | rho+theta) - (rho | rho) = 1
    1 / (theta | theta) = g
    (rho | rho) = dim / 24            with dim = rank + #roots
    sum_{all roots phi} (phi | phi) = rank
    (theta | theta) + sum_i n_i (alpha_i | alpha_i) = 1

The constructor only *uses* the first normalization (it fixes the scale,
through <rho, theta-check> = g - 1); the rest are theorems and live in the
test suite and the `verify` command.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

Root = Tuple[int, ...]


def __getattr__(name: str):
    # Q, the exported name of the rational type, imports `fractions` only
    # when it is read (PEP 562)
    if name == "Q":
        from fractions import Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_RANK_BOUNDS = {"A": (1, 11), "B": (2, 8), "C": (2, 8), "D": (4, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)}

_TYPE_RE = re.compile(r"^([A-G])([0-9]{1,2})$")


class Record:
    """Base of the package's small immutable records that validate or
    cache.  A subclass lists its fields in `_fields` (a prefix of its
    `__slots__`) and sets them once in `__init__` through
    `object.__setattr__`; repr, equality (same class only) and hash are
    those of the field tuple, as for a frozen dataclass, and assignment
    raises AttributeError."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


@total_ordering
class SimpleType(Record):
    """A Cartan-Killing label such as A3, D5 or E8, ordered by (letter, rank)."""

    __slots__ = _fields = ("letter", "rank")
    letter: str
    rank: int

    def __init__(self, letter: str, rank: int) -> None:
        bounds = _RANK_BOUNDS.get(letter)
        if bounds is None:
            raise ValueError(f"unknown family {letter!r}")
        lo, hi = bounds
        if not lo <= rank <= hi:
            raise ValueError(f"{letter}{rank} is not supported (rank must be in [{lo}, {hi}])")
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "rank", rank)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() < other._values()  # type: ignore[attr-defined]
        return NotImplemented

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        m = _TYPE_RE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse type {text!r}; expected e.g. A3, C5, E8")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def supported_types(max_rank: int = 8) -> Tuple[SimpleType, ...]:
    """All types the verification suite covers, in a stable order."""
    out: List[SimpleType] = []
    for letter in "ABCDEFG":
        lo, hi = _RANK_BOUNDS[letter]
        for rank in range(lo, min(hi, max_rank) + 1):
            out.append(SimpleType(letter, rank))
    return tuple(out)


def _chain_edges(rank: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(1, rank)]


def _cartan_matrix(st: SimpleType) -> Tuple[Tuple[int, ...], ...]:
    """Entries a[i][j] = <alpha_j, alpha_i-check> (0-based storage)."""
    l = st.rank
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def set_edge(i: int, j: int, down: int = -1, up: int = -1) -> None:
        # 1-based nodes; a_ij = down, a_ji = up
        a[i - 1][j - 1] = down
        a[j - 1][i - 1] = up

    if st.letter == "A":
        for i, j in _chain_edges(l):
            set_edge(i, j)
    elif st.letter == "B":
        # alpha_l is the short root
        for i, j in _chain_edges(l - 1):
            set_edge(i, j)
        set_edge(l - 1, l, down=-1, up=-2)
    elif st.letter == "C":
        # alpha_l is the long root
        for i, j in _chain_edges(l - 1):
            set_edge(i, j)
        set_edge(l - 1, l, down=-2, up=-1)
    elif st.letter == "D":
        for i, j in _chain_edges(l - 2):
            set_edge(i, j)
        set_edge(l - 2, l - 1)
        set_edge(l - 2, l)
    elif st.letter == "E":
        edges = {
            6: [(5, 3), (3, 2), (2, 4), (4, 6), (2, 1)],
            7: [(1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (6, 7)],
            8: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8)],
        }[l]
        for i, j in edges:
            set_edge(i, j)
    elif st.letter == "F":
        set_edge(1, 2)
        set_edge(2, 3, down=-1, up=-2)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        set_edge(3, 4)
    elif st.letter == "G":
        set_edge(1, 2, down=-3, up=-1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


_ROOT_FIELD = 4    # bits per coordinate while closing: E8's largest mark, 6, fits


def _positive_roots(cartan: Sequence[Sequence[int]]) -> Tuple[Root, ...]:
    """Closure of the simple roots under root-string addition, by height.

    phi + alpha_j is a root when the alpha_j-string down from phi is longer
    than <phi, alpha_j-check>.  Roots are packed `_ROOT_FIELD` bits per
    coordinate and keyed to their pairings with the simple coroots, which
    grow by Cartan column j with each alpha_j added.  Walking a string
    below a zero coordinate borrows, which leaves the field all ones, a
    coefficient no root reaches; a coefficient that would reach it means
    the matrix is not of finite type."""
    l = len(cartan)
    simples = [1 << _ROOT_FIELD * j for j in range(l)]
    columns = [tuple(row[j] for row in cartan) for j in range(l)]
    pairings = dict(zip(simples, columns))
    full = (1 << _ROOT_FIELD) - 1
    layer, out = simples, []
    while layer:
        out += sorted(tuple(p >> _ROOT_FIELD * i & full for i in range(l)) for p in layer)
        nxt: List[int] = []
        for p in layer:
            labels = pairings[p]
            for j, a in enumerate(simples):
                up = p + a
                if up in pairings:
                    continue
                down, q = 0, p - a
                while q in pairings:
                    down, q = down + 1, q - a
                if down > labels[j]:
                    if up >> _ROOT_FIELD * j & full == full:
                        raise ValueError("Cartan matrix is not of finite type")
                    pairings[up] = tuple(x + y for x, y in zip(labels, columns[j]))
                    nxt.append(up)
        layer = nxt
    return tuple(out)


def height_exponents(roots: Iterable[Root], rank: int) -> Tuple[int, ...]:
    """The exponents, read off the positive roots as the partition conjugate
    to the number of roots at each height (Kostant, Amer. J. Math. 81
    (1959) 973-1032).  A reducible system gives the union of its
    components' exponents."""
    hist: Dict[int, int] = {}
    for r in roots:
        h = sum(r)
        hist[h] = hist.get(h, 0) + 1
    return tuple(sorted(sum(1 for v in hist.values() if v >= i) for i in range(1, rank + 1)))


def bareiss(matrix: Sequence[Sequence[int]]) -> Tuple[int, Optional[Tuple[Tuple[int, ...], ...]]]:
    """Determinant and adjugate (None when singular) of an integer matrix by
    fraction-free Gauss-Jordan elimination on [A | I] (E. H. Bareiss, Math.
    Comp. 22 (1968) 565-578): each step divides exactly by the last pivot,
    which ends as det(PA) for the row swaps P, beside det(PA) A^-1."""
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev, sign = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return 0, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for r in range(n):
            if r != k:
                c = rows[r][k]
                rows[r] = [(pivot * x - c * y) // prev for x, y in zip(rows[r], rows[k])]
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """The determinant alone of an integer matrix, by Bareiss's
    fraction-free elimination below each pivot: each step divides exactly
    by the last pivot, which ends as det(PA) for the row swaps P."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    prev, sign = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot, top = rows[k][k], rows[k]
        for r in range(k + 1, n):
            c = rows[r][k]
            rows[r] = [(pivot * x - c * y) // prev for x, y in zip(rows[r], top)]
        prev = pivot
    return sign * prev


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji, spread from
    node 0 by d_j = d_i a_ij / a_ji, rescaling every value found so far
    when that quotient is not whole."""
    l = len(cartan)
    d = [0] * l
    d[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(l):
            if not d[j] and cartan[i][j]:
                num, den = d[i] * cartan[i][j], cartan[j][i]
                scale = abs(den) // gcd(num, den)
                d = [x * scale for x in d]
                d[j] = num * scale // den
                todo.append(j)
    if not all(d):
        raise ValueError("Cartan matrix is not connected")
    g = gcd(*d)
    return tuple(x // g for x in d)


class RootSystem:
    """One finite irreducible root system with its normalized inner product.

    Instances are built once per type via :func:`build` and treated as
    immutable.  All rational data is exact.  ``two_rho`` is 2 rho, the sum
    of the positive roots.

    Besides the roots and the form, an instance stores each positive root
    packed into one int, ``packed_roots[k]``, with ``pack_width`` bits per
    coordinate (coordinate i at bit pack_width * i).  The width holds the
    coordinate sums of all positive roots, so adding packed roots never
    carries from one field into the next: a packed sum of distinct roots
    (or of a root with itself, or with a simple root) is the packing of the
    vector sum, and ``unpack`` reads it back.

    The root poset's relations are bitmasks over indices into
    ``positive_roots`` (found by ``root_index``), built on the packed
    roots: bit k of ``cover_masks[j]`` when root k is root j plus a simple
    root, bit k of ``conflict_masks[j]`` when root j plus root k (j = k
    included) is a root.  Bit k of ``perp_theta_mask`` is set when root k
    is orthogonal to theta.
    """

    def __init__(self, simple_type: SimpleType) -> None:
        self.simple_type = simple_type
        l = simple_type.rank
        self.rank = l
        self.cartan = _cartan_matrix(simple_type)
        self.positive_roots = _positive_roots(self.cartan)
        self._simple_roots: Tuple[Root, ...] = tuple(
            tuple(int(k == i) for k in range(l)) for i in range(l))
        self.root_index: Dict[Root, int] = {phi: k for k, phi in enumerate(self.positive_roots)}
        self._pack(max(map(sum, zip(*self.positive_roots))).bit_length())
        self.num_positive = len(self.positive_roots)
        self.dimension = l + 2 * self.num_positive  # rank + #roots

        self.theta = self.positive_roots[-1]
        if self.num_positive > 1 and sum(self.positive_roots[-2]) == sum(self.theta):
            raise AssertionError("highest root is not unique")
        self.marks = self.theta
        self.coxeter_number = sum(self.theta) + 1

        self.exponents = height_exponents(self.positive_roots, l)

        self.two_rho: Root = vsum(self.positive_roots, l)

        d = _symmetrizer(self.cartan)
        self.form: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d[i] * self.cartan[i][j] for j in range(l)) for i in range(l)
        )
        if any(self.form[i][j] != self.form[j][i] for i in range(l) for j in range(l)):
            raise AssertionError("symmetrizer failed")

        theta_raw = self.raw_inner(self.theta, self.theta)
        pairing_rho_theta, rest = divmod(self.twice_raw_rho(self.theta), theta_raw)
        if rest:
            raise AssertionError("<rho, theta-check> is not an integer")
        self.dual_coxeter_number = pairing_rho_theta + 1
        self.form_den = self.dual_coxeter_number * theta_raw

        self._long_positive = tuple(
            r for r in self.positive_roots if self.raw_inner(r, r) == theta_raw)
        self.perp_theta_mask = sum(1 << k for k, r in enumerate(self.positive_roots)
                                   if self.raw_inner(r, self.theta) == 0)

    def _pack(self, width: int) -> None:
        """Packs each positive root `width` bits per coordinate, and builds
        the cover and conflict masks by int addition and a lookup of the
        packed sum."""
        shifts = [width * i for i in range(self.rank)]
        self.pack_width = width
        self.packed_roots: Tuple[int, ...] = tuple(
            sum(c << sh for c, sh in zip(phi, shifts)) for phi in self.positive_roots)
        index = {p: k for k, p in enumerate(self.packed_roots)}
        simples = [1 << sh for sh in shifts]
        self.cover_masks: Tuple[int, ...] = tuple(
            sum(1 << index[p + a] for a in simples if p + a in index) for p in self.packed_roots)
        conflicts = [0] * len(index)
        for j, p in enumerate(self.packed_roots):
            for k, q in enumerate(self.packed_roots[j:], j):
                if p + q in index:
                    conflicts[j] |= 1 << k
                    conflicts[k] |= 1 << j
        self.conflict_masks: Tuple[int, ...] = tuple(conflicts)

    def unpack(self, packed: int) -> Root:
        """The coordinates of a packed sum of distinct positive roots."""
        width = self.pack_width
        field = (1 << width) - 1
        return tuple(packed >> (width * i) & field for i in range(self.rank))

    # ------------------------------------------------------------------
    # basic queries

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")
        return self._simple_roots[i - 1]

    def is_positive_root(self, v: Sequence[int]) -> bool:
        return tuple(v) in self.root_index

    def raw_inner(self, x: Sequence, y: Sequence):
        """x^T form y: form_den times (x|y); an int on integer vectors."""
        check_length(self, x)
        check_length(self, y)
        total = 0
        for xi, row in zip(x, self.form):
            if xi:
                total += xi * sum(map(mul, row, y))
        return total

    def twice_raw_rho(self, x: Sequence) -> int:
        """2 raw(rho, x) from the form's diagonal, as raw(rho, alpha_j) = d_j."""
        check_length(self, x)
        return sum(row[j] * c for j, (row, c) in enumerate(zip(self.form, x)) if c)

    def simple_coroot_pairing(self, phi: Sequence, j: int):
        """<phi, alpha_j-check> from the Cartan row alone; an int on integer
        coordinates."""
        check_length(self, phi)
        return sum(map(mul, phi, self.cartan[j - 1]))

    def is_long(self, phi: Sequence[int]) -> bool:
        return self.raw_inner(phi, phi) == self.raw_inner(self.theta, self.theta)

    def long_positive_roots(self) -> Tuple[Root, ...]:
        return self._long_positive

    def length_to_theta(self, phi: Sequence[int]) -> Fraction:
        """Distance functional 2 (theta - phi | rho) / (theta|theta).

        Vanishes exactly at theta; takes nonnegative integer values on long
        positive roots, where it equals the minimal number of simple
        reflections carrying phi to theta.
        """
        from fractions import Fraction
        return Fraction(self.twice_raw_rho(self.theta) - self.twice_raw_rho(phi),
                        self.raw_inner(self.theta, self.theta))

    def __repr__(self) -> str:
        return f"RootSystem({self.simple_type})"


@lru_cache(maxsize=None)
def _build_cached(label: str) -> RootSystem:
    return RootSystem(SimpleType.parse(label))


# every cache made by `system_cache` in the modules loaded so far
_SYSTEM_CACHES: List[Callable] = []


def system_cache(fn: Callable) -> Callable:
    """`lru_cache(maxsize=None)` for a function whose first argument is a
    root system, recorded so that `clear_system_caches` can drop what it
    holds.  The `lru_cache` wrapper itself is returned, so a cached call
    stays on its C path and `cache_info` reads its hits and misses.

    `build`'s own cache is not one of these: root systems keep their
    identity for the life of the process."""
    cached = lru_cache(maxsize=None)(fn)
    _SYSTEM_CACHES.append(cached)
    return cached


def clear_system_caches() -> None:
    """Empty every `system_cache`.  What only the caches held (catalogs
    with their alcove walls, Hasse graphs) is freed by reference counting
    at once: nothing cached points back at a cache."""
    for cached in _SYSTEM_CACHES:
        cached.cache_clear()


def build(type_or_label) -> RootSystem:
    """Construct (and cache) the root system for a type label like "E6"."""
    if isinstance(type_or_label, RootSystem):
        return type_or_label
    if isinstance(type_or_label, SimpleType):
        return _build_cached(str(type_or_label))
    return _build_cached(str(SimpleType.parse(str(type_or_label))))


# ----------------------------------------------------------------------
# small exact helpers shared by the other modules: vectors, and a ratio's text

def check_length(rs: RootSystem, vec: Sequence) -> None:
    """Reject a vector without rank coordinates, before any action."""
    if len(vec) != rs.rank:
        raise ValueError(f"vector {tuple(vec)} has {len(vec)} coordinates, not rank {rs.rank}")


def vsub(x: Sequence, y: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Sequence) -> tuple:
    return tuple(-a for a in x)


def vsum(vectors: Iterable[Sequence], rank: int) -> tuple:
    total = [0] * rank
    for v in vectors:
        for i, a in enumerate(v):
            total[i] += a
    return tuple(total)


def _ratio_text(num: int, den: int) -> str:
    """num / den written as str(Fraction(num, den)) writes it: in lowest
    terms, the sign on the numerator, and the numerator alone over one."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"
