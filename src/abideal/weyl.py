"""Finite Weyl groups: words, reflections, inversion sets, Poincare series.

A word is a tuple of node indices (1-based).  Words compose like the
reflections they name: the rightmost letter acts first, so the word
(3, 1) means "apply s_1, then s_3".  Words act on vectors one letter at a
time, and inversion sets carry the images of the simple roots along the
word in one pass.  An integer matrix on simple-root coordinates is built
only when a caller asks for a group element, one row update per letter:
s_i changes only coordinate i of a vector, so s_i M differs from M only in
row i.

Subsets of nodes name standard parabolic subgroups.  Their length
generating functions are products over the exponents, which are read off
the heights of the subdiagram's positive roots, with no classification;
`verify` compares each one it uses with a walk of the subgroup's coset
spaces, one node at a time, in Dynkin labels (fundamental-weight
coordinates), where a simple reflection changes a point by a multiple of
one Cartan column.  The other routines work in simple-root coordinates,
where reflect_simple is the one simple-reflection routine.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .qpoly import Poly, bracket, poly_mul, poly_prod
from .root_system import Root, RootSystem, _positive_roots, height_exponents

WeylWord = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def reflect_simple(rs: RootSystem, i: int, vec: Sequence) -> tuple:
    """s_i(vec) = vec - <vec, alpha_i-check> alpha_i: only coordinate i-1 changes.

    The one routine that applies a finite simple reflection, to roots,
    weights and orbit points alike.
    """
    out = list(vec)
    out[i - 1] -= sum(map(mul, rs.cartan[i - 1], vec))
    return tuple(out)


def check_letters(rs: RootSystem, word: Sequence[int], lowest: int) -> None:
    """Reject a word with a letter outside lowest..rank, before any action."""
    for i in word:
        if not lowest <= i <= rs.rank:
            raise ValueError(f"letter {i} out of range {lowest}..{rs.rank}")


def check_length(rs: RootSystem, vec: Sequence) -> None:
    """Reject a vector without rank coordinates, before any action."""
    if len(vec) != rs.rank:
        raise ValueError(f"vector {tuple(vec)} has {len(vec)} coordinates, not rank {rs.rank}")


def apply_word(rs: RootSystem, word: Sequence[int], vec: Sequence) -> tuple:
    """The word's image of a vector with rank coordinates."""
    check_letters(rs, word, 1)
    check_length(rs, vec)
    out = tuple(vec)
    for i in reversed(word):
        out = reflect_simple(rs, i, out)
    return out


def element_of_word(rs: RootSystem, word: Sequence[int]) -> Matrix:
    """The matrix of the word: its columns are the images of the basis.

    Built from the identity by left multiplication, one letter at a time
    from the right: s_i M differs from M only in row i, which becomes
    row i - sum_j a_ij row j over the nonzero entries of Cartan row i.  A
    word of k letters costs k row updates."""
    check_letters(rs, word, 1)
    rows = list(identity_matrix(rs.rank))
    for i in reversed(word):
        new = rows[i - 1]
        for a, row in zip(rs.cartan[i - 1], rows):
            if a:
                new = [x - a * y for x, y in zip(new, row)]
        rows[i - 1] = new
    return tuple(map(tuple, rows))


def length_of_element(rs: RootSystem, m: Matrix) -> int:
    """The number of positive roots phi with (phi | m 2rho) < 0, counted in
    integers: phi is such a root exactly when m^-1 sends it negative, and
    m and m^-1 have the same length.  The form is applied to the image of
    2rho once.  The matrix must be rank by rank."""
    if len(m) != rs.rank or any(len(row) != rs.rank for row in m):
        raise ValueError(f"matrix {tuple(map(tuple, m))} is not {rs.rank} by {rs.rank}")
    point = mat_vec(rs.form, mat_vec(m, rs.two_rho))
    return sum(1 for phi in rs.positive_roots if sum(c * x for c, x in zip(phi, point)) < 0)


def carry_images(cartan: Sequence[Sequence[int]], images: List[tuple],
                 word: Sequence[int], lowest: int) -> Iterator[tuple]:
    """w(beta_i) for each letter i of a word, w the prefix before it.

    The images w(beta_j) of the simple roots are carried along in the
    caller's list, in place, starting at images[j - lowest] = beta_j, and
    appending s_i sends w(beta_j) to w(beta_j) - a_ij w(beta_i), with
    a_ij = cartan[i - lowest][j - lowest]; the list ends holding the word's
    images.  The vectors are integer tuples of any length: affine walks
    carry the level last.  Shared by `inversion_roots` (a whole word),
    `ideals.cross_walls` (the greedy chain, the catalog and `from_param`,
    each word from a parent's walls), and `affine`'s alcove walls and
    inversion sets.
    """
    for i in word:
        beta = images[i - lowest]
        yield beta
        for j, a in enumerate(cartan[i - lowest]):
            if a:
                images[j] = tuple(x - a * y for x, y in zip(images[j], beta))


def inversion_roots(rs: RootSystem, word: Sequence[int]) -> Tuple[Root, ...]:
    """The positive roots sent negative by the inverse, one per letter.

    For a reduced word (i_1, ..., i_k) these are
    alpha_{i_1}, s_{i_1} alpha_{i_2}, s_{i_1} s_{i_2} alpha_{i_3}, ...
    and they sum to rho - w(rho).  A repeated or negative root means the
    word is not reduced, which is reported as an error.  One pass of
    `carry_images` over the simple roots.
    """
    check_letters(rs, word, 1)
    simple = [rs.simple_root(j) for j in range(1, rs.rank + 1)]
    seen: Dict[Root, None] = {}
    for beta in carry_images(rs.cartan, simple, word, 1):
        if beta in seen:
            raise ValueError(f"word {tuple(word)} is not reduced: root {beta} repeats")
        if not rs.is_positive_root(beta):
            raise ValueError(f"word {tuple(word)} is not reduced: {beta} is negative")
        seen[beta] = None
    return tuple(seen)


def minimal_word_to_theta(rs: RootSystem, phi: Root) -> WeylWord:
    """A shortest word w with w(phi) = theta, for a long positive root phi.

    Greedy: reflect by the lowest-indexed simple root having negative
    inner product with the current root (`greedy_letter`), until theta.
    Each step raises the distance functional by exactly one, so the word
    length equals length_to_theta(phi); the resulting group element does
    not depend on the tie-break.  The first reflection acts first, so it
    is the word's last letter: phi's word is s_i(phi)'s plus (i,), the
    chain `ideals` walks once per root system.
    """
    phi = tuple(phi)
    if not (rs.is_positive_root(phi) and rs.is_long(phi)):
        raise ValueError(f"{phi} is not a long positive root")
    letters = []
    while phi != rs.theta:
        letters.append(greedy_letter(rs, phi))
        phi = reflect_simple(rs, letters[-1], phi)
    return tuple(reversed(letters))


def greedy_letter(rs: RootSystem, phi: Root) -> int:
    """The lowest i with <phi, alpha_i-check> < 0, for a long positive root
    phi other than theta: s_i(phi) is the greedy step toward theta."""
    for i in range(1, rs.rank + 1):
        if rs.simple_coroot_pairing(phi, i) < 0:
            return i
    raise AssertionError(f"stuck before reaching the highest root from {phi}")


def graph_distances(adj, start: int) -> Dict[int, int]:
    """Breadth-first distances from `start`; adj[x] lists x's neighbors."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


# ----------------------------------------------------------------------
# standard parabolic subgroups

def parabolic_poincare(cartan: Sequence[Sequence[int]], nodes: Iterable[int]) -> Poly:
    """Length generating function of the Coxeter group on the finite-type
    Cartan submatrix on `nodes` (row indices of `cartan`, any order):
    prod [m + 1] over its exponents m (Macdonald, Math. Ann. 199 (1972)
    161-174), read off the heights of its positive roots.  The root
    closure, not a coset walk, so `verify` can compare the two.  Memoized
    by the submatrix itself, so equal diagrams share one closure."""
    idx = sorted(set(nodes))
    series = _exponent_product(tuple(tuple(cartan[a][b] for b in idx) for a in idx))
    if series is None:  # the closure of an affine or hyperbolic diagram gave up
        raise ValueError(f"nodes {idx} do not span a finite-type diagram")
    return series


@lru_cache(maxsize=None)
def _exponent_product(sub: Matrix) -> Optional[Poly]:
    """`parabolic_poincare` of a whole Cartan matrix; None unless its root
    closure ends, which it does exactly on finite type."""
    try:
        roots = _positive_roots(sub)
    except ValueError:
        return None
    return poly_prod(bracket(m + 1) for m in height_exponents(roots, len(sub)))


def subgroup_poincare(rs: RootSystem, nodes: Iterable[int]) -> Poly:
    """Length generating function of the parabolic subgroup on `nodes`
    (1-based)."""
    nodes = list(nodes)
    for i in nodes:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"node {i} out of range 1..{rs.rank}")
    return parabolic_poincare(rs.cartan, (i - 1 for i in nodes))


def _orbit_poincare(rs: RootSystem, nodes: Sequence[int]) -> Poly:
    """Length generating function of the parabolic subgroup, walked one
    node at a time as a chain of coset spaces.

    With J_m the first m nodes, each element of W_{J_m} is uniquely u v
    with v in W_{J_{m-1}} and u minimal in its coset, and lengths add
    (Humphreys, Reflection Groups and Coxeter Groups, 1.10): W_{J_m}(t) =
    W^{J_{m-1}}_{J_m}(t) W_{J_{m-1}}(t).  The cosets are the W_{J_m}-orbit
    of the point with Dynkin label 1 at the m-th node and 0 on J_{m-1}, which
    W_{J_{m-1}} fixes; s_i subtracts label i times Cartan column i.  By
    Deodhar's criterion s_i u is minimal and one letter longer exactly when
    label i at u's point is positive, so each layer is the set of ascending
    moves from the one before.  A point is u(lambda) with u(lambda) -
    lambda in the span of the simple roots of J_m, whose Cartan submatrix is
    invertible, so its labels on `nodes` name it: the walk carries only
    those, packed 8 bits each and offset by 127, so the top bit of a field
    is set exactly when its label is positive, and a move is one int
    subtraction.  Each label is <lambda, u^-1 alpha_i-check>, a coefficient
    of a coroot, at most 6 in size, so no field borrows from the next.  The
    cost is the sum of the coset sizes.
    """
    nodes = tuple(dict.fromkeys(nodes))
    cartan = rs.cartan
    # s_i subtracts label i times Cartan column i, read on the nodes' rows
    columns = [sum(cartan[b - 1][a - 1] << 8 * q for q, b in enumerate(nodes)) for a in nodes]
    origin = sum(127 << 8 * q for q in range(len(nodes)))
    series: Poly = (1,)
    for m in range(len(nodes)):
        tops = sum(128 << 8 * q for q in range(m + 1))  # the labels of J_m
        layer = {origin + (1 << 8 * m)}
        counts = []
        while layer:
            counts.append(len(layer))
            nxt = set()
            for point in layer:
                positive = point & tops
                while positive:
                    low = positive & -positive
                    positive ^= low
                    shift = low.bit_length() - 8
                    nxt.add(point - ((point >> shift & 255) - 127) * columns[shift >> 3])
            layer = nxt
        series = poly_mul(series, counts)
    return series


def weyl_poincare(rs: RootSystem) -> Poly:
    return subgroup_poincare(rs, range(1, rs.rank + 1))
