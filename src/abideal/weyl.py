"""Finite Weyl groups: words, reflections, inversion sets, Poincare series.

A word is a tuple of node indices (1-based).  Words compose like the
reflections they name: the rightmost letter acts first, so the word
(3, 1) means "apply s_1, then s_3".  Words act on vectors one letter at a
time, and inversion sets carry the images of the simple roots along the
word in one pass.  An integer matrix on simple-root coordinates is built
only when a caller asks for a group element: its columns are the word's
images of the basis vectors.

Subsets of nodes name standard parabolic subgroups.  Their length
generating functions are exponent products of the classified diagram;
`verify` compares each one it uses with a walk of the subgroup's coset
spaces, one node at a time, in Dynkin labels (fundamental-weight
coordinates), where a simple reflection changes a point by a multiple of
one Cartan column.  The other routines work in simple-root coordinates,
where reflect_simple is the one simple-reflection routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .qpoly import Poly, bracket, poly_mul, poly_prod
from .root_system import Root, RootSystem, vsum

WeylWord = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def matrix_of(rank: int, action: Callable[[tuple], tuple]) -> Matrix:
    """Matrix of a linear vector action (columns are images of the basis)."""
    basis = identity_matrix(rank)
    return tuple(zip(*(action(e) for e in basis)))


def reflection_matrix(rs: RootSystem, i: int) -> Matrix:
    """Matrix of s_i on simple-root coordinates (columns are images)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"letter {i} out of range 1..{rs.rank}")
    return matrix_of(rs.rank, lambda e: reflect_simple(rs, i, e))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def reflect_simple(rs: RootSystem, i: int, vec: Sequence) -> tuple:
    """s_i(vec) = vec - <vec, alpha_i-check> alpha_i: only coordinate i-1 changes.

    The one routine that applies a finite simple reflection, to roots,
    weights and orbit points alike.
    """
    out = list(vec)
    out[i - 1] -= sum(a * x for a, x in zip(rs.cartan[i - 1], vec) if a)
    return tuple(out)


def check_letters(rs: RootSystem, word: Sequence[int], lowest: int) -> None:
    """Reject a word with a letter outside lowest..rank, before any action."""
    for i in word:
        if not lowest <= i <= rs.rank:
            raise ValueError(f"letter {i} out of range {lowest}..{rs.rank}")


def apply_word(rs: RootSystem, word: Sequence[int], vec: Sequence) -> tuple:
    check_letters(rs, word, 1)
    out = tuple(vec)
    for i in reversed(word):
        out = reflect_simple(rs, i, out)
    return out


def element_of_word(rs: RootSystem, word: Sequence[int]) -> Matrix:
    """The matrix of the word: its columns are the images of the basis."""
    return matrix_of(rs.rank, lambda e: apply_word(rs, word, e))


def length_of_element(rs: RootSystem, m: Matrix) -> int:
    """The number of positive roots phi with (phi | m 2rho) < 0, counted in
    integers: phi is such a root exactly when m^-1 sends it negative, and
    m and m^-1 have the same length.  2rho is the sum of the positive
    roots, and the form is applied to its image once."""
    point = mat_vec(rs.form, mat_vec(m, vsum(rs.positive_roots, rs.rank)))
    return sum(1 for phi in rs.positive_roots if sum(c * x for c, x in zip(phi, point)) < 0)


def carry_images(cartan: Sequence[Sequence[int]], images: Sequence[tuple],
                 word: Sequence[int], lowest: int) -> Iterator[tuple]:
    """w(beta_i) for each letter i of a word, w the prefix before it.

    The images w(beta_j) of the simple roots are carried along, starting at
    images[j - lowest] = beta_j, and appending s_i sends w(beta_j) to
    w(beta_j) - a_ij w(beta_i), with a_ij = cartan[i - lowest][j - lowest].
    The vectors are integer tuples of any length: the affine inversion set
    carries the level as a last coordinate.  The shared walk of
    `inversion_roots` and `affine.affine_inversion_set`.
    """
    images = list(images)
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

    Greedy: repeatedly reflect by the lowest-indexed simple root having
    negative inner product with the current root.  Each step raises the
    distance functional by exactly one, so the word length equals
    length_to_theta(phi); the resulting group element does not depend on the
    tie-break.  Cached per root system instance and root.
    """
    return _word_to_theta_cached(rs, tuple(phi))


@lru_cache(maxsize=None)
def _word_to_theta_cached(rs: RootSystem, phi: Root) -> WeylWord:
    if not (rs.is_positive_root(phi) and rs.is_long(phi)):
        raise ValueError(f"{phi} is not a long positive root")
    letters: List[int] = []
    current = phi
    while current != rs.theta:
        for i in range(1, rs.rank + 1):
            if rs.simple_coroot_pairing(current, i) < 0:
                letters.append(i)
                current = reflect_simple(rs, i, current)
                break
        else:
            raise AssertionError(f"stuck before reaching the highest root from {phi}")
    return tuple(reversed(letters))


# ----------------------------------------------------------------------
# diagram classification for node subsets
#
# Any proper subset of the extended diagram's nodes spans a finite-type
# diagram; its connected components are recognized here by edge weights
# and branch shape.  Families B and C share a Weyl group, hence "BC".

_FAMILY_EXPONENTS: Dict[str, Callable[[int], Tuple[int, ...]]] = {
    "A": lambda n: tuple(range(1, n + 1)),
    "BC": lambda n: tuple(range(1, 2 * n, 2)),
    "D": lambda n: tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])),
    "E6": lambda n: (1, 4, 5, 7, 8, 11),
    "E7": lambda n: (1, 5, 7, 9, 11, 13, 17),
    "E8": lambda n: (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": lambda n: (1, 5, 7, 11),
    "G2": lambda n: (1, 5),
}


@dataclass(frozen=True)
class DiagramComponent:
    family: str
    size: int
    nodes: Tuple[int, ...]

    @property
    def exponents(self) -> Tuple[int, ...]:
        return _FAMILY_EXPONENTS[self.family](self.size)

    @property
    def order(self) -> int:
        return prod(m + 1 for m in self.exponents)

    @property
    def poincare(self) -> Poly:
        return poly_prod(bracket(m + 1) for m in self.exponents)


def classify_components(nodes: Sequence[int], entry: Callable[[int, int], int]) -> Tuple[DiagramComponent, ...]:
    """Split a node set into components and name each one's family.

    `entry(i, j)` returns the Cartan integer pairing node j against node
    i's coroot.  Only finite-type shapes are accepted.
    """
    nodes = sorted(set(nodes))
    adj: Dict[int, List[int]] = {i: [] for i in nodes}
    weight: Dict[Tuple[int, int], int] = {}
    for a in nodes:
        for b in nodes:
            if a < b:
                w = entry(a, b) * entry(b, a)
                if w:
                    adj[a].append(b)
                    adj[b].append(a)
                    weight[(a, b)] = weight[(b, a)] = w

    out: List[DiagramComponent] = []
    unseen = set(nodes)
    while unseen:
        start = min(unseen)
        comp = [start]
        unseen.discard(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y in unseen:
                    unseen.discard(y)
                    comp.append(y)
                    queue.append(y)
        comp.sort()
        out.append(_classify_one(comp, adj, weight))
    return tuple(sorted(out, key=lambda c: (c.family, c.size, c.nodes)))


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


def _classify_one(comp: List[int], adj: Dict[int, List[int]], weight: Dict[Tuple[int, int], int]) -> DiagramComponent:
    n = len(comp)
    nodes = tuple(comp)
    edges = [(a, b) for (a, b) in weight if a < b and a in comp and b in comp]
    if len(edges) >= n:
        raise ValueError(f"nodes {nodes} contain a cycle; not a finite-type diagram")
    degrees = {x: sum(1 for y in adj[x] if y in comp) for x in comp}
    heavy = [e for e in edges if weight[e] > 1]

    if any(weight[e] == 3 for e in edges):
        if n != 2:
            raise ValueError(f"nodes {nodes}: triple edge in a component of size {n}")
        return DiagramComponent("G2", 2, nodes)

    if heavy:
        if len(heavy) > 1 or any(d > 2 for d in degrees.values()):
            raise ValueError(f"nodes {nodes}: not a finite-type diagram")
        # a path; F4 exactly when the double edge is the middle of a 4-chain
        (a, b) = heavy[0]
        if n == 4 and degrees[a] == 2 and degrees[b] == 2:
            return DiagramComponent("F4", 4, nodes)
        return DiagramComponent("BC", n, nodes)

    branch = [x for x in comp if degrees[x] >= 3]
    if not branch:
        return DiagramComponent("A", n, nodes)
    if len(branch) > 1 or degrees[branch[0]] > 3:
        raise ValueError(f"nodes {nodes}: not a finite-type diagram")
    center = branch[0]
    legs = []
    for first in adj[center]:
        if first not in comp:
            continue
        length = 1
        prev, cur = center, first
        while True:
            nxt = [y for y in adj[cur] if y in comp and y != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return DiagramComponent("D", legs[2] + 3, nodes)
    if legs == [1, 2, 2]:
        return DiagramComponent("E6", 6, nodes)
    if legs == [1, 2, 3]:
        return DiagramComponent("E7", 7, nodes)
    if legs == [1, 2, 4]:
        return DiagramComponent("E8", 8, nodes)
    raise ValueError(f"nodes {nodes}: branch shape {legs} is not finite-type")


# ----------------------------------------------------------------------
# standard parabolic subgroups of the finite group

def finite_components(rs: RootSystem, nodes: Iterable[int]) -> Tuple[DiagramComponent, ...]:
    nodes = list(nodes)
    for i in nodes:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"node {i} out of range 1..{rs.rank}")
    return classify_components(nodes, lambda a, b: rs.cartan[a - 1][b - 1])


def subgroup_order(rs: RootSystem, nodes: Iterable[int]) -> int:
    return prod(comp.order for comp in finite_components(rs, nodes))


def subgroup_positive_count(rs: RootSystem, nodes: Iterable[int]) -> int:
    """Positive roots supported on the given nodes; also the longest length."""
    allowed = set(nodes)
    count = 0
    for phi in rs.positive_roots:
        if all(i + 1 in allowed for i, c in enumerate(phi) if c):
            count += 1
    return count


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
    moves from the one before.  The cost is the sum of the coset sizes.
    """
    nodes = tuple(dict.fromkeys(nodes))
    columns = [(i - 1, tuple((j, row[i - 1]) for j, row in enumerate(rs.cartan) if row[i - 1]))
               for i in nodes]
    series: Poly = (1,)
    for m, top in enumerate(nodes):
        layer = {tuple(int(j == top - 1) for j in range(rs.rank))}
        counts = []
        while layer:
            counts.append(len(layer))
            nxt = set()
            for point in layer:
                for i, column in columns[:m + 1]:
                    c = point[i]
                    if c > 0:
                        img = list(point)
                        for j, a in column:
                            img[j] -= c * a
                        nxt.add(tuple(img))
            layer = nxt
        series = poly_mul(series, counts)
    return series


def subgroup_poincare(rs: RootSystem, nodes: Iterable[int]) -> Poly:
    """Length generating function of the parabolic subgroup on `nodes`:
    the product of its components' exponent series."""
    return poly_prod(c.poincare for c in finite_components(rs, nodes))


def weyl_order(rs: RootSystem) -> int:
    return subgroup_order(rs, range(1, rs.rank + 1))


def weyl_poincare(rs: RootSystem) -> Poly:
    return subgroup_poincare(rs, range(1, rs.rank + 1))
