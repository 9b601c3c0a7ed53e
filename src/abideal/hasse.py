"""The Hasse graph of the abelian-ideal poset, plus alcove geometry.

Nodes are the catalog's ideals in canonical order; an edge joins ideals
whose bitmasks over the positive roots differ by exactly one bit, found by
looking each one-root-smaller mask up in the catalog.  Each ideal is an
alcove of the doubled alcove 2A, and the catalog holds its walls, the
images of the affine simple roots.  An edge crosses the wall the two
alcoves share, and its label is that wall's type in the lower alcove.  A
separate verification confirms the edges are exactly the cover relations
of inclusion by a downward closure on bitsets over the catalog: the ideals
contained in b (an AND of "ideals lacking root k" over the roots k outside
b) must be exactly those reaching b along edges (b ORed with what reaches
its lower neighbours).

Upper alcoves are read off the same walls: the far wall of 2A among an
alcove's walls names the facet on it, and the vertex opposite.

The facets of the fundamental alcove have integer Gram determinants
(`_facet_determinants`), and the ratios they should have are integers over
raw(theta, theta) (`_expected_facet_terms`).  `verify` compares the two
cross-multiplied; only the public `facet_volume_ratios` and
`expected_facet_ratios` build Fractions.

Automorphisms are computed on the unlabeled undirected graph by
backtracking that collects every adjacency-preserving permutation.
Vertices are assigned in breadth-first order, one component after
another, so each vertex but a component's first has an earlier neighbour,
its parent, and can only go to a neighbour of its parent's image; a
component's first vertex may go anywhere.  The resulting group is
identified by comparing order, abelianness, element orders and center
size against a catalog of small groups.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .affine import rho_shift_in_2A
from .ideals import (
    IdealCatalog,
    InvariantViolation,
    catalog_of,
    mask_bits,
)
from .root_system import RootSystem, bareiss, system_cache, vneg, vsub

if TYPE_CHECKING:
    from fractions import Fraction

Permutation = Tuple[int, ...]


class HasseEdge(NamedTuple):
    lower: int
    upper: int
    letter: int


class HasseGraph:
    def __init__(self, rs: RootSystem, cat: IdealCatalog, edges: Tuple[HasseEdge, ...]) -> None:
        self.rs = rs
        self.catalog = cat
        self.edges = edges
        n = len(cat.ideals)
        adj: List[set] = [set() for _ in range(n)]
        for e in edges:
            adj[e.lower].add(e.upper)
            adj[e.upper].add(e.lower)
        self.adjacency: Tuple[FrozenSet[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def num_nodes(self) -> int:
        return len(self.catalog.ideals)


@system_cache
def build_graph(rs: RootSystem) -> HasseGraph:
    """Edge j -- k when ideal k adds one root r to ideal j, labelled by the
    index of (-r, 1) in the walls of j: element(k) = element(j) s_label."""
    cat = catalog_of(rs)
    edges: List[HasseEdge] = []
    for k, mask in enumerate(cat.masks):
        for r in mask_bits(mask):
            j = cat.index.get(mask & ~(1 << r))
            if j is None:
                continue
            crossed = vneg(rs.positive_roots[r]) + (1,)
            if crossed not in cat.walls[j]:
                raise InvariantViolation(
                    f"elements of adjacent ideals do not differ by one reflection "
                    f"({cat.entries[j].coset_word} vs {cat.entries[k].coset_word})")
            edges.append(HasseEdge(j, k, cat.walls[j].index(crossed)))
    edges.sort(key=lambda e: (e.lower, e.upper))
    return HasseGraph(rs, cat, tuple(edges))


def verify_cover_structure(graph: HasseGraph) -> None:
    """Check the one-root edges are exactly the covers of inclusion.

    Each edge must add one root.  Then it suffices that between any
    strictly nested pair some single root can be added to the smaller ideal
    staying inside the larger: every cover then has dimension gap one, and
    those pairs are exactly the edges.  Equivalently, for every ideal b the
    ideals contained in b are exactly those reaching b by a chain of edges.
    Both sides are bitsets over the catalog: the contained ones are the AND,
    over the roots outside b, of the ideals lacking that root; the reaching
    ones are b itself ORed with the reaching sets of b's lower neighbours,
    filled in catalog order, which sorts by dimension.  Where they differ,
    the largest ideal contained in b but not reaching it has no step toward b.
    """
    cat = graph.catalog
    masks = cat.masks
    lower: List[List[int]] = [[] for _ in masks]
    for e in graph.edges:
        added = masks[e.upper] ^ masks[e.lower]
        if not added or masks[e.lower] & added or added & (added - 1):
            raise InvariantViolation(f"edge {e.lower} -- {e.upper} does not add one root")
        lower[e.upper].append(e.lower)

    everything = (1 << len(masks)) - 1
    lacking = [everything ^ h for h in cat.holders]
    every_root = (1 << len(lacking)) - 1
    reaching = [0] * len(masks)
    for b, mask in enumerate(masks):
        contained = everything
        for j in mask_bits(every_root & ~mask):
            contained &= lacking[j]
        reach = 1 << b
        for a in lower[b]:
            reach |= reaching[a]
        reaching[b] = reach
        if reach != contained:
            a = (contained & ~reach).bit_length() - 1
            raise InvariantViolation(
                f"no one-root step from {cat.ideals[a].roots} toward {cat.ideals[b].roots}")


def to_dot(graph: HasseGraph) -> str:
    rs = graph.rs
    lines = [f"graph hasse_{rs.simple_type} {{", "  node [shape=circle];"]
    is_type_a = rs.simple_type.letter == "A"
    if is_type_a:
        from .young import young_encode, young_of_ideal

        for k, a in enumerate(graph.catalog.ideals):
            code = young_encode(young_of_ideal(rs, a), rs.rank + 1)
            lines.append(f'  {k} [dim={a.dim}, rim="{code:b}"];')
    else:
        for k, a in enumerate(graph.catalog.ideals):
            lines.append(f"  {k} [dim={a.dim}];")
    for e in graph.edges:
        lines.append(f'  {e.lower} -- {e.upper} [label="{e.letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# upper alcoves

class UpperAlcove(NamedTuple):
    node: int                  # catalog index
    lower_vertex_type: int     # 1-based node index of the off-wall vertex


def upper_alcoves(rs: RootSystem) -> Tuple[UpperAlcove, ...]:
    """Alcoves in the doubled alcove with a facet on the far theta-wall.

    An alcove lies in 2A exactly when its rho-point does (`rho_shift_in_2A`
    on the root sum in `IdealCatalog.sums`).  Its facet on the far wall is
    the wall (-theta, 2); the vertex opposite, the "lower" vertex, always
    has a long simple type.
    """
    cat = catalog_of(rs)
    far = vneg(rs.theta) + (2,)
    out: List[UpperAlcove] = []
    for k, (shift, walls) in enumerate(zip(cat.sums, cat.walls)):
        if not rho_shift_in_2A(rs, shift):
            raise InvariantViolation(f"alcove of node {k} lies beyond the doubled wall")
        if far in walls:
            t = walls.index(far)
            if t == 0 or not rs.is_long(rs.simple_root(t)):
                raise InvariantViolation(
                    f"lower vertex of upper alcove {k} has type {t}, not a long simple type")
            out.append(UpperAlcove(k, t))
    return tuple(out)


# ----------------------------------------------------------------------
# facet volumes of the fundamental alcove

def _facet_determinants(rs: RootSystem) -> Tuple[int, ...]:
    """The squared volume of each facet of the fundamental alcove, up to
    one positive factor common to all: facet i's ratio is dets[i] /
    dets[0].

    Facet i is spanned by all vertices but vertex i; its squared
    (rank-1)-volume is a Gram determinant of edge vectors, and the
    factorial normalization is common to all facets.  Vertex i is
    covee_i / n_i, and covee_i is a positive multiple, the same for every
    i, of column i of the form's adjugate, so the vertices are taken as the
    integer points lcm(marks) / n_i times those columns; that factor is
    common too, as is reading the form as raw_inner.
    """
    adj = bareiss(rs.form)[1]
    scale = lcm(*rs.marks)
    points = [(0,) * rs.rank] + [tuple(scale // n * row[i] for row in adj)
                                 for i, n in enumerate(rs.marks)]

    def gram_det(skip: int) -> int:
        pts = [v for i, v in enumerate(points) if i != skip]
        edges = [vsub(p, pts[0]) for p in pts[1:]]
        return bareiss([[rs.raw_inner(a, b) for b in edges] for a in edges])[0]

    dets = tuple(gram_det(i) for i in range(rs.rank + 1))
    if dets[0] == 0:
        raise InvariantViolation("degenerate base facet")
    return dets


def facet_volume_ratios(rs: RootSystem) -> Tuple[Fraction, ...]:
    """Squared volume of facet i over squared volume of facet 0
    (`_facet_determinants`)."""
    from fractions import Fraction
    dets = _facet_determinants(rs)
    return tuple(map(Fraction, dets, repeat(dets[0])))


def _expected_facet_terms(rs: RootSystem) -> Tuple[Tuple[int, ...], int]:
    """The numerators n_i^2 raw(alpha_i, alpha_i), theta's own raw(theta,
    theta) in slot 0, over their common denominator raw(theta, theta)."""
    theta_raw = rs.raw_inner(rs.theta, rs.theta)
    simples = map(rs.simple_root, range(1, rs.rank + 1))
    numerators = tuple(n * n * rs.raw_inner(a, a) for n, a in zip(rs.marks, simples))
    return (theta_raw,) + numerators, theta_raw


def expected_facet_ratios(rs: RootSystem) -> Tuple[Fraction, ...]:
    """n_i^2 |alpha_i|^2 / |theta|^2, with 1 in slot 0."""
    from fractions import Fraction
    numerators, den = _expected_facet_terms(rs)
    return tuple(map(Fraction, numerators, repeat(den)))


# ----------------------------------------------------------------------
# automorphisms

def graph_automorphisms(graph: HasseGraph) -> Tuple[Permutation, ...]:
    """Every adjacency-preserving permutation of the nodes."""
    adj = graph.adjacency
    n = len(adj)

    # breadth-first order, one component after another: every vertex but a
    # component's first was reached from an earlier neighbour, its parent
    order: List[int] = []
    parent: List[Optional[int]] = [None] * n
    seen = [False] * n
    head = 0
    for first in range(n):
        if seen[first]:
            continue
        seen[first] = True
        order.append(first)
        while head < len(order):
            p = order[head]
            head += 1
            for u in adj[p]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = p
                    order.append(u)

    # depth-first search with an explicit stack of candidate iterators, one
    # per assigned position, so deep graphs do not exhaust the call stack;
    # an automorphism sends v next to its parent's image, and a component's
    # first vertex anywhere
    def candidates(v: int) -> Iterator[int]:
        p = parent[v]
        return iter(range(n) if p is None else adj[image[p]])

    found: List[Permutation] = []
    image: Dict[int, int] = {}
    used = set()
    if n == 0:
        found.append(())
    stack = [candidates(order[0])] if n else []
    while stack:
        k = len(stack) - 1
        v = order[k]
        if v in image:  # back at this position: release its last choice
            used.discard(image.pop(v))
        # the assigned neighbors of v must map onto the assigned neighbors of t
        mapped = {image[u] for u in adj[v] if u in image}
        degree = len(adj[v])
        t = next((t for t in stack[-1] if t not in used and len(adj[t]) == degree
                  and mapped == adj[t] & used), None)
        if t is None:
            stack.pop()
            continue
        image[v] = t
        used.add(t)
        if k + 1 == n:
            found.append(tuple(image[x] for x in range(n)))
        else:
            stack.append(candidates(order[k + 1]))
    return tuple(sorted(found))


# ----------------------------------------------------------------------
# naming the group

class GroupFingerprint(NamedTuple):
    order: int
    abelian: bool
    element_orders: Tuple[int, ...]
    center_order: int


def _perm_mul(p: Permutation, q: Permutation) -> Permutation:
    return tuple(p[x] for x in q)


def _perm_order(p: Permutation) -> int:
    n = len(p)
    seen = [False] * n
    out = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        out = lcm(out, length)
    return out


def _commute(p: Permutation, q: Permutation) -> bool:
    """p q = q p, read position by position: p[q[i]] == q[p[i]]."""
    return all(p[y] == q[x] for x, y in zip(p, q))


def group_fingerprint(perms: Sequence[Permutation]) -> GroupFingerprint:
    elems = list(perms)
    orders = tuple(sorted(_perm_order(p) for p in elems))
    center = sum(1 for p in elems if all(_commute(p, q) for q in elems))
    return GroupFingerprint(len(elems), center == len(elems), orders, center)


def _closure(gens: List[Permutation], n: int) -> List[Permutation]:
    identity = tuple(range(n))
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elems)


def _cyclic(n: int) -> Permutation:
    return tuple((i + 1) % n for i in range(n))


def _flip(n: int) -> Permutation:
    return tuple((n - i) % n for i in range(n))


def _named_groups() -> Iterator[Tuple[int, str, List[Permutation], int]]:
    """Every group `identify_group` can name: its order, name, generators
    and the degree they act on."""
    yield 1, "1", [], 1
    for n in range(2, 13):
        yield n, f"Z/{n}", [_cyclic(n)], n
    yield 4, "Z/2 x Z/2", [(1, 0, 2, 3), (0, 1, 3, 2)], 4
    yield 6, "Sym_3", [_cyclic(3), _flip(3)], 3
    for n in range(4, 13):
        yield 2 * n, f"Dih_{n}", [_cyclic(n), _flip(n)], n
    yield 24, "Sym_4", [_cyclic(4), (1, 0, 2, 3)], 4
    yield 12, "Alt_4", [(1, 2, 0, 3), (0, 2, 3, 1)], 4


def identify_group(perms: Sequence[Permutation]) -> str:
    """The name of the named group with the same fingerprint.  Only the
    named groups of the same order are closed and fingerprinted: groups of
    different orders never share a fingerprint, and no two named groups do
    (a test closes them all)."""
    fp = group_fingerprint(perms)
    for order, name, gens, degree in _named_groups():
        if order == fp.order and group_fingerprint(_closure(gens, degree)) == fp:
            return name
    return f"unidentified(order={fp.order})"


def hasse_automorphism_name(rs: RootSystem) -> str:
    return identify_group(graph_automorphisms(build_graph(rs)))
