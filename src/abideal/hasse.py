"""The Hasse graph of the abelian-ideal poset, plus alcove geometry.

Nodes are the catalog's ideals in canonical order.  Each ideal is an
alcove of the doubled alcove 2A, and the catalog holds its walls, the
images of the affine simple roots.  The edges are read off those walls: a
wall (-r, 1) of ideal j, r outside j, is an edge to the ideal j plus r
when the catalog holds it, labelled by the wall's type in the lower
alcove.  `verify` confirms the edges are exactly the cover relations of
inclusion by a downward closure on bitsets over the catalog: the ideals
contained in b (a plain AND of "ideals lacking root k" over the roots k
outside b that some ideal holds) must be exactly those reaching b along
edges (b ORed with what reaches its lower neighbours).

Upper alcoves are read off the same walls: the far wall of 2A among an
alcove's walls names the facet on it, and the vertex opposite.

The facets of the fundamental alcove have integer Gram determinants
(`_facet_determinants`, each read off one Gram matrix of the alcove's
vertices, itself read off the form's adjugate), and the ratios they should
have are integers over raw(theta, theta) (`_expected_facet_terms`).
`verify` compares the two cross-multiplied; only the public
`facet_volume_ratios` and `expected_facet_ratios` build Fractions.

Automorphisms are computed on the unlabeled undirected graph by a
backtracking search along a stabilizer chain: with the vertices in
breadth-first order, one component after another, the search finds one
automorphism for each image of a vertex that the automorphisms fixing
every earlier vertex can reach and the ones found so far do not, and the
group those generate is listed.  The resulting group is identified by
comparing order, abelianness, element orders and center size against a
catalog of small groups.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from operator import eq
from typing import TYPE_CHECKING, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .ideals import (
    IdealCatalog,
    InvariantViolation,
    catalog_of,
    mask_bits,
)
from .root_system import RootSystem, bareiss, determinant, system_cache, vneg

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
    """Edge j -- k when ideal k is ideal j plus the root r of a wall (-r, 1)
    of j, labelled by that wall's position (other walls lead back to j):
    element(k) = element(j) s_label.  `verify`'s `hasse_covers` holds them."""
    cat = catalog_of(rs)
    bits = {vneg(r) + (1,): 1 << k for k, r in enumerate(rs.positive_roots)}
    edges: List[HasseEdge] = []
    for j, (mask, walls) in enumerate(zip(cat.masks, cat.walls)):
        for letter, wall in enumerate(walls):
            k = cat.index.get(mask | bits.get(wall, 0))
            if k is not None and k != j:
                edges.append(HasseEdge(j, k, letter))
    edges.sort()
    return HasseGraph(rs, cat, tuple(edges))


def verify_cover_structure(graph: HasseGraph) -> None:
    """Check the one-root edges are exactly the covers of inclusion.

    Each edge must add one root.  Then it suffices that between any
    strictly nested pair some single root can be added to the smaller ideal
    staying inside the larger: every cover then has dimension gap one, and
    those pairs are exactly the edges.  Equivalently, for every ideal b the
    ideals contained in b are exactly those reaching b by a chain of edges.
    Both sides are bitsets over the catalog: the contained ones are the
    plain AND, over the roots outside b that some ideal holds, of the ideals
    lacking that root (a root no ideal holds, as 76 of E8's 120 are, is
    lacked by all); the reaching ones are b itself ORed with the reaching
    sets of b's lower neighbours, filled in catalog order, which sorts by
    dimension.  Where they differ, the largest ideal contained in b but not
    reaching it has no step toward b.
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
    lacking = [(1 << j, everything ^ h) for j, h in enumerate(cat.holders) if h]
    reaching = [0] * len(masks)
    for b, mask in enumerate(masks):
        contained = everything
        for bit, lack in lacking:
            if not mask & bit:
                contained &= lack
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

    Every alcove of the catalog lies in 2A.  Its facet on the far wall is
    the wall (-theta, 2); the vertex opposite, the "lower" vertex, has a
    long simple type.  `verify`'s upper_alcoves check tests both.
    """
    far = vneg(rs.theta) + (2,)
    return tuple(UpperAlcove(k, walls.index(far))
                 for k, walls in enumerate(catalog_of(rs).walls) if far in walls)


# ----------------------------------------------------------------------
# facet volumes of the fundamental alcove

def _vertex_gram(rs: RootSystem) -> List[List[int]]:
    """The Gram matrix, in raw_inner, of the vertices of the fundamental
    alcove, the origin first.  Vertex i is covee_i / n_i, and covee_i is a
    positive multiple, the same for every i, of column i of the form's
    adjugate, so the vertices are taken as the integer points lcm(marks) /
    n_i times those columns; the factor is common to every entry.  As the
    form F times its adjugate is det(F) I, the entry of vertices a and b is
    det(F) (lcm / n_a) (lcm / n_b) adj_ab, and the origin's are zero."""
    det, adj = bareiss(rs.form)
    scale = lcm(*rs.marks)
    weights = [scale // n for n in rs.marks]
    return [[0] * (rs.rank + 1)] + [[0] + [det * wa * wb * x for wb, x in zip(weights, row)]
                                    for wa, row in zip(weights, adj)]


def _facet_determinants(rs: RootSystem) -> Tuple[int, ...]:
    """The squared volume of each facet of the fundamental alcove, up to
    one positive factor common to all: facet i's ratio is dets[i] /
    dets[0].

    Facet i is spanned by all vertices but vertex i; its squared
    (rank-1)-volume is the Gram determinant of its edges from its first
    vertex b, and the factorial normalization is common to all facets.
    The edge Gram is read off the vertex Gram G (`_vertex_gram`) in
    integers, (v_x - v_b | v_y - v_b) = G_xy - G_xb - G_by + G_bb.
    """
    gram = _vertex_gram(rs)

    def gram_det(skip: int) -> int:
        b, *rest = (i for i in range(rs.rank + 1) if i != skip)
        gb, gbb = gram[b], gram[b][b]
        return determinant([[gx[y] - gx[b] - gb[y] + gbb for y in rest]
                            for gx in map(gram.__getitem__, rest)])

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
    """Every adjacency-preserving permutation of the nodes, sorted.

    The vertices v_0, v_1, ... are taken in breadth-first order, one
    component after another, so each vertex but a component's first has
    an earlier neighbour.  From the last position back, with v_0 .. v_{k-1}
    fixed, each image t of v_k that the generators found so far do not
    already reach from v_k gets one search for an automorphism fixing
    v_0 .. v_{k-1} and sending v_k to t; each one found is a generator.
    The pointwise stabilizer G_k of the first k vertices is generated by
    G_{k+1} and one element per point of v_k's G_k-orbit (Sims's stabilizer
    chain, with McKay's automorphism pruning skipping the images already
    reached), so the generators generate the group, which `_closure`
    lists.  Adjacency and the set of used images are int bitmasks."""
    adj = graph.adjacency
    n = len(adj)
    order: List[int] = []
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
                    order.append(u)
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    earlier = [[u for u in adj[v] if position[u] < k] for k, v in enumerate(order)]
    bits = [sum(1 << u for u in a) for a in adj]
    degree = [len(a) for a in adj]
    everything = (1 << n) - 1
    identity = list(range(n))

    def candidates(k: int, image: List[int], used: int) -> Tuple[int, int]:
        """The unused vertices next to the image of each earlier neighbour
        of v_k, and the mask of those images: an image t of v_k must have
        exactly them as its used neighbours."""
        cand, mapped = everything, 0
        for u in earlier[k]:
            cand &= bits[image[u]]
            mapped |= 1 << image[u]
        return cand & ~used, mapped

    def extend(k0: int, t0: int, used: int) -> Optional[Permutation]:
        """An automorphism fixing v_0 .. v_{k0-1} (the mask `used`) and
        sending v_k0 to t0, or None: depth first, with each position's
        remaining candidates kept as a mask, so deep graphs do not exhaust
        the call stack."""
        image = identity[:]
        remaining, wanted = [0] * n, [0] * n
        cand, wanted[k0] = candidates(k0, image, used)
        remaining[k0] = cand & 1 << t0
        k = k0
        while k >= k0:
            v = order[k]
            rem, want, d = remaining[k], wanted[k], degree[v]
            while rem:
                low = rem & -rem
                rem ^= low
                t = low.bit_length() - 1
                if degree[t] == d and bits[t] & used == want:
                    break
            else:  # no image left here: release the previous position's
                k -= 1
                used ^= 1 << image[order[k]]
                continue
            remaining[k] = rem
            image[v] = t
            if k + 1 == n:
                return tuple(image)
            used |= 1 << t
            k += 1
            remaining[k], wanted[k] = candidates(k, image, used)
        return None

    generators: List[Permutation] = []
    used = everything
    for k in range(n - 1, -1, -1):
        v = order[k]
        used ^= 1 << v
        cand, mapped = candidates(k, identity, used)
        cand ^= 1 << v
        orbit = _orbit(v, generators) if cand else ()
        for t in mask_bits(cand):
            # extend's own first test, taken before it copies anything
            if t not in orbit and degree[t] == degree[v] and bits[t] & used == mapped:
                found = extend(k, t, used)
                if found is not None:
                    generators.append(found)
                    orbit = _orbit(v, generators)
    return tuple(_closure(generators, n))


def _orbit(v: int, perms: Sequence[Permutation]) -> Set[int]:
    """The points the group generated by `perms` sends v to."""
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in perms:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return orbit


# ----------------------------------------------------------------------
# naming the group

class GroupFingerprint(NamedTuple):
    order: int
    abelian: bool
    element_orders: Tuple[int, ...]
    center_order: int


def _perm_mul(p: Permutation, q: Permutation) -> Permutation:
    return tuple(map(p.__getitem__, q))


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
    return all(map(eq, map(p.__getitem__, q), map(q.__getitem__, p)))


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
