"""Abelian ideals of a Borel subalgebra, as sets of positive roots.

An abelian ideal is a set of positive roots closed under moving up in the
root poset and containing no pair (even equal) whose sum is a root.  The
direct enumeration walks positive roots from the highest down, including a
root only when everything above it is already in and no pairwise sum is a
root; closure under adding a single simple root is enough because saturated
chains connect any comparable pair.

Each nonzero ideal also arises exactly once from a pair (phi, coset word):
phi a long positive root, the word a minimal coset word of phi's wall
subgroup.  The affine word (0,) + minimal_word_to_theta(phi) + coset_word
has all its inversion roots at level one, and negating their finite parts
yields the ideal, the roots of the walls the word crosses.  The words form
one tree, each a parent's word plus one letter that crosses one wall
(`cross_walls`).  Its trunk, the empty coset words, is one greedy chain
from theta (`_greedy_chain`): phi's word is s_i(phi)'s plus (i,), i its
`greedy_letter`, and names phi's minimal ideal, theta together with theta
minus each inversion root of phi's word to theta.  The catalog is the walk
of this tree alone, and `from_param` crosses only a coset word's letters
from the chain.  Going back, an ideal's long root is the one whose minimal
ideal is the ideal's roots not orthogonal to theta, read off its mask
(`_long_root_of_mask`).  The `parametrization` check of `verify` holds the
walk to the enumeration, mask for mask, and each word's rho-shift to its
ideal's root sum.
"""

from __future__ import annotations

from functools import cached_property
from typing import (TYPE_CHECKING, Collection, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from .affine import (
    AffineWord,
    affine_cartan_matrix,
    alcove_walls,
    coset_poincare,
    label_reflect,
    minimal_coset_reps,
    wall_point,
    wall_subgroup_poincare,
)
from .qpoly import poly_degree, poly_eval_one
from .root_system import Record, Root, RootSystem, build, check_length, system_cache, vneg, vsub, vsum
from .weyl import (
    carry_images,
    graph_distances,
    greedy_letter,
    minimal_word_to_theta,
    reflect_simple,
)

if TYPE_CHECKING:
    from fractions import Fraction


class InvariantViolation(AssertionError):
    """An internal consistency check failed; inputs were valid."""


def _root_sort_key(r: Root):
    return (sum(r), r)


class AbelianIdeal(Record):
    """An abelian ideal, stored as its positive roots sorted by height."""

    __slots__ = ("roots", "_root_set")
    _fields = ("roots",)
    roots: Tuple[Root, ...]

    def __init__(self, roots: Tuple[Root, ...]) -> None:
        object.__setattr__(self, "roots", roots)

    @property
    def dim(self) -> int:
        return len(self.roots)

    @property
    def root_set(self) -> FrozenSet[Root]:
        """Built once per ideal; equality and hashing still use `roots`."""
        try:
            return self._root_set
        except AttributeError:
            object.__setattr__(self, "_root_set", frozenset(self.roots))
            return self._root_set

    def __contains__(self, root: Sequence[int]) -> bool:
        return tuple(root) in self.root_set

    def __le__(self, other: "AbelianIdeal") -> bool:
        return self.root_set <= other.root_set


def make_ideal(roots: Iterable[Root]) -> AbelianIdeal:
    return AbelianIdeal(tuple(sorted({tuple(r) for r in roots}, key=_root_sort_key)))


def mask_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_abelian_ideal(rs: RootSystem, roots: Iterable[Root]) -> bool:
    """Direct check of the defining conditions: every root is positive, the
    set is closed under adding a simple root, and no two of its roots
    (equal ones included) sum to a root."""
    return _ideal_mask(rs, roots) is not None


def is_ideal_mask(rs: RootSystem, indices: Collection[int]) -> bool:
    """The same test on indices into rs.positive_roots."""
    return _mask_if_ideal(rs, set(indices)) is not None


def _ideal_mask(rs: RootSystem, roots: Iterable[Root]) -> Optional[int]:
    """The mask over rs.positive_roots of a set of roots, or None unless
    every vector is a positive root and the set is an abelian ideal."""
    indices = {rs.root_index.get(tuple(r)) for r in roots}
    return None if None in indices else _mask_if_ideal(rs, indices)


def _mask_if_ideal(rs: RootSystem, indices: Set[int]) -> Optional[int]:
    """The mask of indices into rs.positive_roots, or None unless they are
    an abelian ideal by the root system's cover and conflict masks."""
    mask = sum(map((1).__lshift__, indices))
    covers, conflicts = rs.cover_masks, rs.conflict_masks
    return None if any(covers[k] & ~mask or conflicts[k] & mask for k in indices) else mask


def enumerate_all(rs: RootSystem) -> Tuple[AbelianIdeal, ...]:
    """Every abelian ideal, by descending-height inclusion search over the
    cover and conflict masks, in the canonical order (dim, root sum, roots)."""
    return _enumerate_masks(rs)[0]


def _enumerate_masks(rs: RootSystem) -> Tuple[Tuple[AbelianIdeal, ...], Tuple[int, ...], Tuple[Root, ...]]:
    """`enumerate_all` with each ideal's mask over rs.positive_roots and
    its root sum, aligned with the ideals.

    Every ideal is reached once, as its roots added in descending index
    order: each prefix of that order is an ideal too, since a root's covers
    come later in rs.positive_roots.  So the walk extends an ideal by each
    lower root whose covers it holds and which conflicts with none of its
    roots.  It carries the packed sum of the chosen roots
    (`RootSystem.packed_roots`) and the roots themselves with the mask;
    each new root goes in front, so the roots stay in index order, which
    is already the canonical (height, coordinates) order.  Each sum is
    unpacked once.  The list of ideals found is also the walk's queue,
    read while it grows, so no closure or recursion keeps it alive after
    the call."""
    roots, packed = rs.positive_roots, rs.packed_roots
    covers, conflicts = rs.cover_masks, rs.conflict_masks
    # (lowest index added, mask, packed sum, roots)
    found: List[Tuple[int, int, int, Tuple[Root, ...]]] = [(len(roots), 0, 0, ())]
    for k, chosen, total, members in found:
        for j in range(k - 1, -1, -1):
            if not (covers[j] & ~chosen or conflicts[j] & chosen):
                found.append((j, chosen | 1 << j, total + packed[j], (roots[j],) + members))
    rows = sorted((len(members), rs.unpack(total), members, mask) for _, mask, total, members in found)
    return (tuple(AbelianIdeal(r[2]) for r in rows), tuple(r[3] for r in rows),
            tuple(r[1] for r in rows))


# ----------------------------------------------------------------------
# the quadratic criterion

def kostant_raw(rs: RootSystem, sigma: Sequence[int]) -> int:
    """form_den (|rho + sigma|^2 - |rho|^2) = 2 raw(rho, sigma) + raw(sigma, sigma),
    in integers for an integer vector sigma."""
    return rs.twice_raw_rho(sigma) + rs.raw_inner(sigma, sigma)


def kostant_value(rs: RootSystem, roots: Iterable[Root]) -> Fraction:
    """|rho + sum|^2 - |rho|^2; at most the number of roots, with equality
    exactly on abelian ideals.  Every vector must have rank coordinates."""
    from fractions import Fraction
    roots = tuple(roots)
    for r in roots:
        check_length(rs, r)
    return Fraction(kostant_raw(rs, vsum(roots, rs.rank)), rs.form_den)


# ----------------------------------------------------------------------
# construction from the affine parametrization

def _check_coset_word(rs: RootSystem, phi: Root, coset_word: AffineWord) -> None:
    """Raises ValueError unless the coset word passes the labels of
    `minimal_coset_reps`' orbit walk: every letter is a wall letter of phi
    whose label is positive at the point the previous letters reached."""
    gens, point = wall_point(rs, phi)
    for i in coset_word:
        if i not in gens:
            raise ValueError(f"letter {i} does not fix the walls through {phi}")
        if point[i] <= 0:
            raise ValueError(f"{coset_word} is not a minimal coset word for {phi}")
        point = label_reflect(rs, i, point)


def parameter_word(rs: RootSystem, phi: Root, coset_word: Sequence[int]) -> AffineWord:
    """The affine word (0,) + `minimal_word_to_theta(phi)` + coset_word of
    a parameter, its coset word checked as `from_param` checks it."""
    phi, coset_word = tuple(phi), tuple(coset_word)
    word = minimal_word_to_theta(rs, phi)
    _check_coset_word(rs, phi, coset_word)
    return (0,) + word + coset_word


Walls = Tuple[Tuple[int, ...], ...]


def cross_walls(rs: RootSystem, walls: List[Tuple[int, ...]], letters: Sequence[int],
                mask: int, phi: Root, word: AffineWord) -> int:
    """Walks `letters` on `walls` in place, by `carry_images` with the
    affine Cartan matrix, and returns `mask` with each crossed wall's root
    added.  A crossed wall must be at level one, minus a positive root, and
    a root not yet in the mask, so the mask gains one root per letter;
    (phi, word) names the parameter in errors."""
    for beta in carry_images(affine_cartan_matrix(rs), walls, letters, 0):
        if beta[-1] != 1:
            raise InvariantViolation(
                f"wall {beta} crossed by parameter ({phi}, {word}) is not at level one")
        k = rs.root_index.get(vneg(beta[:-1]))
        if k is None:
            raise InvariantViolation(
                f"wall {beta} crossed by parameter ({phi}, {word}) has bad finite part")
        if mask >> k & 1:
            raise InvariantViolation(f"parameter ({phi}, {word}) crosses the wall {beta} twice")
        mask |= 1 << k
    return mask


@system_cache
def _greedy_chain(rs: RootSystem) -> Tuple[Dict[Root, Tuple[AffineWord, Walls, int]], Dict[int, Root]]:
    """The parameters (phi, ()), walked once: for each long root phi its
    word (0,) + `minimal_word_to_theta(phi)`, the alcove walls of that
    word and the mask of the roots of the walls it crosses, phi's minimal
    ideal; and phi keyed by that mask.

    Theta's word is (0,), and phi's is s_i(phi)'s plus (i,), i its
    `greedy_letter`.  The long roots are walked by descending height,
    theta first, so s_i(phi) is done before phi, and each crosses one wall
    past it.  No two long roots may share a minimal ideal."""
    links: Dict[Root, Tuple[AffineWord, Walls, int]] = {}
    roots: Dict[int, Root] = {}
    for phi in reversed(rs.long_positive_roots()):
        if phi == rs.theta:
            letter, word, walls, mask = 0, (), alcove_walls(rs, ()), 0
        else:
            letter = greedy_letter(rs, phi)
            word, walls, mask = links[reflect_simple(rs, letter, phi)]
        current = list(walls)
        mask = cross_walls(rs, current, (letter,), mask, phi, ())
        if mask in roots:
            raise InvariantViolation("two long roots share a minimal ideal")
        links[phi] = (word + (letter,), tuple(current), mask)
        roots[mask] = phi
    return links, roots


def from_param(rs: RootSystem, phi: Root, coset_word: Sequence[int] = ()) -> AbelianIdeal:
    """The ideal named by a long positive root and a minimal coset word.

    The word is checked by `_check_coset_word`.  Its letters are then
    crossed by `cross_walls` from the walls of phi's empty coset word in
    the greedy chain, and the ideal is the roots of the walls the whole
    parameter word crosses, in index order, which is the canonical order."""
    phi, coset_word = tuple(phi), tuple(coset_word)
    link = _greedy_chain(rs)[0].get(phi)
    if link is None:
        raise ValueError(f"{phi} is not a long positive root")
    _check_coset_word(rs, phi, coset_word)
    _, walls, mask = link
    return _ideal_of_mask(rs, cross_walls(rs, list(walls), coset_word, mask, phi, coset_word))


def _ideal_of_mask(rs: RootSystem, mask: int) -> AbelianIdeal:
    """The ideal of a mask over rs.positive_roots, its roots in index order."""
    return AbelianIdeal(tuple(rs.positive_roots[k] for k in mask_bits(mask)))


# ----------------------------------------------------------------------
# the catalog: every ideal with its parameter

class CatalogEntry(NamedTuple):
    ideal: AbelianIdeal
    phi: Optional[Root]
    coset_word: AffineWord
    word: AffineWord


class IdealCatalog:
    """All abelian ideals of one type, each with its unique parameter: one
    walk of the parameter words.

    `masks[k]` is ideal k's bitmask over rs.positive_roots (bit j for root
    j), `sums[k]` its root sum, `walls[k]` the alcove walls of its word
    (`affine.alcove_walls`), and `index` finds an ideal's position from
    its mask.

    The parameter words form one tree: each nonzero entry's word is its
    parent's word plus one letter.  The empty coset words are read off the
    greedy chain (`_greedy_chain`); any other coset word extends the word
    one letter shorter, which `minimal_coset_reps` lists first, as a long
    root's coset words form an order ideal in the weak order (Bjorner and
    Brenti, GTM 231, 2.4).  Each such word copies its parent's walls and
    mask, crosses one wall by `cross_walls` and adds that wall's packed
    root to its parent's sum; a trunk entry's sum is read off its mask.
    The rows are sorted by (dim, root sum), as no two ideals share a root
    sum, and each ideal is read off its mask.
    `verify`'s `parametrization` check compares the walk with the
    enumeration (`_enumerate_masks`)."""

    def __init__(self, rs: RootSystem) -> None:
        self.rs = rs
        packed = rs.packed_roots
        links = _greedy_chain(rs)[0]
        # (dim, root sum, mask, packed sum, phi, coset word, word, walls)
        rows: List[tuple] = [(0, rs.unpack(0), 0, 0, None, (), (), alcove_walls(rs, ()))]
        for phi in reversed(rs.long_positive_roots()):
            word, walls, mask = links[phi]
            position: Dict[AffineWord, int] = {}   # a coset word's row
            for rep in minimal_coset_reps(rs, phi):
                if rep:
                    parent = position.get(rep[:-1])
                    if parent is None:
                        raise InvariantViolation(
                            f"coset word {rep} of {phi} has no parent in the walk")
                    _, _, before, total, _, _, word, walls = rows[parent]
                    walls = list(walls)
                    mask = cross_walls(rs, walls, rep[-1:], before, phi, rep)
                    total += packed[(mask ^ before).bit_length() - 1]
                    word += rep[-1:]
                else:
                    total = sum(map(packed.__getitem__, mask_bits(mask)))
                position[rep] = len(rows)
                rows.append((mask.bit_count(), rs.unpack(total), mask, total, phi, rep, word,
                             tuple(walls)))
        rows.sort()
        _, sums, masks, _, phis, reps, words, walls = zip(*rows)
        self.ideals: Tuple[AbelianIdeal, ...] = tuple(_ideal_of_mask(rs, m) for m in masks)
        self.entries: Tuple[CatalogEntry, ...] = tuple(map(CatalogEntry, self.ideals, phis, reps, words))
        self.masks: Tuple[int, ...] = masks
        self.sums: Tuple[Root, ...] = sums
        self.walls: Tuple[Walls, ...] = walls
        self.index: Dict[int, int] = {m: k for k, m in enumerate(masks)}

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def holders(self) -> Tuple[int, ...]:
        """Bitsets over the catalog, one per positive root: bit k of
        holders[j] when ideal k holds root j."""
        out = [0] * self.rs.num_positive
        for k, mask in enumerate(self.masks):
            bit = 1 << k
            while mask:  # mask_bits, inlined
                low = mask & -mask
                out[low.bit_length() - 1] |= bit
                mask ^= low
        return tuple(out)


@system_cache
def catalog_of(rs: RootSystem) -> IdealCatalog:
    return IdealCatalog(rs)


def catalog(label: str) -> IdealCatalog:
    return catalog_of(build(label))


# ----------------------------------------------------------------------
# structure maps

def associated_long_root(rs: RootSystem, ideal: AbelianIdeal) -> Root:
    """The long positive root whose minimal ideal (`_greedy_chain`) matches
    the roots of the ideal off theta's wall (`_long_root_of_mask`)."""
    if ideal.dim == 0:
        raise ValueError("the zero ideal has no associated long root")
    mask = _ideal_mask(rs, ideal.roots)
    if mask is None:
        raise ValueError(f"{ideal.roots} is not an abelian ideal")
    return _long_root_of_mask(rs, mask)


def _long_root_of_mask(rs: RootSystem, mask: int) -> Root:
    """`associated_long_root` of the abelian ideal with this mask over
    rs.positive_roots.  The part off theta's wall is a subset of an abelian
    set, so it is sum-free already, and only its closure under the covers
    is tested before the greedy chain's reverse lookup."""
    kept = mask & ~rs.perp_theta_mask
    if any(rs.cover_masks[k] & ~kept for k in mask_bits(kept)):
        raise InvariantViolation("roots off theta's wall do not form an ideal")
    phi = _greedy_chain(rs)[1].get(kept)
    if phi is None:
        raise InvariantViolation("no long root matches this ideal's theta-visible part")
    return phi


def maximal_ideals(rs: RootSystem) -> Tuple[AbelianIdeal, ...]:
    """Ideals contained in no other: the AND of the holders of an ideal's
    roots is the set of ideals containing it, so it is maximal exactly when
    that AND is its own bit."""
    cat = catalog_of(rs)
    everything = (1 << len(cat.ideals)) - 1
    out = []
    for k, (a, mask) in enumerate(zip(cat.ideals, cat.masks)):
        above = everything
        for j in mask_bits(mask):
            above &= cat.holders[j]
        if above == 1 << k:
            out.append(a)
    return tuple(out)


class MaxDimensionReport(NamedTuple):
    value: int
    multiplicity: int            # number of ideals attaining the maximum
    witnesses: Tuple[int, ...]   # long simple nodes whose family reaches it
    decompositions: Tuple[Tuple[int, int, int, int], ...]
    # per witness alpha_i: (g, n_hat, n_perp, value), n_hat and n_perp the
    # degrees of alpha_i's wall-subgroup series with and without letter 0;
    # `verify` requires value = g - 1 + n_hat - n_perp


def long_simple_nodes(rs: RootSystem) -> Tuple[int, ...]:
    """The nodes i whose diagonal form entry, raw(alpha_i, alpha_i), is raw(theta, theta)."""
    theta_raw = rs.raw_inner(rs.theta, rs.theta)
    return tuple(i for i, row in enumerate(rs.form, 1) if row[i - 1] == theta_raw)


def max_dimension(rs: RootSystem) -> MaxDimensionReport:
    """The largest dimension of an abelian ideal, read off the enumeration
    with no catalog, and the long simple nodes whose families reach it."""
    return _max_dimension_of(rs, [a.dim for a in _enumerate_masks(rs)[0]])


def _max_dimension_of(rs: RootSystem, dims: Sequence[int]) -> MaxDimensionReport:
    """`max_dimension` from the dimensions of all abelian ideals of rs:
    `verify` passes those of the catalog's masks, which it already holds."""
    value = max(dims)
    multiplicity = dims.count(value)
    g = rs.dual_coxeter_number
    witnesses = []
    decomps = []
    for i in long_simple_nodes(rs):
        alpha = rs.simple_root(i)
        if g - 1 + poly_degree(coset_poincare(rs, alpha)) == value:
            n_hat = poly_degree(wall_subgroup_poincare(rs, alpha, True))
            n_perp = poly_degree(wall_subgroup_poincare(rs, alpha, False))
            witnesses.append(i)
            decomps.append((g, n_hat, n_perp, value))
    if not witnesses:
        raise InvariantViolation("no long simple node explains the maximal dimension")
    return MaxDimensionReport(value, multiplicity, tuple(witnesses), tuple(decomps))


# ----------------------------------------------------------------------
# roots that no abelian ideal contains

def forbidden_roots(rs: RootSystem) -> Tuple[Root, ...]:
    """Positive roots phi for which theta - 2*phi is a nonempty sum of
    positive roots; exactly the roots missing from every ideal.  A nonzero
    vector with nonnegative simple-root coordinates is a sum of simple
    roots, so the test is a sign test."""
    out = []
    for phi in rs.positive_roots:
        target = vsub(rs.theta, tuple(2 * c for c in phi))
        if all(c >= 0 for c in target) and any(target):
            out.append(phi)
    return tuple(sorted(out, key=_root_sort_key))


# ----------------------------------------------------------------------
# sum formulas

def affine_adjacency(rs: RootSystem) -> Dict[int, Tuple[int, ...]]:
    cartan = affine_cartan_matrix(rs)
    nodes = range(0, rs.rank + 1)
    return {a: tuple(b for b in nodes if b != a and cartan[a][b] != 0) for a in nodes}


def projection_node(rs: RootSystem, phi: Root) -> Optional[int]:
    """Support node nearest to node 0 in the extended diagram; None when
    the nearest node is not unique (the extended diagram of A_l is a cycle)."""
    check_length(rs, phi)
    if not any(phi):
        raise ValueError(f"the zero vector {tuple(phi)} has no support node")
    return _nearest_support_node(graph_distances(affine_adjacency(rs), 0), phi)


def _nearest_support_node(dist: Dict[int, int], phi: Root) -> Optional[int]:
    """`projection_node` with the distances from node 0 given."""
    support = [i + 1 for i, c in enumerate(phi) if c]
    best = min(dist[i] for i in support)
    nearest = [i for i in support if dist[i] == best]
    if len(nearest) != 1:
        return None
    return nearest[0]


class SumFormulaReport(NamedTuple):
    type_label: str
    first_total: int                 # sum of coset counts over long positive roots
    first_expected: int              # 2^rank - 1
    per_node: Optional[Tuple[int, ...]]   # r_i counts by node, tree types only
    second_total: int                # sum of n_i * coset count over long simple nodes
    second_expected: int             # 2^(rank-1)

    @property
    def first_holds(self) -> bool:
        return self.first_total == self.first_expected

    @property
    def second_holds(self) -> bool:
        return self.second_total == self.second_expected


@system_cache
def sum_formula_report(rs: RootSystem) -> SumFormulaReport:
    """Both sum formulas of one root system, computed once per instance."""
    counts: Dict[Root, int] = {}
    for phi in rs.long_positive_roots():
        counts[phi] = poly_eval_one(coset_poincare(rs, phi))
    first_total = sum(counts.values())

    per_node: Optional[Tuple[int, ...]] = None
    if rs.simple_type.letter != "A":
        r = [0] * rs.rank
        dist = graph_distances(affine_adjacency(rs), 0)
        node_counts: Dict[int, int] = {}
        for phi in rs.long_positive_roots():
            node = _nearest_support_node(dist, phi)
            if node is None:
                raise InvariantViolation(f"no unique nearest support node for {phi}")
            node_count = node_counts.get(node)
            if node_count is None:
                node_count = node_counts[node] = poly_eval_one(
                    coset_poincare(rs, rs.simple_root(node)))
            if counts[phi] != node_count:
                raise InvariantViolation(
                    f"coset count of {phi} differs from its projection node {node}")
            r[node - 1] += 1
        per_node = tuple(r)

    second_total = 0
    for i in long_simple_nodes(rs):
        second_total += rs.marks[i - 1] * counts[rs.simple_root(i)]

    return SumFormulaReport(
        str(rs.simple_type),
        first_total,
        2 ** rs.rank - 1,
        per_node,
        second_total,
        2 ** (rs.rank - 1),
    )
