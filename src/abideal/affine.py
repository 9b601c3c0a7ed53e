"""Affine Weyl machinery in the rho-scaled picture.

Letters 0..rank name the affine generators; letter 0 reflects in the wall
where the pairing with theta-check equals the dual Coxeter number g, so

    s_0(x) = s_theta(x) + g * theta,      s_0(rho) = rho + theta.

With this scaling every generator preserves the lattice spanned by the
simple roots.  rho lies strictly inside the g-scaled fundamental alcove,
since <rho, alpha_i-check> = 1 > 0 and <rho, theta-check> = g - 1 < g, so
an element w is determined by its rho-point w(rho), and the package names
it by integers alone: its rho-shift w(rho) - rho, moved one letter at a
time, or its alcove walls, the rank + 1 images of the affine simple roots
carried along the word.  No matrix or Fraction point is built here.

Minimal coset words of a root's wall subgroup come from an orbit walk in
extended Dynkin labels (a point's pairings with beta_0, ..., beta_rank),
where s_j subtracts label j times column j of the affine Cartan matrix.

Affine roots are (finite root, level) pairs; the extra simple root is
(-theta, 1).  Positive means level > 0, or level 0 with positive finite
part.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Sequence, Tuple

from .qpoly import Poly, poly
from .root_system import Record, Root, RootSystem, system_cache, vneg
from .weyl import carry_images, check_letters, parabolic_poincare

AffineWord = Tuple[int, ...]


class AffineRoot(Record):
    """A (finite root, level) pair."""

    __slots__ = _fields = ("finite", "level")
    finite: Root
    level: int

    def __init__(self, finite: Root, level: int) -> None:
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "level", level)

    @property
    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return sum(self.finite) > 0 and all(c >= 0 for c in self.finite)

    def __str__(self) -> str:
        return f"({self.finite}, {self.level})"


@system_cache
def affine_cartan_matrix(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """Entry [a][b] = <root_b, root_a-check> over letters 0..rank, where
    root_0 = -theta; computed once per root system."""
    roots = (vneg(rs.theta),) + tuple(rs.simple_root(i) for i in range(1, rs.rank + 1))

    def pairing(x: Root, phi: Root) -> int:
        num, den = 2 * rs.raw_inner(x, phi), rs.raw_inner(phi, phi)
        if num % den:
            raise AssertionError("nonintegral Cartan pairing")
        return num // den

    return tuple(tuple(pairing(b, a) for b in roots) for a in roots)


@system_cache
def _sparse_rows(rs: RootSystem) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The nonzero entries (j, a_{a,j+1}) of each row a of the affine Cartan
    matrix, over the finite columns only."""
    return tuple(tuple((j, x) for j, x in enumerate(row[1:]) if x)
                 for row in affine_cartan_matrix(rs))


def rho_shift(rs: RootSystem, word: Sequence[int]) -> Root:
    """w(rho) - rho for the element named by the word, in integers, one
    letter at a time from the right.  With y the shift so far and a the
    affine Cartan matrix, s_i(rho + y) = rho + s_i(y) - alpha_i lowers
    coordinate i by 1 + <y, alpha_i-check> = 1 + sum_j a_ij y_j, and
    s_0(rho + y) = rho + s_theta(y) + theta adds (1 + sum_j a_0j y_j) theta,
    as <y, theta-check> = -sum_j a_0j y_j.  Independent of the walls the
    catalog's walk crosses, so `parametrization` compares each word's
    shift with the root sum of the ideal the walk gave it."""
    check_letters(rs, word, 0)
    rows, theta = _sparse_rows(rs), rs.theta
    shift = [0] * rs.rank
    for i in reversed(word):
        c = 1
        for j, a in rows[i]:
            c += a * shift[j]
        if i:
            shift[i - 1] -= c
        else:
            shift = [y + c * t for y, t in zip(shift, theta)]
    return tuple(shift)


def affine_inversion_set(rs: RootSystem, word: Sequence[int]) -> Tuple[AffineRoot, ...]:
    """One positive affine root per letter of a reduced word, w(beta_i) for
    the prefix w before letter i; errors on repeats and negative roots.

    One pass of `weyl.carry_images` over the affine simple roots as integer
    tuples (finite part, then level), with the affine Cartan matrix.
    """
    check_letters(rs, word, 0)
    seen: Dict[Tuple[int, ...], AffineRoot] = {}
    for beta in carry_images(affine_cartan_matrix(rs), list(alcove_walls(rs, ())), word, 0):
        root = AffineRoot(beta[:-1], beta[-1])
        if beta in seen:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {root} repeats")
        if not root.is_positive:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {root} is negative")
        seen[beta] = root
    return tuple(seen.values())


def alcove_walls(rs: RootSystem, word: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """w(beta_0), ..., w(beta_rank) as (finite part, level) integer tuples;
    wall j of the alcove w(A) is the facet opposite its vertex of type j.
    The final state of `weyl.carry_images` from the affine simple roots."""
    check_letters(rs, word, 0)
    walls = [vneg(rs.theta) + (1,)] + [rs.simple_root(j) + (0,) for j in range(1, rs.rank + 1)]
    for _ in carry_images(affine_cartan_matrix(rs), walls, word, 0):
        pass
    return tuple(walls)


# ----------------------------------------------------------------------
# the subgroup fixing a root's walls, and its minimal coset words

def perp_generators(rs: RootSystem, phi: Root) -> Tuple[int, ...]:
    """Letters whose mirror contains phi: finite ones orthogonal to phi,
    plus 0 when theta is orthogonal to phi."""
    out = [0] if rs.raw_inner(rs.theta, phi) == 0 else []
    # <phi, alpha_i-check> is row i of the Cartan matrix applied to phi
    out += [i for i, row in enumerate(rs.cartan, 1) if not sum(map(mul, row, phi))]
    return tuple(out)


def wall_point(rs: RootSystem, phi: Root) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """phi's wall letters, and the point lambda_phi in extended Dynkin
    labels: 0 on the finite wall letters, 1 on every other letter."""
    gens = perp_generators(rs, phi)
    return gens, tuple(0 if j and j in gens else 1 for j in range(rs.rank + 1))


def label_reflect(rs: RootSystem, j: int, point: Sequence[int]) -> tuple:
    """s_j on extended Dynkin labels: subtract label j times column j of
    the affine Cartan matrix."""
    c = point[j]
    return tuple(x - c * row[j] for x, row in zip(point, affine_cartan_matrix(rs)))


def minimal_coset_reps(rs: RootSystem, phi: Root) -> Tuple[AffineWord, ...]:
    """Minimal-length coset words for the finite part of the wall subgroup.

    The finite wall letters fix lambda_phi (`wall_point`) and the letter 0
    does not, so the wall subgroup's orbit of lambda_phi is its coset
    space.  By Deodhar's lemma a word w is minimal in its coset exactly
    when w^-1(lambda_phi) is reached by ascents: each letter j, applied to
    the point reached so far, has label c_j > 0 there and makes the word
    one letter longer.  The walk goes layer by layer, visits parents in
    word order and letters in ascending order, and keeps the first word
    reaching each point; distinct layers hold distinct points, so each
    layer is deduplicated alone.  Ordered by (length, word); cached per
    root system instance and root.
    """
    return _minimal_coset_reps_cached(rs, tuple(phi))


@system_cache
def _minimal_coset_reps_cached(rs: RootSystem, phi: Root) -> Tuple[AffineWord, ...]:
    if not rs.is_positive_root(phi):
        raise ValueError(f"{phi} is not a positive root")
    gens, start = wall_point(rs, phi)
    reps: List[AffineWord] = [()]
    layer: Dict[Tuple[int, ...], AffineWord] = {start: ()}  # point -> word
    while layer:
        nxt: Dict[Tuple[int, ...], AffineWord] = {}
        for point, word in layer.items():
            for j in gens:
                if point[j] > 0:
                    nxt.setdefault(label_reflect(rs, j, point), word + (j,))
        reps.extend(nxt.values())
        layer = nxt
    return tuple(reps)


def wall_subgroup_poincare(rs: RootSystem, phi: Root, include_zero: bool) -> Poly:
    """Poincare series of the wall subgroup of phi, with or without letter
    0: the exponent product of the affine Cartan submatrix on its letters,
    a proper subset of 0..rank and so of finite type."""
    gens = (i for i in perp_generators(rs, phi) if include_zero or i)
    return parabolic_poincare(affine_cartan_matrix(rs), gens)


def coset_poincare(rs: RootSystem, phi: Root) -> Poly:
    """Length generating function of the minimal coset words.

    That it equals the quotient of the two wall-subgroup series is the
    `fiber_polynomials` check of `verify`, over every long positive root.
    """
    lengths = [len(w) for w in minimal_coset_reps(rs, phi)]
    return poly([lengths.count(k) for k in range(lengths[-1] + 1)])
