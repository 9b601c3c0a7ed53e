"""Affine Weyl machinery in the rho-scaled picture.

Letters 0..rank name the affine generators; letter 0 reflects in the wall
where the pairing with theta-check equals the dual Coxeter number g, so

    s_0(x) = s_theta(x) + g * theta,      s_0(rho) = rho + theta.

With this scaling every generator preserves the lattice spanned by the
simple roots.  rho lies strictly inside the g-scaled fundamental alcove,
since <rho, alpha_i-check> = 1 > 0 and <rho, theta-check> = g - 1 < g, so
an element w is determined by its rho-point w(rho).  Construction
identifies elements by rho-point and moves one point, or the rank + 1
images of the affine simple roots, one letter at a time with vector
actions.  An integer matrix plus an integer translation vector
(AffineElement) is built only when a caller asks for the full affine map,
from the images of the basis and of the origin.

Minimal coset words of a root's wall subgroup come from an orbit walk in
extended Dynkin labels (a point's pairings with beta_0, ..., beta_rank),
where s_j subtracts label j times column j of the affine Cartan matrix.

Affine roots are (finite root, level) pairs; the extra simple root is
(-theta, 1).  Positive means level > 0, or level 0 with positive finite
part.

The fundamental alcove A has vertices 0 and covee_i / n_i (n_i the marks);
the doubled alcove 2A is cut out by dominance together with (x|theta) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .qpoly import Poly, poly
from .root_system import Q, Root, RootSystem, WeightVector, vadd, vneg, vscale, vsub
from .weyl import (
    carry_images,
    check_letters,
    mat_mul,
    mat_vec,
    matrix_of,
    parabolic_poincare,
    reflect_simple,
)

AffineWord = Tuple[int, ...]


@dataclass(frozen=True)
class AffineRoot:
    finite: Root
    level: int

    @property
    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return sum(self.finite) > 0 and all(c >= 0 for c in self.finite)

    def __str__(self) -> str:
        return f"({self.finite}, {self.level})"


@dataclass(frozen=True)
class AffineElement:
    """x -> matrix @ x + shift, with integer entries throughout."""

    matrix: Tuple[Tuple[int, ...], ...]
    shift: Tuple[int, ...]

    def __call__(self, vec: Sequence) -> tuple:
        return vadd(mat_vec(self.matrix, vec), self.shift)

    def compose(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(
            mat_mul(self.matrix, other.matrix),
            vadd(mat_vec(self.matrix, other.shift), self.shift),
        )


@lru_cache(maxsize=None)
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


def reflect_theta(rs: RootSystem, vec: Sequence) -> tuple:
    """s_theta(vec), with <vec, theta-check> read off row 0 of the affine
    Cartan matrix: <alpha_j, theta-check> = -a_0j."""
    row = affine_cartan_matrix(rs)[0]
    c = -sum(a * x for a, x in zip(row[1:], vec) if a)
    return tuple(x - c * t for x, t in zip(vec, rs.theta))


def linear_reflect(rs: RootSystem, i: int, vec: Sequence) -> tuple:
    """The linear part of generator i: s_theta for letter 0, s_i otherwise."""
    return reflect_theta(rs, vec) if i == 0 else reflect_simple(rs, i, vec)


def affine_reflect(rs: RootSystem, i: int, vec: Sequence) -> tuple:
    """Generator i acting on a point: s_0(x) = s_theta(x) + g theta."""
    if i == 0:
        return vadd(reflect_theta(rs, vec), vscale(rs.dual_coxeter_number, rs.theta))
    return reflect_simple(rs, i, vec)


def rho_shift(rs: RootSystem, word: Sequence[int]) -> Root:
    """w(rho) - rho for the element named by the word, in integers, one
    letter at a time: s_i(rho + y) = rho + s_i(y) - alpha_i and
    s_0(rho + y) = rho + s_theta(y) + theta."""
    check_letters(rs, word, 0)
    shift = (0,) * rs.rank
    for i in reversed(word):
        if i == 0:
            shift = vadd(reflect_theta(rs, shift), rs.theta)
        else:
            shift = vsub(reflect_simple(rs, i, shift), rs.simple_root(i))
    return shift


def rho_point(rs: RootSystem, word: Sequence[int]) -> WeightVector:
    """w(rho) for the element named by the word."""
    return vadd(rs.rho, rho_shift(rs, word))


def element_of_affine_word(rs: RootSystem, word: Sequence[int]) -> AffineElement:
    """The full affine map of the word: its linear part is the matrix of the
    letters' linear parts acting on the basis, rightmost first, and its
    shift is the image of the origin."""
    check_letters(rs, word, 0)

    def act(step, vec: Sequence) -> tuple:
        for i in reversed(word):
            vec = step(rs, i, vec)
        return vec

    return AffineElement(matrix_of(rs.rank, lambda e: act(linear_reflect, e)),
                         act(affine_reflect, (0,) * rs.rank))


def inverse_word(word: Sequence[int]) -> AffineWord:
    return tuple(reversed(word))


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.theta), 1)
    return AffineRoot(rs.simple_root(i), 0)


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


def affine_length(rs: RootSystem, word: Sequence[int]) -> int:
    return len(affine_inversion_set(rs, word))


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
# alcoves

def fundamental_alcove_vertices(rs: RootSystem) -> Tuple[WeightVector, ...]:
    """Vertex i is covee_i / n_i; vertex 0 is the origin."""
    zero = tuple(Q(0) for _ in range(rs.rank))
    verts = [zero]
    for i in range(rs.rank):
        verts.append(vscale(Q(1, rs.marks[i]), rs.coweights[i]))
    return tuple(verts)


def alcove_vertices(rs: RootSystem, word_or_element) -> Tuple[WeightVector, ...]:
    """Images of the fundamental alcove's vertices; index = vertex type."""
    el = word_or_element if isinstance(word_or_element, AffineElement) else element_of_affine_word(rs, word_or_element)
    return tuple(el(v) for v in fundamental_alcove_vertices(rs))


def in_2A(rs: RootSystem, vec: Sequence) -> bool:
    """Dominant and on the origin side of the doubled theta-wall, read from
    the signs of <vec, alpha_i-check> and (vec|theta) <= 1 as raw_inner."""
    if any(rs.simple_coroot_pairing(vec, i) < 0 for i in range(1, rs.rank + 1)):
        return False
    return rs.raw_inner(vec, rs.theta) <= rs.form_den


def rho_shift_in_2A(rs: RootSystem, shift: Sequence[int]) -> bool:
    """`in_2A` at rho + shift, in integers: <rho, alpha_i-check> = 1, and
    (rho + shift|theta) <= 1 times 2 form_den."""
    return (all(1 + rs.simple_coroot_pairing(shift, i) >= 0 for i in range(1, rs.rank + 1))
            and rs.twice_raw_rho(rs.theta) + 2 * rs.raw_inner(shift, rs.theta) <= 2 * rs.form_den)


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


@lru_cache(maxsize=None)
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
