"""The Fraction weights and form, and the matrix and Fraction picture of
the affine Weyl group, kept as references.

The package reads rho only as the integer 2 rho and the invariant form only
as the integer `raw_inner` over `form_den`.  Here the fundamental weights,
and rho as their sum, come from the Bareiss adjugate of the Cartan matrix,
a route independent of the positive roots, and the normalized form, its
norms, coroot pairings and levels are Fractions.

The package identifies an affine element by integer walls and rho-shifts and
never builds its full map.  The routines below build it: an integer matrix
plus an integer translation (`AffineElement`), composed by matrix products,
applied to Fraction points such as rho and the alcove vertices covee_i / n_i,
with the doubled alcove 2A tested on Fraction coordinates.  They also keep
the whole-word ideal of a parameter word, read off its affine inversion set,
and a few helpers the package no longer needs: the reflection s_theta,
the matrix of a linear action, finite reflection matrices, group orders,
polynomial sums and printing, the fiber extremes a_min, a_max and
a_min_plus, the roots of an ideal off theta's wall, sums and scalar
multiples of vectors, root membership and the coweights.  Tests compare the package's integer routines with these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Callable, Sequence, Tuple

from abideal.affine import (
    AffineRoot,
    AffineWord,
    affine_cartan_matrix,
    affine_inversion_set,
    minimal_coset_reps,
    rho_shift,
)
from abideal.ideals import AbelianIdeal, InvariantViolation, from_param, is_abelian_ideal, make_ideal
from abideal.qpoly import Poly, poly, poly_eval_one
from abideal.root_system import Root, RootSystem, bareiss, vneg, vsub
from abideal.weyl import (
    Matrix,
    check_letters,
    identity_matrix,
    inversion_roots,
    mat_vec,
    minimal_word_to_theta,
    reflect_simple,
    subgroup_poincare,
)


WeightVector = Tuple[Q, ...]


# ----------------------------------------------------------------------
# root system data

@lru_cache(maxsize=None)
def fundamental_weights(rs: RootSystem) -> Tuple[WeightVector, ...]:
    """w_i with <w_i, alpha_j-check> = delta_ij: the columns of the inverse
    Cartan matrix, the adjugate over the determinant."""
    det, adj = bareiss(rs.cartan)
    return tuple(tuple(Q(row[c], det) for row in adj) for c in range(rs.rank))


@lru_cache(maxsize=None)
def rho(rs: RootSystem) -> WeightVector:
    """The sum of the fundamental weights."""
    return tuple(sum(col) for col in zip(*fundamental_weights(rs)))


def inner(rs: RootSystem, x: Sequence, y: Sequence) -> Q:
    """Normalized invariant form (x|y)."""
    return Q(rs.raw_inner(x, y), rs.form_den)


def norm2(rs: RootSystem, x: Sequence) -> Q:
    return inner(rs, x, x)


def coroot_pairing(rs: RootSystem, lam: Sequence, phi: Sequence[int]) -> Q:
    """<lam, phi-check> = 2 (lam|phi) / (phi|phi)."""
    return Q(2 * rs.raw_inner(lam, phi), rs.raw_inner(phi, phi))


def level(rs: RootSystem, lam: Sequence) -> Q:
    """<lam, theta-check> = 2 g (lam|theta) under this normalization."""
    return coroot_pairing(rs, lam, rs.theta)


def vadd(x: Sequence, y: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def vscale(c, x: Sequence) -> tuple:
    return tuple(c * a for a in x)


def is_root(rs: RootSystem, v: Sequence[int]) -> bool:
    t = tuple(v)
    return t in rs.root_index or tuple(-c for c in t) in rs.root_index


def coweights(rs: RootSystem) -> Tuple[WeightVector, ...]:
    """covee_i = w_i / |alpha_i|^2 for the fundamental weights w_i."""
    return tuple(
        tuple(c / norm2(rs, rs.simple_root(i + 1)) for c in w)
        for i, w in enumerate(fundamental_weights(rs))
    )


# ----------------------------------------------------------------------
# finite Weyl group matrices and orders

def matrix_of(rank: int, action: Callable[[tuple], tuple]) -> Matrix:
    """Matrix of a linear vector action (columns are images of the basis)."""
    return tuple(zip(*map(action, identity_matrix(rank))))


def reflection_matrix(rs: RootSystem, i: int) -> Matrix:
    """Matrix of s_i on simple-root coordinates (columns are images)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"letter {i} out of range 1..{rs.rank}")
    return matrix_of(rs.rank, lambda e: reflect_simple(rs, i, e))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def subgroup_order(rs: RootSystem, nodes) -> int:
    return poly_eval_one(subgroup_poincare(rs, nodes))


def weyl_order(rs: RootSystem) -> int:
    return subgroup_order(rs, range(1, rs.rank + 1))


# ----------------------------------------------------------------------
# polynomials

def poly_add(p: Sequence[int], q: Sequence[int]) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def poly_str(p: Sequence[int]) -> str:
    p = poly(p)
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            if c == 1:
                parts.append(t)
            elif c == -1:
                parts.append(f"-{t}")
            else:
                parts.append(f"{c}{t}")
    return " + ".join(parts).replace("+ -", "- ")


# ----------------------------------------------------------------------
# affine elements as matrices

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


def rho_point(rs: RootSystem, word: Sequence[int]) -> WeightVector:
    """w(rho) for the element named by the word."""
    return vadd(rho(rs), rho_shift(rs, word))


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


def affine_length(rs: RootSystem, word: Sequence[int]) -> int:
    return len(affine_inversion_set(rs, word))


# ----------------------------------------------------------------------
# alcoves on Fraction points

def fundamental_alcove_vertices(rs: RootSystem) -> Tuple[WeightVector, ...]:
    """Vertex i is covee_i / n_i; vertex 0 is the origin."""
    zero = tuple(Q(0) for _ in range(rs.rank))
    covee = coweights(rs)
    verts = [zero]
    for i in range(rs.rank):
        verts.append(vscale(Q(1, rs.marks[i]), covee[i]))
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


# ----------------------------------------------------------------------
# ideals from whole parameter words

def ideal_from_affine_word(rs: RootSystem, word: AffineWord) -> AbelianIdeal:
    """Minus the finite parts of the word's level-one inversions, from the
    whole word's affine inversion set; the package reads the same ideal off
    the walls crossed one letter at a time (`ideals.cross_walls`)."""
    inv = affine_inversion_set(rs, word)
    roots = []
    for beta in inv:
        if beta.level != 1:
            raise InvariantViolation(
                f"inversion {beta} of parameter word {word} is not at level one")
        psi = vneg(beta.finite)
        if not rs.is_positive_root(psi):
            raise InvariantViolation(
                f"inversion {beta} of parameter word {word} has bad finite part")
        roots.append(psi)
    ideal = make_ideal(roots)
    if ideal.dim != len(word):
        raise InvariantViolation(f"parameter word {word} lost inversions")
    return ideal


def a_min(rs: RootSystem, phi: Root) -> AbelianIdeal:
    """Smallest ideal whose roots off theta's wall point at phi: theta
    together with theta minus each inversion of the whole word to theta;
    the package reads the same masks off its greedy chain, one alcove wall
    crossed per long root (`ideals._greedy_chain`)."""
    phi = tuple(phi)
    w = minimal_word_to_theta(rs, phi)
    roots = [rs.theta] + [vsub(rs.theta, psi) for psi in inversion_roots(rs, w)]
    ideal = make_ideal(roots)
    if ideal.dim != 1 + len(w):
        raise InvariantViolation(f"repeated roots in the minimal ideal of {phi}")
    return ideal


def not_perp_theta(rs: RootSystem, ideal: AbelianIdeal) -> AbelianIdeal:
    """The sub-ideal of roots not orthogonal to the highest root, by the
    form; the package reads the same roots off `perp_theta_mask`
    (`ideals._long_root_of_mask`)."""
    if not is_abelian_ideal(rs, ideal.roots):
        raise ValueError(f"{ideal.roots} is not an abelian ideal")
    return make_ideal(r for r in ideal.roots if rs.raw_inner(rs.theta, r) != 0)


def a_min_plus(rs: RootSystem, phi: Root) -> AbelianIdeal:
    """One step above a_min: defined when phi is orthogonal to theta."""
    phi = tuple(phi)
    if rs.raw_inner(rs.theta, phi) != 0:
        raise ValueError(f"{phi} is not orthogonal to the highest root")
    return from_param(rs, phi, (0,))


def a_max(rs: RootSystem, phi: Root) -> AbelianIdeal:
    """Largest ideal in phi's family: the unique longest coset word."""
    phi = tuple(phi)
    reps = minimal_coset_reps(rs, phi)
    top = max(len(w) for w in reps)
    longest = [w for w in reps if len(w) == top]
    if len(longest) != 1:
        raise InvariantViolation(f"no unique longest coset word for {phi}")
    return from_param(rs, phi, longest[0])
