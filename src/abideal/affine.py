"""Affine Weyl machinery in the rho-scaled picture.

Letters 0..rank name the affine generators; letter 0 reflects in the wall
where the pairing with theta-check equals the dual Coxeter number g, so

    s_0(x) = s_theta(x) + g * theta,      s_0(rho) = rho + theta.

With this scaling every generator preserves the lattice spanned by the
simple roots.  rho lies strictly inside the g-scaled fundamental alcove,
since <rho, alpha_i-check> = 1 > 0 and <rho, theta-check> = g - 1 < g, so
an element w is determined by its rho-point w(rho).  Construction
identifies elements by rho-point and moves points and roots one letter at
a time with vector actions: the rho-point of w s_j is w(rho) minus the
finite part of the affine root w(beta_j).  Integer matrices plus integer
translation vectors (AffineElement) appear only where a full affine map is
applied to arbitrary points, such as alcove vertices.

Affine roots are (finite root, level) pairs; the extra simple root is
(-theta, 1).  Positive means level > 0, or level 0 with positive finite
part.

The fundamental alcove A has vertices 0 and covee_i / n_i (n_i the marks);
the doubled alcove 2A is cut out by dominance together with (x|theta) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .qpoly import Poly, poly, poly_prod
from .root_system import Q, Root, RootSystem, WeightVector, vadd, vneg, vscale, vsub
from .weyl import (
    classify_components,
    identity_matrix,
    mat_mul,
    mat_vec,
    matrix_of,
    reflect_simple,
    reflection_matrix,
    subgroup_poincare,
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


def reflect_theta(rs: RootSystem, vec: Sequence) -> Tuple[tuple, object]:
    """(s_theta(vec), <vec, theta-check>), the pairing read off row 0 of the
    affine Cartan matrix: <alpha_j, theta-check> = -a_0j."""
    row = affine_cartan_matrix(rs)[0]
    c = -sum(a * x for a, x in zip(row[1:], vec) if a)
    return tuple(x - c * t for x, t in zip(vec, rs.theta)), c


def affine_reflect(rs: RootSystem, i: int, vec: Sequence) -> tuple:
    """Generator i acting on a point: s_0(x) = s_theta(x) + g theta."""
    if i == 0:
        return vadd(reflect_theta(rs, vec)[0], vscale(rs.dual_coxeter_number, rs.theta))
    return reflect_simple(rs, i, vec)


def rho_shift(rs: RootSystem, word: Sequence[int]) -> Root:
    """w(rho) - rho for the element named by the word, in integers, one
    letter at a time: s_i(rho + y) = rho + s_i(y) - alpha_i and
    s_0(rho + y) = rho + s_theta(y) + theta."""
    for i in word:
        if not 0 <= i <= rs.rank:
            raise ValueError(f"letter {i} out of range 0..{rs.rank}")
    shift = (0,) * rs.rank
    for i in reversed(word):
        if i == 0:
            shift = vadd(reflect_theta(rs, shift)[0], rs.theta)
        else:
            shift = vsub(reflect_simple(rs, i, shift), rs.simple_root(i))
    return shift


def rho_point(rs: RootSystem, word: Sequence[int]) -> WeightVector:
    """w(rho) for the element named by the word."""
    return vadd(rs.rho, rho_shift(rs, word))


@lru_cache(maxsize=None)
def _generators(rs: RootSystem) -> Dict[int, AffineElement]:
    l = rs.rank
    gens = {0: AffineElement(matrix_of(l, lambda e: reflect_theta(rs, e)[0]),
                             vscale(rs.dual_coxeter_number, rs.theta))}
    for i in range(1, l + 1):
        gens[i] = AffineElement(reflection_matrix(rs, i), (0,) * l)
    return gens


def affine_generator(rs: RootSystem, i: int) -> AffineElement:
    gens = _generators(rs)
    if i not in gens:
        raise ValueError(f"letter {i} out of range 0..{rs.rank}")
    return gens[i]


def element_of_affine_word(rs: RootSystem, word: Sequence[int]) -> AffineElement:
    out = AffineElement(identity_matrix(rs.rank), (0,) * rs.rank)
    for i in word:
        out = out.compose(affine_generator(rs, i))
    return out


def inverse_word(word: Sequence[int]) -> AffineWord:
    return tuple(reversed(word))


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.theta), 1)
    return AffineRoot(rs.simple_root(i), 0)


def reflect_affine_root(rs: RootSystem, i: int, beta: AffineRoot) -> AffineRoot:
    """Action of generator i on affine roots: s_0 sends (x, k) to
    (s_theta(x), k + <x, theta-check>)."""
    if i == 0:
        finite, c = reflect_theta(rs, beta.finite)
        return AffineRoot(finite, beta.level + c)
    if not 1 <= i <= rs.rank:
        raise ValueError(f"letter {i} out of range 0..{rs.rank}")
    return AffineRoot(reflect_simple(rs, i, beta.finite), beta.level)


def apply_word_to_affine_root(rs: RootSystem, word: Sequence[int], beta: AffineRoot) -> AffineRoot:
    for i in reversed(word):
        beta = reflect_affine_root(rs, i, beta)
    return beta


def affine_inversion_set(rs: RootSystem, word: Sequence[int]) -> Tuple[AffineRoot, ...]:
    """One positive affine root per letter of a reduced word; errors on repeats."""
    seen: List[AffineRoot] = []
    prefix: List[int] = []
    for i in word:
        beta = apply_word_to_affine_root(rs, prefix, affine_simple_root(rs, i))
        if beta in seen:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {beta} repeats")
        if not beta.is_positive:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {beta} is negative")
        seen.append(beta)
        prefix.append(i)
    return tuple(seen)


def affine_length(rs: RootSystem, word: Sequence[int]) -> int:
    return len(affine_inversion_set(rs, word))


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


# ----------------------------------------------------------------------
# the subgroup fixing a root's walls, and its minimal coset words

def perp_generators(rs: RootSystem, phi: Root) -> Tuple[int, ...]:
    """Letters whose mirror contains phi: finite ones orthogonal to phi,
    plus 0 when theta is orthogonal to phi."""
    out = [0] if rs.raw_inner(rs.theta, phi) == 0 else []
    for i in range(1, rs.rank + 1):
        if rs.simple_coroot_pairing(phi, i) == 0:
            out.append(i)
    return tuple(sorted(out))


def _is_left_minimal(rs: RootSystem, shift: Sequence[int], finite_gens: Sequence[int]) -> bool:
    """No finite wall letter shortens the element from the left.

    `shift` is w(rho) - rho.  s_f w is longer than w exactly when w(rho)
    lies on the positive side of alpha_f's wall, that is when
    <rho + shift, alpha_f-check> = 1 + <shift, alpha_f-check> > 0.
    """
    return all(rs.simple_coroot_pairing(shift, f) >= 0 for f in finite_gens)


def minimal_coset_reps(rs: RootSystem, phi: Root) -> Tuple[AffineWord, ...]:
    """Minimal-length coset words for the finite part of the wall subgroup.

    Walk the subgroup generated by all perpendicular letters, extending on
    the right only when the length grows, and keep the words no finite
    perpendicular letter can shorten from the left.  Minimal words are
    closed under prefixes, so a layered walk finds them all.  Elements are
    told apart by their rho-points.  Ordered by (length, word); cached per
    root system instance and root.
    """
    return _minimal_coset_reps_cached(rs, tuple(phi))


@lru_cache(maxsize=None)
def _minimal_coset_reps_cached(rs: RootSystem, phi: Root) -> Tuple[AffineWord, ...]:
    if not rs.is_positive_root(phi):
        raise ValueError(f"{phi} is not a positive root")
    gens = perp_generators(rs, phi)
    finite_gens = tuple(i for i in gens if i != 0)
    reps: List[AffineWord] = [()]
    zero = (0,) * rs.rank
    seen = {zero}
    layer: List[Tuple[AffineWord, Root]] = [((), zero)]  # (word, w(rho) - rho)
    while layer:
        nxt: List[Tuple[AffineWord, Root]] = []
        for word, shift in layer:
            for j in gens:
                beta = apply_word_to_affine_root(rs, word, affine_simple_root(rs, j))
                if not beta.is_positive:
                    continue  # length would drop
                # (w s_j)(rho) = w(rho) - finite part of w(beta_j)
                cand = vsub(shift, beta.finite)
                if cand in seen or not _is_left_minimal(rs, cand, finite_gens):
                    continue
                seen.add(cand)
                nxt.append((word + (j,), cand))
        nxt.sort()
        reps.extend(word for word, _ in nxt)
        layer = nxt
    return tuple(reps)


def wall_subgroup_poincare(rs: RootSystem, phi: Root, include_zero: bool) -> Poly:
    """Exponent-product Poincare series of the wall subgroup of phi,
    with or without letter 0."""
    gens = perp_generators(rs, phi)
    if not include_zero:
        gens = tuple(i for i in gens if i != 0)
        return subgroup_poincare(rs, gens)
    cartan = affine_cartan_matrix(rs)
    comps = classify_components(gens, lambda a, b: cartan[a][b])
    return poly_prod(comp.poincare for comp in comps)


def coset_poincare(rs: RootSystem, phi: Root) -> Poly:
    """Length generating function of the minimal coset words.

    That it equals the quotient of the two wall-subgroup series is the
    `fiber_polynomials` check of `verify`, over every long positive root.
    """
    lengths = [len(w) for w in minimal_coset_reps(rs, phi)]
    return poly([lengths.count(k) for k in range(lengths[-1] + 1)])
