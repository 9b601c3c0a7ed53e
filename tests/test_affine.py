from fractions import Fraction as Q

import pytest

from abideal.affine import (
    affine_inversion_set,
    coset_poincare,
    minimal_coset_reps,
    perp_generators,
    wall_subgroup_poincare,
)
from abideal.qpoly import poly, poly_divexact, poly_eval_one
from abideal.reference import REFERENCE_A5_MIDDLE_REPS
from abideal.root_system import build
from abideal.weyl import apply_word

from reference_impl import (
    affine_length,
    affine_simple_root,
    alcove_vertices,
    coweights,
    element_of_affine_word,
    fundamental_alcove_vertices,
    in_2A,
    inverse_word,
    level,
    rho,
    rho_point,
    vadd,
    vscale,
)


def test_zero_generator_adds_theta_to_rho(each_label):
    # the level-one wall reflection pushes the base point across by theta
    rs = build(each_label)
    assert element_of_affine_word(rs, (0,))(rho(rs)) == vadd(rho(rs), rs.theta)


def test_word_composes_left_to_right():
    rs = build("B3")
    x = rho(rs)
    w = (0, 2, 1, 0, 3)
    expect = x
    for i in reversed(w):
        expect = element_of_affine_word(rs, (i,))(expect)
    assert element_of_affine_word(rs, w)(x) == expect


def test_inverse_word_cancels():
    rs = build("C3")
    w = (0, 1, 2, 0, 3)
    e = element_of_affine_word(rs, w).compose(element_of_affine_word(rs, inverse_word(w)))
    assert e == element_of_affine_word(rs, ())


@pytest.mark.parametrize("letter", [-1, 4])
def test_rho_point_rejects_letters_outside_the_affine_rank(letter):
    rs = build("A3")
    with pytest.raises(ValueError):
        rho_point(rs, (0, letter))


def test_finite_letters_match_weyl_action():
    rs = build("D4")
    word = (2, 4, 1, 3)
    assert element_of_affine_word(rs, word)(rho(rs)) == apply_word(rs, word, rho(rs))


def test_zeroth_affine_root(each_label):
    rs = build(each_label)
    beta = affine_simple_root(rs, 0)
    assert beta.finite == tuple(-c for c in rs.theta)
    assert beta.level == 1
    for i in range(1, rs.rank + 1):
        assert affine_simple_root(rs, i).level == 0


def test_inversions_count_length(small_label):
    rs = build(small_label)
    words = [(0,), (0, 1), (1, 0), (0, 1, 0), tuple(range(rs.rank + 1))]
    for w in words:
        try:
            inv = affine_inversion_set(rs, w)
        except ValueError:
            continue  # not reduced in this type
        assert len(inv) == affine_length(rs, w)


def test_alcove_vertices_structure(each_label):
    rs = build(each_label)
    verts = fundamental_alcove_vertices(rs)
    assert len(verts) == rs.rank + 1
    assert verts[0] == (Q(0),) * rs.rank
    g = rs.dual_coxeter_number
    for i, v in enumerate(verts[1:], start=1):
        # the ceiling wall sits at pairing g in the scaled picture
        assert level(rs, v) == g
        assert coweights(rs)[i - 1] == vscale(Q(rs.marks[i - 1]), v)


def test_doubled_alcove_membership():
    rs = build("B3")
    verts = fundamental_alcove_vertices(rs)
    for v in verts:
        assert in_2A(rs, v)
        assert in_2A(rs, vscale(Q(2), v))
        if v != verts[0]:
            assert not in_2A(rs, vscale(Q(5, 2), v))
    moved = alcove_vertices(rs, (0,))
    assert all(in_2A(rs, v) for v in moved)
    far = alcove_vertices(rs, (0, 1, 0))
    assert not all(in_2A(rs, v) for v in far)


def test_middle_node_representatives_golden():
    rs = build("A5")
    reps = minimal_coset_reps(rs, rs.simple_root(3))
    assert reps == REFERENCE_A5_MIDDLE_REPS


def test_representatives_are_reduced_and_sorted(small_label):
    rs = build(small_label)
    for phi in rs.long_positive_roots():
        reps = minimal_coset_reps(rs, phi)
        assert reps == tuple(sorted(reps, key=lambda w: (len(w), w)))
        assert len(set(reps)) == len(reps)
        for w in reps:
            assert affine_length(rs, w) == len(w)
            assert all(i in perp_generators(rs, phi) for i in w)


def test_coset_poincare_counts_representatives(small_label):
    rs = build(small_label)
    for phi in rs.long_positive_roots():
        reps = minimal_coset_reps(rs, phi)
        hist = [0] * (max(len(w) for w in reps) + 1)
        for w in reps:
            hist[len(w)] += 1
        assert poly(hist) == coset_poincare(rs, phi)


def test_coset_poincare_divides_wall_group(small_label):
    rs = build(small_label)
    for phi in rs.long_positive_roots():
        full = wall_subgroup_poincare(rs, phi, include_zero=True)
        finite = wall_subgroup_poincare(rs, phi, include_zero=False)
        assert poly_divexact(full, finite) == coset_poincare(rs, phi)


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_linear_family_interval_reduction(rank):
    # the fiber of a length-(j+1) interval root equals the fiber of the
    # simple root at the interval's left end, one system down per extra node
    rs = build(f"A{rank}")
    for i in range(1, rank + 1):
        for j in range(0, rank - i + 1):
            phi = tuple(1 if i <= k + 1 <= i + j else 0 for k in range(rank))
            small = build(f"A{rank - j}")
            assert coset_poincare(rs, phi) == coset_poincare(small, small.simple_root(i))


@pytest.mark.parametrize("label", ["A3", "B3", "C4", "D4", "F4", "G2"])
def test_two_shell_identity(label):
    rs = build(label)
    g = rs.dual_coxeter_number
    shell = [0] * (2 * g - 2)
    for phi in rs.long_positive_roots():
        lv = int(rs.length_to_theta(phi))
        shell[lv] += 1
        shell[2 * g - 3 - lv] += 1
    perp = tuple(j for j in perp_generators(rs, rs.theta) if j != 0)
    from abideal.weyl import subgroup_poincare, weyl_poincare
    assert poly(shell) == poly_divexact(weyl_poincare(rs), subgroup_poincare(rs, perp))
