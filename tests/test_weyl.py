import re

import pytest

from abideal.root_system import build
from abideal.qpoly import poly_degree, poly_eval_one
from abideal import weyl
from abideal.affine import affine_cartan_matrix
from abideal.weyl import (
    apply_word,
    element_of_word,
    identity_matrix,
    inversion_roots,
    length_of_element,
    minimal_word_to_theta,
    parabolic_poincare,
    reflect_simple,
    subgroup_poincare,
    weyl_poincare,
)

from reference_impl import mat_mul, rho, subgroup_order, weyl_order

ORDERS = {
    "A1": 2, "A4": 120, "A8": 362880,
    "B2": 8, "B5": 3840, "C6": 46080,
    "D4": 192, "D6": 23040,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
    "F4": 1152, "G2": 12,
}


@pytest.mark.parametrize("label", sorted(ORDERS))
def test_weyl_order(label):
    rs = build(label)
    assert weyl_order(rs) == ORDERS[label]
    assert poly_eval_one(weyl_poincare(rs)) == ORDERS[label]


def test_rightmost_letter_acts_first():
    rs = build("B3")
    v = rho(rs)
    word = (1, 3, 2)
    assert apply_word(rs, word, v) == reflect_simple(
        rs, 1, reflect_simple(rs, 3, reflect_simple(rs, 2, v)))


@pytest.mark.parametrize("letter", [0, -1, 4])
def test_apply_word_rejects_letters_outside_the_rank(letter):
    rs = build("A3")
    with pytest.raises(ValueError):
        apply_word(rs, (1, letter), (0, 0, 1))


@pytest.mark.parametrize("vector", [(1, 0), (1, 0, 0, 0), ()])
def test_apply_word_rejects_vectors_of_the_wrong_length(vector):
    # a short vector used to be read as its first coordinates: in A3,
    # apply_word(rs, [1], (1, 0)) gave (-1, 0)
    rs = build("A3")
    message = f"vector {vector} has {len(vector)} coordinates, not rank 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_word(rs, [1], vector)
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_word(rs, [], vector)


@pytest.mark.parametrize("matrix", [((1, 0), (0, 1)),
                                    ((1, 0, 0), (0, 1, 0)),
                                    ((1, 0, 0), (0, 1, 0), (0, 0)),
                                    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))])
def test_length_of_element_rejects_a_matrix_that_is_not_rank_by_rank(matrix):
    # the 2 by 2 identity used to have length 1 in A3
    rs = build("A3")
    with pytest.raises(ValueError, match="is not 3 by 3"):
        length_of_element(rs, matrix)
    assert length_of_element(rs, element_of_word(rs, (1, 2))) == 2


@pytest.mark.parametrize("label", ["A1", "A3", "E8"])
def test_element_of_word_rejects_letters_before_any_work(monkeypatch, label):
    rs = build(label)
    assert element_of_word(rs, ()) == identity_matrix(rs.rank)

    def no_work(rank):
        raise AssertionError("the matrix was started before the letters were checked")

    monkeypatch.setattr(weyl, "identity_matrix", no_work)
    for word in [(0,), (rs.rank + 1,), (-1,), (1, 0), [1, rs.rank + 1]]:
        bad = next(i for i in word if not 1 <= i <= rs.rank)
        with pytest.raises(ValueError) as info:
            element_of_word(rs, word)
        assert str(info.value) == f"letter {bad} out of range 1..{rs.rank}"


def test_reflection_touches_one_coordinate():
    rs = build("C4")
    v = (3, 5, 7, 11)
    for i in range(1, 5):
        w = reflect_simple(rs, i, v)
        assert all(w[k] == v[k] for k in range(4) if k != i - 1)
        # on a strictly dominant point the move is always proper
        moved = reflect_simple(rs, i, rho(rs))
        assert [k for k in range(4) if moved[k] != rho(rs)[k]] == [i - 1]


def test_involution_and_length(small_label):
    rs = build(small_label)
    for i in range(1, rs.rank + 1):
        m = element_of_word(rs, (i, i))
        assert m == identity_matrix(rs.rank)
        assert length_of_element(rs, element_of_word(rs, (i,))) == 1
    assert length_of_element(rs, identity_matrix(rs.rank)) == 0


def test_longest_length_is_positive_count(small_label):
    rs = build(small_label)
    # the length function is bounded by the number of positive roots,
    # attained by the longest element; find it greedily
    m = identity_matrix(rs.rank)
    length = 0
    improved = True
    while improved:
        improved = False
        for i in range(1, rs.rank + 1):
            cand = element_of_word(rs, (i,))
            nxt = mat_mul(cand, m)
            if length_of_element(rs, nxt) > length:
                m, length = nxt, length + 1
                improved = True
                break
    assert length == rs.num_positive


def test_inversion_roots_of_reduced_word(small_label):
    rs = build(small_label)
    for phi in rs.long_positive_roots():
        word = minimal_word_to_theta(rs, phi)
        inv = inversion_roots(rs, word)
        assert len(inv) == len(set(inv)) == len(word)
        assert all(rs.is_positive_root(r) for r in inv)
        assert length_of_element(rs, element_of_word(rs, word)) == len(word)


def test_minimal_word_reaches_theta(each_label):
    rs = build(each_label)
    for phi in rs.long_positive_roots():
        word = minimal_word_to_theta(rs, phi)
        assert apply_word(rs, word, phi) == rs.theta
        assert len(word) == int(rs.length_to_theta(phi))


def test_subgroup_order_and_positive_count():
    rs = build("B3")
    assert subgroup_order(rs, (1, 2)) == 6       # simply laced pair
    assert subgroup_order(rs, (2, 3)) == 8       # doubled bond pair
    assert subgroup_order(rs, (1, 2, 3)) == weyl_order(rs)
    assert poly_degree(subgroup_poincare(rs, (1, 2))) == 3
    assert poly_degree(subgroup_poincare(rs, (2, 3))) == 4
    assert subgroup_order(rs, ()) == 1
    assert poly_eval_one(subgroup_poincare(rs, (2, 3))) == 8


@pytest.mark.parametrize("node", ["zero", "rank + 1"])
def test_subgroup_series_reject_nodes_outside_the_rank(node):
    rs = build("B3")
    nodes = (1, 0 if node == "zero" else rs.rank + 1)
    with pytest.raises(ValueError):
        subgroup_poincare(rs, nodes)
    with pytest.raises(ValueError):
        subgroup_order(rs, nodes)


def test_subgroup_series_ignore_node_order_and_repeats():
    rs = build("F4")
    assert subgroup_poincare(rs, (3, 2, 3, 1, 2)) == subgroup_poincare(rs, (1, 2, 3))
    assert subgroup_order(rs, (4, 4, 3)) == subgroup_order(rs, (3, 4)) == 6


def test_parabolic_poincare_rejects_an_affine_diagram():
    # letters 0..rank together do not close to a finite root system, on
    # every call: the memo holds no answer for them.  Neither do two
    # hyperbolic rank-two blocks, though their determinant, 25, is positive
    rs = build("A2")
    hyperbolic = ((2, -3, 0, 0), (-3, 2, 0, 0), (0, 0, 2, -3), (0, 0, -3, 2))
    for cartan, nodes in ((affine_cartan_matrix(rs), "0, 1, 2"), (hyperbolic, "0, 1, 2, 3")):
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"nodes \[{nodes}\] do not span"):
                parabolic_poincare(cartan, range(len(cartan)))


def test_parabolic_poincare_is_memoized_by_the_submatrix():
    # the same node set of two systems names different matrices, and so
    # different series; equal submatrices share one
    a2, g2 = build("A2"), build("G2")
    assert poly_eval_one(parabolic_poincare(a2.cartan, (0, 1))) == 6
    assert poly_eval_one(parabolic_poincare(g2.cartan, (1, 0))) == 12
    e8 = build("E8")
    assert parabolic_poincare(e8.cartan, (1, 0)) == parabolic_poincare(a2.cartan, (0, 1))


def test_subgroup_poincare_matches_orbit_count(small_label):
    rs = build(small_label)
    nodes = tuple(range(1, rs.rank))
    walked = _reference_orbit_poincare(rs, nodes)
    assert subgroup_poincare(rs, nodes) == walked
    assert subgroup_order(rs, nodes) == sum(walked)


def test_exponent_product_matches_the_coset_walk_on_every_node_subset(each_label):
    rs = build(each_label)
    for mask in range(2 ** rs.rank):
        nodes = tuple(i for i in range(1, rs.rank + 1) if mask >> (i - 1) & 1)
        assert subgroup_poincare(rs, nodes) == weyl._orbit_poincare(rs, nodes), nodes


def _label_orbit_poincare(cartan, nodes):
    """Breadth-first walk of the orbit of the point with every Dynkin label
    1 under the Coxeter group of the Cartan submatrix on `nodes`, keeping
    every point seen.  The point has trivial stabilizer, so layer k holds
    the elements of length k."""
    sub = [[cartan[a][b] for b in nodes] for a in nodes]
    start = (1,) * len(nodes)
    seen = {start}
    layer = [start]
    counts = []
    while layer:
        counts.append(len(layer))
        nxt = []
        for point in layer:
            for j, c in enumerate(point):
                img = tuple(x - c * row[j] for x, row in zip(point, sub))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        layer = nxt
    return tuple(counts)


def test_exponent_product_matches_a_walk_on_every_affine_wall(small_label):
    rs = build(small_label)
    cartan = affine_cartan_matrix(rs)
    for mask in range(2 ** (rs.rank + 1) - 1):
        nodes = tuple(j for j in range(rs.rank + 1) if mask >> j & 1)
        assert parabolic_poincare(cartan, nodes) == _label_orbit_poincare(cartan, nodes), nodes


def _reference_orbit_poincare(rs, nodes):
    """Breadth-first walk of the rho orbit in simple-root coordinates,
    through reflect_simple, keeping every point seen."""
    seen = {rho(rs)}
    layer = [rho(rs)]
    counts = []
    while layer:
        counts.append(len(layer))
        nxt = []
        for vec in layer:
            for i in nodes:
                img = reflect_simple(rs, i, vec)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        layer = nxt
    return tuple(counts)


def test_orbit_walk_matches_reference_on_every_node_subset(small_label):
    rs = build(small_label)
    for mask in range(2 ** rs.rank):
        nodes = tuple(i for i in range(1, rs.rank + 1) if mask >> (i - 1) & 1)
        assert weyl._orbit_poincare(rs, nodes) == _reference_orbit_poincare(rs, nodes), nodes


@pytest.mark.parametrize("label", ["B4", "D4", "F4"])
def test_orbit_walk_matches_reference_on_full_group(label):
    rs = build(label)
    nodes = tuple(range(1, rs.rank + 1))
    walked = weyl._orbit_poincare(rs, nodes)
    assert walked == _reference_orbit_poincare(rs, nodes)
    assert poly_eval_one(walked) == weyl_order(rs)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_coset_walk_of_the_whole_group_equals_the_exponent_product(label):
    # groups of order 2903040 and 696729600, far beyond a whole-orbit walk
    rs = build(label)
    nodes = tuple(range(1, rs.rank + 1))
    walked = weyl._orbit_poincare(rs, nodes)
    assert walked == weyl_poincare(rs)
    assert poly_eval_one(walked) == ORDERS[label]
