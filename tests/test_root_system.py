from fractions import Fraction as Q

import pytest

from abideal.ideals import make_ideal
from abideal.root_system import SimpleType, _symmetrizer, build, supported_types

from reference_impl import coroot_pairing, fundamental_weights, is_root, level, norm2, rho, vadd

# type: (dual coxeter number, coxeter number, positive roots, dimension)
GOLDEN = {
    "A1": (2, 2, 1, 3),
    "A5": (6, 6, 15, 35),
    "B3": (5, 6, 9, 21),
    "B8": (15, 16, 64, 136),
    "C4": (5, 8, 16, 36),
    "C8": (9, 16, 64, 136),
    "D4": (6, 6, 12, 28),
    "D8": (14, 14, 56, 120),
    "E6": (12, 12, 36, 78),
    "E7": (18, 18, 63, 133),
    "E8": (30, 30, 120, 248),
    "F4": (9, 12, 24, 52),
    "G2": (4, 6, 6, 14),
}

EXPONENTS = {
    "A4": (1, 2, 3, 4),
    "B4": (1, 3, 5, 7),
    "C5": (1, 3, 5, 7, 9),
    "D5": (1, 3, 4, 5, 7),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}

MARKS = {
    "A6": (1, 1, 1, 1, 1, 1),
    "B5": (1, 2, 2, 2, 2),
    "C5": (2, 2, 2, 2, 1),
    "D6": (1, 2, 2, 2, 1, 1),
    "E6": (2, 3, 2, 2, 1, 1),
    "E7": (2, 3, 4, 3, 2, 2, 1),
    "E8": (2, 3, 4, 5, 6, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_counts_and_numbers(label):
    g, h, num_pos, dim = GOLDEN[label]
    rs = build(label)
    assert rs.dual_coxeter_number == g
    assert rs.coxeter_number == h
    assert rs.num_positive == num_pos
    assert rs.dimension == dim


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_exponents(label):
    assert build(label).exponents == EXPONENTS[label]


@pytest.mark.parametrize("label", sorted(MARKS))
def test_marks_are_theta_coordinates(label):
    rs = build(label)
    assert rs.marks == MARKS[label]
    assert rs.theta == MARKS[label]


def test_supported_set():
    labels = [str(st) for st in supported_types(8)]
    assert len(labels) == 32
    assert labels[0] == "A1" and "E8" in labels and "G2" in labels
    # linear family reaches rank 11 for the diagram bridge
    assert str(SimpleType.parse("A11")) == "A11"
    with pytest.raises(ValueError):
        SimpleType.parse("B1")
    with pytest.raises(ValueError):
        SimpleType.parse("H4")


def test_normalization_identities(each_label):
    rs = build(each_label)
    g = rs.dual_coxeter_number
    # the scale is pinned by the highest-root norm
    assert norm2(rs, rs.theta) == Q(1, g)
    assert norm2(rs, vadd(rho(rs), rs.theta)) - norm2(rs, rho(rs)) == 1
    assert norm2(rs, rho(rs)) == Q(rs.dimension, 24)
    total = 2 * sum((norm2(rs, r) for r in rs.positive_roots), Q(0))
    assert total == rs.rank
    weighted = norm2(rs, rs.theta) + sum(
        (n * norm2(rs, rs.simple_root(i + 1)) for i, n in enumerate(rs.marks)), Q(0))
    assert weighted == 1


def test_theta_is_long_and_highest(each_label):
    rs = build(each_label)
    assert rs.is_long(rs.theta)
    top = max(sum(r) for r in rs.positive_roots)
    assert sum(rs.theta) == top
    assert level(rs, rs.theta) == 2


def test_root_membership(small_label):
    rs = build(small_label)
    for r in rs.positive_roots:
        assert rs.is_positive_root(r)
        assert is_root(rs, tuple(-c for c in r))
    assert not rs.is_positive_root((0,) * rs.rank)


def test_positive_roots_are_in_the_canonical_ideal_order(each_label):
    # from_param, ideal_of_young and the enumeration list roots in index order
    rs = build(each_label)
    assert make_ideal(rs.positive_roots).roots == rs.positive_roots


def test_coroot_pairing_integrality(small_label):
    rs = build(small_label)
    for r in rs.positive_roots:
        for i in range(1, rs.rank + 1):
            p = coroot_pairing(rs, r, rs.simple_root(i))
            assert p.denominator == 1
            assert int(p) == rs.simple_coroot_pairing(r, i)


def test_length_to_theta_on_long_roots(each_label):
    rs = build(each_label)
    g = rs.dual_coxeter_number
    values = sorted(int(rs.length_to_theta(phi)) for phi in rs.long_positive_roots())
    assert values[0] == 0                      # theta itself
    assert values[-1] == g - 2                # the long simple roots
    for phi in rs.long_positive_roots():
        v = rs.length_to_theta(phi)
        assert v.denominator == 1 and 0 <= int(v) <= g - 2


@pytest.mark.parametrize("method, vector", [("is_long", (1,)), ("length_to_theta", (1,)),
                                            ("length_to_theta", (1, 1, 5)), ("is_long", (1, 1, 5)),
                                            ("twice_raw_rho", (1, 0, 7)), ("twice_raw_rho", (1,))])
def test_wrong_length_vectors_are_rejected(method, vector):
    # zipped against theta and the form, a truncated or padded vector would
    # pass for theta; twice_raw_rho returned 2 on both, as for (1, 0)
    with pytest.raises(ValueError) as info:
        getattr(build("A2"), method)(vector)
    assert str(info.value) == f"vector {vector} has {len(vector)} coordinates, not rank 2"


@pytest.mark.parametrize("method, args, vector", [
    ("raw_inner", ((1,), (1,)), (1,)),
    ("raw_inner", ((1, 0), (1, 0, 7)), (1, 0, 7)),
    ("simple_coroot_pairing", ((1,), 1), (1,)),
])
def test_two_argument_readers_reject_wrong_length_vectors(method, args, vector):
    # zipped against the form or a Cartan row, each of these returned 2 on
    # A2, as for (1, 0)
    with pytest.raises(ValueError) as info:
        getattr(build("A2"), method)(*args)
    assert str(info.value) == f"vector {vector} has {len(vector)} coordinates, not rank 2"


def test_fundamental_weight_duality(small_label):
    rs = build(small_label)
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            pair = coroot_pairing(rs, fundamental_weights(rs)[i - 1], rs.simple_root(j))
            assert pair == (1 if i == j else 0)


@pytest.mark.parametrize("label", [str(st) for st in supported_types(11)])
def test_two_rho_is_twice_the_sum_of_the_fundamental_weights(label):
    # the package sums the positive roots; the reference inverts the Cartan matrix
    rs = build(label)
    assert tuple(2 * sum(col) for col in zip(*fundamental_weights(rs))) == rs.two_rho
    assert all(type(c) is int for c in rs.two_rho)


@pytest.mark.parametrize("label, d", [("A3", (1, 1, 1)), ("B3", (2, 2, 1)), ("C3", (1, 1, 2)),
                                      ("F4", (2, 2, 1, 1)), ("G2", (1, 3))])
def test_symmetrizer_is_minimal_and_integer(label, d):
    got = _symmetrizer(build(label).cartan)
    assert got == d and all(type(x) is int for x in got)


def test_symmetrizer_rejects_a_disconnected_diagram():
    with pytest.raises(ValueError, match="not connected"):
        _symmetrizer(((2, 0), (0, 2)))
