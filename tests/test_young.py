import pytest
from hypothesis import given, strategies as st

from abideal.ideals import enumerate_all, make_ideal
from abideal.root_system import build
from abideal.young import (
    YoungDiagram,
    ideal_of_young,
    young_decode,
    young_encode,
    young_lattice,
    young_of_ideal,
)


def test_diagram_validation():
    d = YoungDiagram((5, 4, 4, 4, 4, 3, 2))
    assert d.size == 26
    assert d.max_hook == 5 + 7 - 1
    assert d.column_heights == (7, 7, 6, 5, 1)
    with pytest.raises(ValueError):
        YoungDiagram((3, 4))          # not weakly decreasing
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))          # zero row


def test_diagram_stores_its_rows_as_a_tuple():
    # rows given as a list used to be stored as one, so hashing raised
    d = YoungDiagram([2, 1])
    assert d.rows == (2, 1) and type(d.rows) is tuple
    assert d == YoungDiagram((2, 1))
    assert hash(d) == hash(YoungDiagram((2, 1))) == hash(((2, 1),))
    assert YoungDiagram(r for r in (3, 3, 1)).rows == (3, 3, 1)


def test_golden_rim_code():
    d = YoungDiagram((5, 4, 4, 4, 4, 3, 2))
    code = young_encode(d, 12)
    assert format(code, "b") == "11010100001"
    assert code == 1697
    assert young_decode(1697, 12) == d


def test_empty_and_single_box():
    assert young_encode(YoungDiagram(()), 3) == 0
    single = young_encode(YoungDiagram((1,)), 3)
    assert single in (1, 2, 3)
    codes = {young_encode(d, 3) for d in young_lattice(3)}
    assert codes == {0, 1, 2, 3}


def test_lattice_sizes():
    for n in range(1, 9):
        assert len(young_lattice(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_encode_decode_roundtrip(n):
    for code in range(2 ** (n - 1)):
        assert young_encode(young_decode(code, n), n) == code


def test_hook_bound_enforced():
    with pytest.raises(ValueError):
        young_encode(YoungDiagram((4,)), 4)  # hook 4 > 3


@pytest.mark.parametrize("rank", range(1, 12))
def test_ideal_diagram_bijection(rank):
    rs = build(f"A{rank}")
    ideals = enumerate_all(rs)
    assert len(ideals) == 2 ** rank
    seen = set()
    for a in ideals:
        d = young_of_ideal(rs, a)
        assert d.rows == () or d.max_hook <= rank
        assert ideal_of_young(rs, d).root_set == a.root_set
        seen.add(young_encode(d, rank + 1))
    assert seen == set(range(2 ** rank))


def test_full_square_of_zero_and_theta():
    rs = build("A3")
    assert young_of_ideal(rs, make_ideal(())).rows == ()
    assert young_of_ideal(rs, make_ideal((rs.theta,))).rows == (1,)


def test_non_linear_type_rejected():
    rs = build("B3")
    with pytest.raises(ValueError):
        young_of_ideal(rs, make_ideal(()))


def test_cells_that_are_not_a_shape_are_rejected():
    # alpha_2 + alpha_3 is row 1, column 2, with no cell in column 1
    with pytest.raises(ValueError, match="^ideal cells are not a left-justified shape$"):
        young_of_ideal(build("A3"), make_ideal([(0, 1, 1)]))


def test_ideal_of_young_error_texts():
    with pytest.raises(ValueError, match="^the staircase picture requires type A$"):
        ideal_of_young(build("B3"), YoungDiagram((1,)))
    with pytest.raises(ValueError, match="^hook 4 exceeds 3$"):
        ideal_of_young(build("A3"), YoungDiagram((3, 1)))
    assert ideal_of_young(build("A3"), YoungDiagram((2, 1))).dim == 3


@pytest.mark.parametrize("n", [0, -1, -5])
def test_sizes_below_one_are_rejected_by_name(n):
    # 1 << (n - 1) once raised "negative shift count", and the encoder
    # said "hook 0 exceeds -1"
    text = f"^n must be at least 1, got {n}$"
    with pytest.raises(ValueError, match=text):
        young_lattice(n)
    with pytest.raises(ValueError, match=text):
        young_decode(0, n)
    with pytest.raises(ValueError, match=text):
        young_encode(YoungDiagram(()), n)
    with pytest.raises(ValueError, match=text):
        young_encode(YoungDiagram((3, 1)), n)


def test_size_one_keeps_its_texts():
    assert young_lattice(1) == (YoungDiagram(()),)
    assert young_decode(0, 1) == YoungDiagram(())
    assert young_encode(YoungDiagram(()), 1) == 0
    with pytest.raises(ValueError, match="^code 1 out of range for n=1$"):
        young_decode(1, 1)
    with pytest.raises(ValueError, match="^hook 1 exceeds 0$"):
        young_encode(YoungDiagram((1,)), 1)


@pytest.mark.parametrize("vector", [(1, 0, 1), (2, 2, 2), (1, 0)])
def test_vectors_that_are_not_roots_are_rejected(vector):
    # the first two once read as theta's cell, the diagram (1,)
    with pytest.raises(ValueError, match="is not a positive root of A3"):
        young_of_ideal(build("A3"), make_ideal([vector]))


rows_strategy = st.lists(st.integers(min_value=1, max_value=9), min_size=0,
                         max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True)))


@given(rows_strategy)
def test_roundtrip_random_shapes(rows):
    d = YoungDiagram(rows)
    n = d.max_hook + 1 if rows else 2
    assert young_decode(young_encode(d, n), n) == d
