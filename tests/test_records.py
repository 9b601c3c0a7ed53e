"""The package's records: repr, equality, hash and immutability.

The plain records are `typing.NamedTuple`s and the ones that validate or
cache are `__slots__` classes on `root_system.Record`.  Each keeps the repr
and equality it had as a dataclass, and its hash is that of its field
tuple, so sets and dicts of records iterate in the same order.  Importing
the command line does not load `dataclasses`.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from abideal.affine import AffineRoot
from abideal.checks import CheckResult, TypeReport
from abideal.hasse import GroupFingerprint, HasseEdge, UpperAlcove
from abideal.ideals import CatalogEntry, MaxDimensionReport, SumFormulaReport, make_ideal
from abideal.root_system import SimpleType
from abideal.young import YoungDiagram

SRC = Path(__file__).resolve().parents[1] / "src"

IDEAL = make_ideal([(1, 1), (0, 1)])
RECORDS = [
    (SimpleType("B", 3), ("B", 3), "SimpleType(letter='B', rank=3)"),
    (IDEAL, (((0, 1), (1, 1)),), "AbelianIdeal(roots=((0, 1), (1, 1)))"),
    (CatalogEntry(IDEAL, (0, 1), (), (0, 1)), (IDEAL, (0, 1), (), (0, 1)),
     "CatalogEntry(ideal=AbelianIdeal(roots=((0, 1), (1, 1))), phi=(0, 1), "
     "coset_word=(), word=(0, 1))"),
    (MaxDimensionReport(5, 1, (1,), ((5, 2, 1, 5),)), (5, 1, (1,), ((5, 2, 1, 5),)),
     "MaxDimensionReport(value=5, multiplicity=1, witnesses=(1,), "
     "decompositions=((5, 2, 1, 5),))"),
    (SumFormulaReport("B3", 7, 7, (1, 5, 0), 4, 4), ("B3", 7, 7, (1, 5, 0), 4, 4),
     "SumFormulaReport(type_label='B3', first_total=7, first_expected=7, "
     "per_node=(1, 5, 0), second_total=4, second_expected=4)"),
    (AffineRoot((1, -1), 2), ((1, -1), 2), "AffineRoot(finite=(1, -1), level=2)"),
    (HasseEdge(0, 1, 2), (0, 1, 2), "HasseEdge(lower=0, upper=1, letter=2)"),
    (UpperAlcove(3, 1), (3, 1), "UpperAlcove(node=3, lower_vertex_type=1)"),
    (GroupFingerprint(2, True, (1, 2), 2), (2, True, (1, 2), 2),
     "GroupFingerprint(order=2, abelian=True, element_orders=(1, 2), center_order=2)"),
    (CheckResult("kostant", True), ("kostant", True, ""),
     "CheckResult(name='kostant', passed=True, details='')"),
    (TypeReport("A1", (CheckResult("x", False, "bad"),)), ("A1", (("x", False, "bad"),)),
     "TypeReport(label='A1', results=(CheckResult(name='x', passed=False, details='bad'),))"),
    (YoungDiagram((2, 1)), ((2, 1),), "YoungDiagram(rows=(2, 1))"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_record_repr_equality_and_hash(record, values, text):
    assert repr(record) == text
    twin = copy.copy(record)
    assert twin == record and not twin != record
    assert hash(record) == hash(twin) == hash(values)
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(record, values, text):
    name = text[text.index("(") + 1:text.index("=")]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value and repr(record) == text


def test_records_differ_on_any_field():
    assert SimpleType("B", 3) != SimpleType("C", 3)
    assert SimpleType("B", 3) != SimpleType("B", 4)
    assert SimpleType("B", 3) != ("B", 3)
    assert AffineRoot((1, 0), 1) != AffineRoot((1, 0), 0)
    assert AffineRoot((1, 0), 1) != ((1, 0), 1)
    assert IDEAL != make_ideal([(0, 1)])
    assert IDEAL != IDEAL.roots
    assert YoungDiagram((2, 1)) != YoungDiagram((2,))
    assert HasseEdge(0, 1, 2) != HasseEdge(0, 1, 1)
    assert CheckResult("kostant", True) != CheckResult("kostant", False)


def test_an_ideal_caches_its_root_set_outside_equality():
    a, b = make_ideal([(1, 1), (0, 1)]), make_ideal([(0, 1), (1, 1)])
    assert a.root_set is a.root_set == frozenset(a.roots)
    assert a == b and hash(a) == hash(b)
    assert (1, 1) in a and (1, 0) not in a
    assert make_ideal([(1, 1)]) <= a and not a <= make_ideal([(1, 1)])


def test_simple_types_are_ordered_by_letter_then_rank():
    types = [SimpleType("B", 3), SimpleType("A", 5), SimpleType("B", 2), SimpleType("A", 11)]
    assert sorted(types) == [SimpleType("A", 5), SimpleType("A", 11),
                             SimpleType("B", 2), SimpleType("B", 3)]
    assert SimpleType("A", 3) <= SimpleType("A", 3) < SimpleType("A", 4)
    assert SimpleType("E", 8) > SimpleType("D", 8) >= SimpleType("D", 8)
    with pytest.raises(TypeError):
        SimpleType("A", 3) < ("A", 4)


@pytest.mark.parametrize("letter, rank, message", [
    ("H", 3, "unknown family 'H'"),
    ("A", 12, "A12 is not supported (rank must be in [1, 11])"),
    ("D", 3, "D3 is not supported (rank must be in [4, 8])"),
    ("G", 3, "G3 is not supported (rank must be in [2, 2])"),
])
def test_simple_type_validation_messages(letter, rank, message):
    with pytest.raises(ValueError) as err:
        SimpleType(letter, rank)
    assert str(err.value) == message


@pytest.mark.parametrize("rows, message", [
    ((1, 2), "rows must be weakly decreasing"),
    ((2, 0), "rows must be positive"),
    ((-1,), "rows must be positive"),
])
def test_young_diagram_validation_messages(rows, message):
    with pytest.raises(ValueError) as err:
        YoungDiagram(rows)
    assert str(err.value) == message


def test_importing_the_cli_leaves_out_dataclasses():
    code = "import sys, abideal.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
