import copy

import pytest

from abideal.root_system import build, supported_types

ALL_LABELS = tuple(str(st) for st in supported_types(8))
SMALL_LABELS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4")


def corrupted_gram_copy(label: str):
    """A root system whose integer invariant form has one entry doubled.

    The copy shares everything else with the cached instance, so only the
    checks that recompute inner products from the form notice.
    """
    rs = copy.copy(build(label))
    form = [list(row) for row in rs.form]
    form[0][0] *= 2
    rs.form = tuple(tuple(row) for row in form)
    return rs


@pytest.fixture(params=ALL_LABELS)
def each_label(request):
    return request.param


@pytest.fixture(params=SMALL_LABELS)
def small_label(request):
    return request.param
