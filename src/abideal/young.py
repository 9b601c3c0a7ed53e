"""Young-diagram bridge for the type-A abelian-ideal poset.

In type A_l the positive roots form a staircase grid: the root
alpha_a + ... + alpha_b occupies row l+1-b, column a, so the highest
root sits in the top-left corner, the simple root alpha_l at the top
right and alpha_1 at the bottom left.  Abelian ideals are exactly the
left-justified corner shapes, i.e. Young diagrams whose largest hook
(first row plus first column minus one) has at most l cells.

Each diagram is encoded by walking its rim from the bottom-left end to
the top-right end and emitting one bit per rim cell, most significant
first: 1 when the cell is the bottom of its column, 0 otherwise.  The
code of the empty diagram is 0 and the map is a bijection onto [0, 2^l).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from .root_system import Record, Root, RootSystem, system_cache

if TYPE_CHECKING:
    from .ideals import AbelianIdeal


class YoungDiagram(Record):
    """A partition, as its weakly decreasing positive row lengths; any
    iterable of rows is stored as a tuple."""

    __slots__ = _fields = ("rows",)
    rows: Tuple[int, ...]

    def __init__(self, rows: Iterable[int]) -> None:
        rows = tuple(rows)
        if any(r <= 0 for r in rows):
            raise ValueError("rows must be positive")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError("rows must be weakly decreasing")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def max_hook(self) -> int:
        if not self.rows:
            return 0
        return self.rows[0] + len(self.rows) - 1

    @property
    def column_heights(self) -> Tuple[int, ...]:
        """The conjugate partition: row i's cells past the rows below are columns of height i."""
        heights: List[int] = []
        for i in range(len(self.rows), 0, -1):
            heights += [i] * (self.rows[i - 1] - len(heights))
        return tuple(heights)


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def young_lattice(n: int) -> Tuple[YoungDiagram, ...]:
    """All diagrams with largest hook at most n-1, in code order."""
    _check_size(n)
    return tuple(young_decode(code, n) for code in range(1 << (n - 1)))


def young_encode(d: YoungDiagram, n: int) -> int:
    """Rim code of d as a member of Y_n (largest hook at most n-1).

    Column c of height h contributes a 1 for its bottom cell followed by
    h - h' zeros, h' the next column's height (1 after the last column),
    so each column is one shift.  The rim has max_hook cells in all, so
    codes fit in n-1 bits."""
    _check_size(n)
    if d.max_hook > n - 1:
        raise ValueError(f"hook {d.max_hook} exceeds {n - 1}")
    heights = d.column_heights
    code = 0
    for h, nxt in zip(heights, heights[1:] + (1,)):
        code = (code << 1 | 1) << (h - nxt)
    return code


def young_decode(code: int, n: int) -> YoungDiagram:
    """The diagram of a rim code, in one pass over its bits from the low
    (top-right) end.  There each 0 climbs one row and each 1 closes a
    column one cell taller than the climb so far, so the columns come
    shortest first; the rows are their conjugate.  While `width` columns
    remain, counting the one just closed, every row up to its height is
    `width` cells long."""
    _check_size(n)
    if not 0 <= code < (1 << (n - 1)):
        raise ValueError(f"code {code} out of range for n={n}")
    rows: List[int] = []
    width, height = code.bit_count(), 1
    while code:
        if code & 1:
            rows += [width] * (height - len(rows))
            width -= 1
        else:
            height += 1
        code >>= 1
    return YoungDiagram(rows)


def _staircase_rank(rs: RootSystem) -> int:
    if rs.simple_type.letter != "A":
        raise ValueError("the staircase picture requires type A")
    return rs.rank


@system_cache
def _staircase_cells(rs: RootSystem) -> Dict[Root, Tuple[int, int]]:
    """Each positive root of A_l with its row (0-based) and its column's
    bit: the root with h ones from coordinate c (0-based) is alpha_{c+1} +
    ... + alpha_{c+h}, in row l+1-c-h (1-based), column c+1."""
    l = rs.rank
    return {root: (l - root.index(1) - root.count(1), 1 << root.index(1))
            for root in rs.positive_roots}


def young_of_ideal(rs: RootSystem, a: AbelianIdeal) -> YoungDiagram:
    """The diagram of an ideal's cells, in one pass over its roots, each
    root's row and column read off `_staircase_cells`; the cells are a
    left-justified shape exactly when the non-empty rows come first and
    each row's mask is a run of low bits, its cell count long."""
    l = _staircase_rank(rs)
    cells = _staircase_cells(rs)
    rows = [0] * l
    for root in a.roots:
        cell = cells.get(tuple(root))
        if cell is None:
            raise ValueError(f"{tuple(root)} is not a positive root of {rs.simple_type}")
        rows[cell[0]] |= cell[1]
    widths = [m.bit_count() for m in rows if m]
    d = YoungDiagram(widths)
    if rows != [(1 << w) - 1 for w in widths] + [0] * (l - len(widths)):
        raise ValueError("ideal cells are not a left-justified shape")
    return d


def ideal_of_young(rs: RootSystem, d: YoungDiagram) -> AbelianIdeal:
    """The ideal of a diagram's cells.  Row r+1 (0-based r) holds the roots
    ending at alpha_{l-r}, so its roots share the tail of r zeros, and
    column c+1 drops the first c ones: one slice per cell.  The roots are
    distinct, and root index order is the canonical order."""
    from .ideals import AbelianIdeal
    l = _staircase_rank(rs)
    if d.max_hook > l:
        raise ValueError(f"hook {d.max_hook} exceeds {l}")
    roots = []
    for r, width in enumerate(d.rows):
        tail = (1,) * (l - r) + (0,) * r
        roots += [(0,) * c + tail[c:] for c in range(width)]
    return AbelianIdeal(tuple(sorted(roots, key=rs.root_index.__getitem__)))
