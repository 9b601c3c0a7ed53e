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

from typing import TYPE_CHECKING, Iterable, List, Tuple

from .root_system import Record, RootSystem

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
        if not self.rows:
            return ()
        return tuple(sum(1 for r in self.rows if r > c) for c in range(self.rows[0]))


def young_lattice(n: int) -> Tuple[YoungDiagram, ...]:
    """All diagrams with largest hook at most n-1, in code order."""
    return tuple(young_decode(code, n) for code in range(1 << (n - 1)))


def young_encode(d: YoungDiagram, n: int) -> int:
    """Rim code of d as a member of Y_n (largest hook at most n-1).

    Column c of height h contributes a 1 for its bottom cell followed by
    h - max(h', 1) zeros, h' the next column's height; the rim has
    max_hook cells in all, so codes fit in n-1 bits.
    """
    if d.max_hook > n - 1:
        raise ValueError(f"hook {d.max_hook} exceeds {n - 1}")
    heights = d.column_heights
    bits: List[int] = []
    for i, h in enumerate(heights):
        nxt = heights[i + 1] if i + 1 < len(heights) else 1
        bits.append(1)
        bits.extend([0] * (h - nxt))
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


def young_decode(code: int, n: int) -> YoungDiagram:
    """The diagram of a rim code, in one pass over its bits from the low
    (top-right) end.  There each 0 climbs one row and each 1 closes a
    column one cell taller than the climb so far, so the columns come
    shortest first; the rows are their conjugate.  While `width` columns
    remain, counting the one just closed, every row up to its height is
    `width` cells long."""
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


def young_of_ideal(rs: RootSystem, a: AbelianIdeal) -> YoungDiagram:
    if rs.simple_type.letter != "A":
        raise ValueError("the staircase picture requires type A")
    l = rs.rank
    cells = set()
    for root in a.roots:
        if not rs.is_positive_root(root):
            raise ValueError(f"{tuple(root)} is not a positive root of {rs.simple_type}")
        support = [i for i, c in enumerate(root) if c]
        first, last = support[0] + 1, support[-1] + 1
        cells.add((l + 1 - last, first))
    rows: List[int] = []
    for r in range(1, l + 1):
        width = sum(1 for (row, _col) in cells if row == r)
        if width:
            rows.append(width)
    d = YoungDiagram(rows)
    shape_cells = {(r + 1, c + 1) for r, width in enumerate(d.rows) for c in range(width)}
    if shape_cells != cells:
        raise ValueError("ideal cells are not a left-justified shape")
    return d


def ideal_of_young(rs: RootSystem, d: YoungDiagram) -> AbelianIdeal:
    from .ideals import make_ideal
    if rs.simple_type.letter != "A":
        raise ValueError("the staircase picture requires type A")
    l = rs.rank
    if d.max_hook > l:
        raise ValueError(f"hook {d.max_hook} exceeds {l}")
    roots = []
    for r, width in enumerate(d.rows, start=1):
        for c in range(1, width + 1):
            first, last = c, l + 1 - r
            roots.append(tuple(1 if first - 1 <= i <= last - 1 else 0
                               for i in range(l)))
    return make_ideal(roots)
