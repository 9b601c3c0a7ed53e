"""Output checkers that compute their own answers.

Nothing here imports abideal.  Each checker rebuilds what it needs from the
Dynkin diagrams of docs/diagrams.md (Cartan entries a[i][j] = <alpha_j,
alpha_i-check>, nodes numbered as there) and from closed forms, then compares
the program's text, JSON or DOT against it.  A checker returns None when the
output is right and raises CheckFailed, with the reason, when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Root = Tuple[int, ...]
Ideal = FrozenSet[Root]

# The 16 checks `verify` runs on every type; type A adds young_bridge.
CHECK_NAMES = (
    "normalization", "ideal_count", "kostant", "parametrization",
    "forbidden_roots", "word_table", "fiber_polynomials", "theta_quotient",
    "first_sum", "second_sum", "max_dimension", "maximal_ideals",
    "hasse_covers", "hasse_automorphisms", "upper_alcoves", "facet_ratios",
)

_RANKS = {"A": (1, 11), "B": (2, 8), "C": (2, 8), "D": (4, 8),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}


class CheckFailed(Exception):
    """An output disagrees with the independently computed answer."""


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def types_up_to(max_rank: int) -> List[str]:
    """Every supported label of rank at most max_rank, family by family."""
    return [f"{f}{l}" for f, (lo, hi) in _RANKS.items()
            for l in range(lo, min(hi, max_rank) + 1)]


# ----------------------------------------------------------------------
# root systems from the Dynkin diagrams

_E_BONDS = {6: ((5, 3), (3, 2), (2, 4), (4, 6), (2, 1)),
            7: ((1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (6, 7)),
            8: ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8))}


def cartan_matrix(label: str) -> List[List[int]]:
    """Bonds (i, j, a_ij, a_ji), with the -2 or -3 in the short root's row."""
    family, l = label[0], int(label[1:])
    chain = [(i, i + 1, -1, -1) for i in range(1, l)]
    if family == "A":
        bonds = chain
    elif family == "B":            # node l short
        bonds = chain[:-1] + [(l - 1, l, -1, -2)]
    elif family == "C":            # node l long
        bonds = chain[:-1] + [(l - 1, l, -2, -1)]
    elif family == "D":
        bonds = chain[:-2] + [(l - 2, l - 1, -1, -1), (l - 2, l, -1, -1)]
    elif family == "E":
        bonds = [(i, j, -1, -1) for i, j in _E_BONDS[l]]
    elif family == "F":            # nodes 3, 4 short
        bonds = [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    elif family == "G":            # node 1 short
        bonds = [(1, 2, -3, -1)]
    else:
        raise ValueError(f"unknown family in {label!r}")
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j, aij, aji in bonds:
        a[i - 1][j - 1], a[j - 1][i - 1] = aij, aji
    return a


class Roots:
    """One root system, built as the Weyl orbit of the simple roots."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.cartan = a = cartan_matrix(label)
        self.rank = l = len(a)
        simples = [tuple(int(i == k) for k in range(l)) for i in range(l)]
        every = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(l):
                    img = self.reflect(i, beta)
                    if img not in every:
                        every.add(img)
                        nxt.append(img)
            frontier = nxt
        self.roots = frozenset(every)
        self.positive = sorted((r for r in every if min(r) >= 0), key=lambda r: (sum(r), r))
        self.positive_set = frozenset(self.positive)
        self.theta = self.positive[-1]

        # symmetrize: d_i a_ij = d_j a_ji, with d_i proportional to |alpha_i|^2
        d: List[Optional[Fraction]] = [None] * l
        d[0] = Fraction(1)
        while None in d:
            for i in range(l):
                for j in range(l):
                    if d[i] is not None and d[j] is None and a[i][j]:
                        d[j] = d[i] * a[i][j] / a[j][i]
        self._sym = [[d[i] * a[i][j] for j in range(l)] for i in range(l)]
        rho2 = [sum(r[k] for r in self.positive) for k in range(l)]   # 2 rho
        raw_tt = self._raw(self.theta, self.theta)
        self.dual_coxeter = int(self._raw(rho2, self.theta) / raw_tt) + 1
        self._scale = Fraction(1, self.dual_coxeter) / raw_tt
        self._rho = [Fraction(c, 2) for c in rho2]

    def pairing(self, beta: Sequence[int], i: int) -> int:
        """<beta, alpha_i-check>, 0-based node i."""
        return sum(b * c for b, c in zip(beta, self.cartan[i]))

    def reflect(self, i: int, beta: Sequence[int]) -> Root:
        out = list(beta)
        out[i] -= self.pairing(beta, i)
        return tuple(out)

    def _raw(self, x: Sequence, y: Sequence) -> Fraction:
        return sum((x[i] * self._sym[i][j] * y[j] for i in range(self.rank)
                    for j in range(self.rank) if x[i] and y[j]), Fraction(0))

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        """Invariant form scaled so that |theta|^2 = 1/g."""
        return self._scale * self._raw(x, y)

    def is_long(self, phi: Sequence[int]) -> bool:
        return self.inner(phi, phi) == self.inner(self.theta, self.theta)

    def long_positive(self) -> List[Root]:
        return [r for r in self.positive if self.is_long(r)]

    def exponents(self) -> List[int]:
        """Heights partition: the k-th exponent counts heights with >= k roots."""
        hist: Dict[int, int] = {}
        for r in self.positive:
            hist[sum(r)] = hist.get(sum(r), 0) + 1
        return sorted(sum(1 for v in hist.values() if v >= k) for k in range(1, self.rank + 1))

    def is_abelian_ideal(self, roots) -> bool:
        """Positive, closed under adding simple roots, and sum-free."""
        chosen = {tuple(r) for r in roots}
        if not chosen <= self.positive_set:
            return False
        for psi in chosen:
            for i in range(self.rank):
                up = psi[:i] + (psi[i] + 1,) + psi[i + 1:]
                if up in self.positive_set and up not in chosen:
                    return False
            for other in chosen:
                if tuple(x + y for x, y in zip(psi, other)) in self.roots:
                    return False
        return True

    def ideals(self) -> List[Ideal]:
        """Every abelian ideal, by a top-down search over the roots."""
        order = sorted(self.positive, key=lambda r: -sum(r))
        found: List[Ideal] = []

        def grow(k: int, chosen: List[Root]) -> None:
            if k == len(order):
                found.append(frozenset(chosen))
                return
            grow(k + 1, chosen)
            psi = order[k]
            covered = set(chosen)
            for i in range(self.rank):
                up = psi[:i] + (psi[i] + 1,) + psi[i + 1:]
                if up in self.positive_set and up not in covered:
                    return
            if any(tuple(x + y for x, y in zip(psi, o)) in self.roots for o in chosen + [psi]):
                return
            grow(k + 1, chosen + [psi])

        grow(0, [])
        return found

    def kostant_value(self, roots) -> Fraction:
        """|rho + <S>|^2 - |rho|^2."""
        s = [sum(r[k] for r in roots) for k in range(self.rank)]
        return 2 * self.inner(self._rho, s) + self.inner(s, s)

    def weyl_length(self, word: Sequence[int]) -> int:
        """Number of positive roots the product s_{w1}...s_{wk} sends negative."""
        count = 0
        for beta in self.positive:
            img = beta
            for i in reversed(word):
                img = self.reflect(i - 1, img)
            count += max(img) <= 0
        return count

    def distance_to_theta(self, phi: Root) -> int:
        """Fewest simple reflections carrying phi to theta."""
        dist = {tuple(phi): 0}
        frontier = [tuple(phi)]
        while self.theta not in dist:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    img = self.reflect(i, beta)
                    if img not in dist:
                        dist[img] = dist[beta] + 1
                        nxt.append(img)
            expect(bool(nxt), f"{phi} does not reach theta")
            frontier = nxt
        return dist[self.theta]


@lru_cache(maxsize=None)
def roots_of(label: str) -> Roots:
    return Roots(label)


@lru_cache(maxsize=None)
def ideals_of(label: str) -> FrozenSet[Ideal]:
    return frozenset(roots_of(label).ideals())


# ----------------------------------------------------------------------
# closed forms

def num_positive(label: str) -> int:
    f, l = label[0], int(label[1:])
    return {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(l), "F": 24, "G": 6}[f]


def dual_coxeter(label: str) -> int:
    f, l = label[0], int(label[1:])
    return {"A": l + 1, "B": 2 * l - 1, "C": l + 1, "D": 2 * l - 2,
            "E": {6: 12, 7: 18, 8: 30}.get(l), "F": 9, "G": 4}[f]


def malcev_max(label: str) -> int:
    """Largest dimension of an abelian ideal (Malcev's table)."""
    f, l = label[0], int(label[1:])
    if f == "A":
        return (l + 1) ** 2 // 4
    if f == "B":
        return {2: 3, 3: 5}.get(l, l * (l - 1) // 2 + 1)
    if f == "C":
        return l * (l + 1) // 2
    if f == "D":
        return l * (l - 1) // 2
    return {"E6": 16, "E7": 27, "E8": 36, "F4": 9, "G2": 3}[label]


# ----------------------------------------------------------------------
# CLI outputs

def check_info(text: str, label: str) -> None:
    rows = {}
    for line in text.splitlines():
        key, _, value = line.rpartition("  ")
        rows[key.strip()] = value.strip()
    rs = roots_of(label)
    want = {
        "type": label,
        "rank": str(rs.rank),
        "dimension": str(rs.rank + 2 * len(rs.positive)),
        "positive roots": str(num_positive(label)),
        "long positive roots": str(len(rs.long_positive())),
        "dual coxeter number": str(dual_coxeter(label)),
        "exponents": " ".join(map(str, rs.exponents())),
        "highest root": "".join(map(str, rs.theta)),
        "abelian ideals": str(2 ** rs.rank),
        "max ideal dimension": str(malcev_max(label)),
    }
    for key, value in want.items():
        expect(rows.get(key) == value, f"info {label}: {key} is {rows.get(key)!r}, expected {value!r}")


def check_ideals_json(text: str, label: str) -> List[Ideal]:
    """Returns the ideals in the printed order, for the DOT checker."""
    rs = roots_of(label)
    doc = json.loads(text)
    entries = doc["ideals"]
    expect(doc["count"] == len(entries) == 2 ** rs.rank,
           f"{label}: {doc['count']} ideals listed, expected 2^{rs.rank}")
    out: List[Ideal] = []
    for k, e in enumerate(entries):
        roots = frozenset(tuple(r) for r in e["roots"])
        expect(len(roots) == len(e["roots"]) == e["dim"], f"{label} ideal {k}: dim disagrees with its roots")
        expect(rs.is_abelian_ideal(roots), f"{label} ideal {k} is not upward-closed and sum-free")
        if e["dim"]:
            phi, word = tuple(e["param"]["phi"]), e["param"]["coset_word"]
            expect(phi in rs.positive_set and rs.is_long(phi), f"{label} ideal {k}: phi is not a long root")
            expect(tuple(e["assoc_long_root"]) == phi, f"{label} ideal {k}: associated root is not phi")
            expect(e["dim"] == 1 + rs.distance_to_theta(phi) + len(word),
                   f"{label} ideal {k}: dim is not the parameter-word length")
        out.append(roots)
    expect(set(out) == ideals_of(label), f"{label}: the listed ideals are not the abelian ideals")
    expect(max(len(a) for a in out) == malcev_max(label), f"{label}: maximum dimension is not Malcev's")
    return out


def check_dot(text: str, label: str, ideals: Sequence[Ideal]) -> None:
    """Nodes carry the dims of `ideals`; edges are exactly the one-root covers."""
    rank = int(label[1:])
    dims: Dict[int, int] = {}
    edges = set()
    for line in text.splitlines():
        line = line.strip()
        if " -- " in line:
            ends, _, attrs = line.partition(" [")
            lo, hi = (int(x) for x in ends.split(" -- "))
            letter = int(attrs.split('"')[1])
            expect(0 <= letter <= rank, f"{label}: edge letter {letter} out of 0..{rank}")
            edges.add((lo, hi))
        elif line[:1].isdigit():
            node, _, attrs = line.partition(" [")
            dims[int(node)] = int(attrs.split("dim=")[1].split(",")[0].rstrip("];"))
    expect(len(dims) == len(ideals) == 2 ** rank, f"{label}: {len(dims)} nodes, expected {2 ** rank}")
    for k, a in enumerate(ideals):
        expect(dims.get(k) == len(a), f"{label}: node {k} dim {dims.get(k)} != {len(a)}")
    index = {a: k for k, a in enumerate(ideals)}
    want = {(index[a - {r}], k) for k, a in enumerate(ideals) for r in a if a - {r} in index}
    for lo, hi in edges:
        expect(dims[hi] == dims[lo] + 1, f"{label}: edge {lo}--{hi} does not raise dim by one")
    expect(edges == want, f"{label}: {len(edges)} edges, {len(want)} one-root covers, "
                          f"{len(want - edges)} missing")


def check_verify(text: str, exit_code: int, labels: Sequence[str]) -> None:
    expect(exit_code == 0, f"verify exited {exit_code}")
    lines = text.splitlines()
    want: List[str] = []
    for label in labels:
        want.append(f"== {label} ==")
        want.extend(CHECK_NAMES + (("young_bridge",) if label[0] == "A" else ()))
    total = sum(1 for w in want if not w.startswith("=="))
    plural = "s" if len(labels) > 1 else ""
    expect(len(lines) == len(want) + 1, f"verify printed {len(lines)} lines, expected {len(want) + 1}")
    for got, name in zip(lines, want):
        if name.startswith("=="):
            expect(got == name, f"verify header {got!r}, expected {name!r}")
        else:
            expect(got.split()[:2] == [name, "PASS"], f"verify line {got!r}, expected {name} PASS")
    expect(lines[-1] == f"result: PASS ({total} checks over {len(labels)} type{plural})",
           f"verify summary {lines[-1]!r}")


def check_tables(text: str, max_rank: int) -> None:
    lines = text.splitlines()
    labels = types_up_to(max_rank)
    expect(len(lines) == 2 + len(labels), f"tables printed {len(lines)} lines")
    for line, label in zip(lines[2:], labels):
        cols = line.split()
        expect(len(cols) == 10 and cols[0] == label, f"tables row {line!r}, expected {label}")
        g1, roots, long_, top, mult = (int(c) for c in cols[1:6])
        sum1, sum2 = int(cols[8]), int(cols[9])
        l = int(label[1:])
        expect(g1 == dual_coxeter(label) - 1, f"{label}: g-1 {g1}")
        expect(roots == num_positive(label), f"{label}: {roots} positive roots")
        expect(long_ == len(roots_of(label).long_positive()), f"{label}: {long_} long roots")
        expect(top == malcev_max(label), f"{label}: max {top}, Malcev {malcev_max(label)}")
        g_minus_1, n_hat, n_perp = (int(x) for x in cols[6].replace("-", "+").split("+"))
        expect(g_minus_1 == g1 and g_minus_1 + n_hat - n_perp == top,
               f"{label}: decomposition {cols[6]} != {top}")
        expect(sum1 == 2 ** l - 1, f"{label}: sum1 {sum1} != 2^{l}-1")
        expect(sum2 == 2 ** (l - 1), f"{label}: sum2 {sum2} != 2^{l - 1}")
        expect(mult >= 1 and (label != "B4" or mult == 2), f"{label}: multiplicity {mult}")


def check_young_list(text: str, rank: int) -> None:
    lines = text.splitlines()
    expect(len(lines) == 2 ** rank, f"young {rank}: {len(lines)} lines, expected {2 ** rank}")
    shapes = set()
    for k, line in enumerate(lines):
        code, bits, shape = line.split()
        expect(int(code) == k and bits == format(k, f"0{rank}b"), f"young {rank}: line {k} has code {code} {bits}")
        rows = () if shape == "-" else tuple(int(r) for r in shape.split(","))
        expect(all(r > 0 for r in rows) and list(rows) == sorted(rows, reverse=True),
               f"young {rank}: {shape} is not a partition")
        expect(not rows or rows[0] + len(rows) - 1 <= rank, f"young {rank}: {shape} has hook above {rank}")
        shapes.add(rows)
    expect(len(shapes) == 2 ** rank, f"young {rank}: shapes repeat")


# ----------------------------------------------------------------------
# library queries (api_warm)

def check_query(query: dict, result: dict) -> None:
    rs = roots_of(query["type"])
    kind = query["kind"]
    if kind == "subset":
        roots = [tuple(r) for r in query["roots"]]
        ideal = rs.is_abelian_ideal(roots)
        value = Fraction(result["value"])
        expect(result["ideal"] == ideal, f"is_abelian_ideal says {result['ideal']}, expected {ideal}")
        expect(value == rs.kostant_value(roots), f"kostant_value {value} is wrong")
        expect((value == len(roots)) == ideal, f"Kostant's criterion fails: value {value}, size {len(roots)}")
    elif kind == "decode":
        phi = tuple(query["phi"])
        roots = [tuple(r) for r in result["roots"]]
        expect(tuple(result["assoc"]) == phi, f"associated root {result['assoc']} != {list(phi)}")
        expect(rs.is_abelian_ideal(roots), "decoded set is not an abelian ideal")
        expect(len(set(roots)) == 1 + rs.distance_to_theta(phi) + len(result["word"]),
               "decoded dimension is not the parameter-word length")
    elif kind == "weyl":
        word = query["word"]
        length = result["length"]
        expect(length % 2 == len(word) % 2, f"length {length} and word length {len(word)} differ in parity")
        expect(length == rs.weyl_length(word), f"length {length} != {rs.weyl_length(word)}")
    elif kind == "young":
        roots = frozenset(tuple(r) for r in query["roots"])
        shape = result["shape"]
        expect(result["decoded"] == shape, f"decode gave {result['decoded']}, expected {shape}")
        expect(frozenset(tuple(r) for r in result["back"]) == roots, "round trip changed the ideal")
        expect(0 <= result["code"] < 2 ** rs.rank, f"code {result['code']} out of range")
        expect(sum(shape) == len(roots) and (not shape or shape[0] + len(shape) - 1 <= rs.rank),
               f"shape {shape} does not fit the ideal")
    else:
        raise CheckFailed(f"unknown query kind {kind!r}")
