import copy
import random
from itertools import combinations, islice, permutations
from math import factorial, prod
from types import SimpleNamespace

import pytest

from abideal import affine, checks, hasse, ideals, weyl
from abideal.affine import perp_generators
from abideal.checks import check_kostant, check_normalization, check_upper_alcoves
from abideal.hasse import (
    HasseEdge,
    HasseGraph,
    UpperAlcove,
    build_graph,
    expected_facet_ratios,
    facet_volume_ratios,
    graph_automorphisms,
    hasse_automorphism_name,
    identify_group,
    to_dot,
    upper_alcoves,
    verify_cover_structure,
)
from abideal.ideals import InvariantViolation, IdealCatalog, catalog_of, long_simple_nodes
from abideal.qpoly import bracket, poly_mul
from abideal.reference import reference_hasse_group
from abideal.root_system import build, supported_types
from abideal.young import YoungDiagram

from conftest import SMALL_LABELS, corrupted_gram_copy
from reference_impl import alcove_vertices, element_of_affine_word, inner, inverse_word, vadd

A2_DOT = """graph hasse_A2 {
  node [shape=circle];
  0 [dim=0, rim="0"];
  1 [dim=1, rim="1"];
  2 [dim=2, rim="11"];
  3 [dim=2, rim="10"];
  0 -- 1 [label="0"];
  1 -- 2 [label="1"];
  1 -- 3 [label="2"];
}
"""

G2_DOT = """graph hasse_G2 {
  node [shape=circle];
  0 [dim=0];
  1 [dim=1];
  2 [dim=2];
  3 [dim=3];
  0 -- 1 [label="0"];
  1 -- 2 [label="2"];
  2 -- 3 [label="1"];
}
"""


def test_dot_golden_strings():
    assert to_dot(build_graph(build("A2"))) == A2_DOT
    assert to_dot(build_graph(build("G2"))) == G2_DOT


def test_node_count_and_cover_structure(small_label):
    graph = build_graph(build(small_label))
    assert graph.num_nodes == 2 ** graph.rs.rank
    verify_cover_structure(graph)


def test_edges_differ_by_one_generator(small_label):
    rs = build(small_label)
    graph = build_graph(rs)
    cat = graph.catalog
    for e in graph.edges:
        lo, hi = cat.entries[e.lower], cat.entries[e.upper]
        assert hi.ideal.dim == lo.ideal.dim + 1
        assert lo.ideal.root_set < hi.ideal.root_set
        hi_element = element_of_affine_word(rs, hi.word)
        step = element_of_affine_word(rs, inverse_word(lo.word)).compose(hi_element)
        assert step == element_of_affine_word(rs, (e.letter,))


def test_build_graph_rejects_walls_without_the_added_root(monkeypatch):
    # the zero ideal's walls lose beta_0 = (-theta, 1), the wall that the
    # edge up to {theta} crosses; a copy keeps the cached graph intact
    rs = copy.copy(build("A2"))
    cat = IdealCatalog(rs)
    cat.walls = (cat.walls[0][1:],) + cat.walls[1:]
    monkeypatch.setattr(hasse, "catalog_of", lambda rs: cat)
    with pytest.raises(InvariantViolation, match="do not differ by one reflection"):
        build_graph(rs)


def test_every_nonzero_node_has_a_lower_cover(small_label):
    graph = build_graph(build(small_label))
    downs = {e.upper for e in graph.edges}
    for k, a in enumerate(graph.catalog.ideals):
        if a.dim > 0:
            assert k in downs


def test_automorphism_names(each_label):
    rs = build(each_label)
    assert hasse_automorphism_name(rs) == reference_hasse_group(rs.simple_type)


def test_pentagon_symmetry_of_rank_four_lattice():
    # the 16-node lattice of the rank-4 linear type carries the symmetry
    # group of a pentagon
    perms = graph_automorphisms(build_graph(build("A4")))
    assert len(perms) == 10
    assert identify_group(perms) == "Dih_5"


def test_automorphisms_of_a_long_path():
    # deeper than the interpreter's recursion limit: identity and reversal
    n = 1100
    path = SimpleNamespace(adjacency=tuple(
        frozenset(u for u in (v - 1, v + 1) if 0 <= u < n) for v in range(n)))
    perms = graph_automorphisms(path)
    assert perms == (tuple(range(n)), tuple(reversed(range(n))))


def _graph(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return SimpleNamespace(adjacency=tuple(map(frozenset, adj)))


def _brute_force_automorphisms(adj):
    """Every permutation, in sorted order, that sends each edge to an edge;
    a bijection that keeps the edges keeps the non-edges too."""
    arcs = [(a, b) for a in range(len(adj)) for b in adj[a]]
    return tuple(p for p in permutations(range(len(adj)))
                 if all(p[b] in adj[p[a]] for a, b in arcs))


def _random_graph(seed):
    """A seeded graph on seed % 9 nodes, with an edge density from sparse
    (often edgeless or disconnected) to dense."""
    rng = random.Random(seed)
    n = seed % 9
    density = rng.choice((0.05, 0.15, 0.3, 0.5, 0.8))
    return _graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


_RANDOM_SEEDS = range(306)


@pytest.mark.parametrize("n", range(9))
def test_automorphisms_match_brute_force_on_random_graphs(n):
    for seed in _RANDOM_SEEDS[n::9]:
        graph = _random_graph(seed)
        assert graph_automorphisms(graph) == _brute_force_automorphisms(graph.adjacency), seed


def test_random_graphs_include_empty_disconnected_and_isolated_cases():
    graphs = [_random_graph(seed).adjacency for seed in _RANDOM_SEEDS]
    assert sum(1 for adj in graphs if not adj) >= 30
    assert sum(1 for adj in graphs if len(adj) > 1 and not any(adj)) >= 30
    disconnected = [adj for adj in graphs
                    if adj and any(adj) and len(weyl.graph_distances(adj, 0)) < len(adj)]
    assert len(disconnected) >= 50
    assert sum(1 for adj in disconnected if not all(adj)) >= 30


_CYCLE_SHAPES = ((3,), (4,), (5,), (6,), (7,), (8,), (3, 3), (3, 4), (3, 5), (4, 4))


@pytest.mark.parametrize("seed", range(40))
def test_automorphisms_of_shuffled_unions_of_cycles(seed):
    # m cycles of length L contribute the wreath product of Dih_L by Sym_m,
    # of order (2L)^m m!
    rng = random.Random(seed)
    lengths = _CYCLE_SHAPES[seed % len(_CYCLE_SHAPES)]
    names = list(range(sum(lengths)))
    rng.shuffle(names)
    edges = []
    start = 0
    for length in lengths:
        edges += [(names[start + i], names[start + (i + 1) % length]) for i in range(length)]
        start += length
    graph = _graph(len(names), edges)
    perms = graph_automorphisms(graph)
    assert perms == _brute_force_automorphisms(graph.adjacency)
    assert len(perms) == prod((2 * length) ** lengths.count(length) * factorial(lengths.count(length))
                              for length in set(lengths))


def test_identify_small_groups():
    ident3 = tuple(range(3))
    rot5 = tuple(tuple((i + k) % 5 for i in range(5)) for k in range(5))
    assert identify_group(rot5) == "Z/5"
    sym3 = tuple(tuple(p) for p in permutations(range(3)))
    assert identify_group(sym3) == "Sym_3"
    assert identify_group((ident3,)) == "1"
    klein = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert identify_group(klein) == "Z/2 x Z/2"
    square = []
    for k in range(4):
        square.append(tuple((i + k) % 4 for i in range(4)))
        square.append(tuple((k - i) % 4 for i in range(4)))
    assert identify_group(tuple(square)) == "Dih_4"


def test_named_groups_have_their_orders_and_distinct_fingerprints():
    # identify_group fingerprints only the named groups of the found order;
    # that loses nothing while every named group has the order it is filed
    # under and no two share a fingerprint
    seen = {}
    for order, name, gens, degree in hasse._named_groups():
        group = hasse._closure(gens, degree)
        assert len(group) == order, name
        fp = hasse.group_fingerprint(group)
        assert fp not in seen, f"fingerprint collision: {name} vs {seen.get(fp)}"
        seen[fp] = name
        assert identify_group(group) == name
    assert len(seen) == 25


def test_commutation_matches_the_products():
    perms = list(permutations(range(4)))
    assert all(hasse._commute(p, q) == (hasse._perm_mul(p, q) == hasse._perm_mul(q, p))
               for p in perms for q in perms)


def test_upper_alcove_vertex_types(small_label):
    rs = build(small_label)
    ups = upper_alcoves(rs)
    assert {u.lower_vertex_type for u in ups} == set(long_simple_nodes(rs))


@pytest.mark.parametrize("label", [str(st) for st in supported_types(6)])
def test_upper_alcoves_match_vertex_pairings(label):
    rs = build(label)
    expected = []
    for k, entry in enumerate(catalog_of(rs).entries):
        pairings = [inner(rs, v, rs.theta) for v in alcove_vertices(rs, entry.word)]
        assert max(pairings) <= 1
        off_wall = [i for i, t in enumerate(pairings) if t != 1]
        if len(off_wall) == 1:
            expected.append(UpperAlcove(k, off_wall[0]))
    assert upper_alcoves(rs) == tuple(expected)


def test_upper_alcoves_reject_points_outside_2A():
    # halve the form's denominator on a copy: (rho + theta|theta) of A2 is
    # (2 + 2) / 6, doubled in raw terms 8 against 2 * 6, and now 8 > 2 * 3,
    # so the alcove of the ideal {theta} leaves the doubled alcove
    rs = copy.copy(build("A2"))
    rs.form_den //= 2
    assert not _passes(check_upper_alcoves, rs)
    theta = catalog_of(rs).index[1 << rs.root_index[rs.theta]]
    assert check_upper_alcoves(rs).details == f"alcove of node {theta} lies beyond the doubled wall"


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "G2", "F4"])
def test_upper_alcoves_check_fails_on_a_zero_or_short_vertex_type(monkeypatch, label):
    # upper_alcoves reports the types it reads; the check rejects type 0
    # and, where there are any, a short simple type
    rs = build(label)
    ups = upper_alcoves(rs)
    short = [i for i in range(1, rs.rank + 1) if not rs.is_long(rs.simple_root(i))]
    for t in [0] + short[:1]:
        wrong = ups + (UpperAlcove(ups[0].node, t),)
        monkeypatch.setattr(checks, "upper_alcoves", lambda rs, wrong=wrong: wrong)
        res = check_upper_alcoves(rs)
        assert not res.passed and res.details.startswith("lower-vertex types"), (t, res)


UPPER_MULTISETS = {"A2": [1, 2], "C2": [2, 2], "G2": [2]}


@pytest.mark.parametrize("label", sorted(UPPER_MULTISETS))
def test_upper_alcove_multisets_golden(label):
    ups = upper_alcoves(build(label))
    assert sorted(u.lower_vertex_type for u in ups) == UPPER_MULTISETS[label]


def test_facet_ratio_identity(each_label):
    rs = build(each_label)
    assert facet_volume_ratios(rs) == expected_facet_ratios(rs)


def test_facet_ratio_values():
    from fractions import Fraction as Q
    assert facet_volume_ratios(build("A2")) == (Q(1), Q(1), Q(1))
    assert facet_volume_ratios(build("G2")) == (Q(1), Q(3), Q(4))
    assert facet_volume_ratios(build("C2")) == (Q(1), Q(2), Q(1))


def test_corrupted_gram_fails_normalization(small_label):
    res = check_normalization(corrupted_gram_copy(small_label))
    assert not res.passed
    assert "casimir" in res.details or "theta_norm" in res.details


def test_half_root_sum_route_to_rho_fails_normalization(small_label):
    # g comes from <rho, alpha_i-check> = 1 on the form's diagonal; a wrong
    # sum of the positive roots leaves that route intact and breaks the other
    rs = copy.copy(build(small_label))
    rs.two_rho = vadd(rs.two_rho, rs.simple_root(1))
    res = check_normalization(rs)
    assert not res.passed
    assert "strange" in res.details


@pytest.mark.parametrize("check", [check_kostant, check_upper_alcoves])
def test_corrupted_gram_fails_vector_action_checks(small_label, check):
    # as verify_type runs a check: whatever it raises is a FAIL
    try:
        passed = check(corrupted_gram_copy(small_label)).passed
    except Exception:
        passed = False
    assert not passed


def _passes(check, rs) -> bool:
    # as verify_type runs a check: whatever it raises is a FAIL
    try:
        return check(rs).passed
    except Exception:
        return False


@pytest.mark.parametrize("name", ["ideal_count", "forbidden_roots", "fiber_polynomials",
                                  "max_dimension", "hasse_covers", "hasse_automorphisms"])
def test_corrupted_gram_reaches_cached_data(small_label, name):
    # catalogs, coset words and graphs are cached per root system instance,
    # so a corrupted copy is checked on data built from its own form.
    # Doubling A1's only form entry is a uniform rescale, which the
    # structural checks rightly accept.
    rs = corrupted_gram_copy(small_label)
    assert _passes(getattr(checks, f"check_{name}"), rs) == (small_label == "A1")


def test_corrupted_copy_gets_its_own_catalog():
    assert catalog_of(corrupted_gram_copy("A1")) is not catalog_of(build("A1"))


def test_sum_formula_report_is_built_once_per_root_system():
    rs = build("B3")
    assert ideals.sum_formula_report(rs) is ideals.sum_formula_report(rs)
    bad = corrupted_gram_copy("A1")
    assert ideals.sum_formula_report(bad) is not ideals.sum_formula_report(build("A1"))


def _with_edges(graph, edges):
    return HasseGraph(graph.rs, graph.catalog, tuple(edges))


def test_cover_check_fails_without_an_edge(monkeypatch, small_label):
    # with edge a -- b gone, b is the first ideal not reached by everything
    # it contains, and a, one root short of b, has no remaining step toward b
    rs = build(small_label)
    graph = build_graph(rs)
    nodes = graph.catalog.ideals
    for drop in graph.edges:
        broken = _with_edges(graph, (e for e in graph.edges if e != drop))
        monkeypatch.setattr(checks, "build_graph", lambda rs: broken)
        res = checks.check_hasse_covers(rs)
        a, b = nodes[drop.lower], nodes[drop.upper]
        assert not res.passed
        assert res.details == f"no one-root step from {a.roots} toward {b.roots}"
        assert not any(e.lower == drop.lower and nodes[e.upper] <= b for e in broken.edges)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_hasse_checks_fail_with_an_extra_edge(monkeypatch, label):
    # the first edge from the zero ideal to a larger one that changes the
    # identified group; it adds more than one root, so covers fail too
    rs = build(label)
    graph = build_graph(rs)
    want = identify_group(graph_automorphisms(graph))
    broken = next(
        g for g in (_with_edges(graph, graph.edges + (HasseEdge(0, u, 0),))
                    for u in range(2, graph.num_nodes))
        if identify_group(graph_automorphisms(g)) != want)
    monkeypatch.setattr(hasse, "build_graph", lambda rs: broken)
    monkeypatch.setattr(checks, "build_graph", lambda rs: broken)
    assert not _passes(checks.check_hasse_automorphisms, rs)
    res = checks.check_hasse_covers(rs)
    assert not res.passed and "does not add one root" in res.details


NOT_SIMPLE_THETA = [label for label in SMALL_LABELS if label != "A1"]


@pytest.mark.parametrize("label", NOT_SIMPLE_THETA)
def test_fiber_polynomials_checks_the_quotient_off_the_simple_roots(monkeypatch, label):
    rs = build(label)
    real = checks.coset_poincare
    monkeypatch.setattr(checks, "coset_poincare",
                        lambda rs, phi: real(rs, phi) + ((1,) if tuple(phi) == rs.theta else ()))
    res = checks.check_fiber_polynomials(rs)
    assert not res.passed
    assert "quotient" in res.details


@pytest.mark.parametrize("label", NOT_SIMPLE_THETA)
def test_parametrization_checks_the_associated_long_root(monkeypatch, label):
    monkeypatch.setattr(checks, "associated_long_root", lambda rs, ideal: rs.theta)
    res = checks.check_parametrization(build(label))
    assert not res.passed
    assert "associated long root" in res.details


@pytest.mark.parametrize("label", NOT_SIMPLE_THETA)
def test_parametrization_checks_the_minimal_ideal_table(monkeypatch, label):
    # in the chain's view from mask to long root, theta's and the lowest
    # long root's minimal ideals trade long roots; an empty view places no
    # ideal at all
    real = ideals._greedy_chain

    def swapped(rs):
        links, table = real(rs)
        table = dict(table)
        first, last = min(table), max(table)
        table[first], table[last] = table[last], table[first]
        return links, table

    for fake in (swapped, lambda rs: (real(rs)[0], {})):
        monkeypatch.setattr(ideals, "_greedy_chain", fake)
        assert not _passes(checks.check_parametrization, build(label))


# types where some long root has more than one coset word (in A1, A2 and
# G2 no coset word reads the chain's walls)
SEVERAL_COSET_WORDS = [label for label in SMALL_LABELS
                       if len(build(label).long_positive_roots()) < 2 ** build(label).rank - 1]


@pytest.mark.parametrize("label", SEVERAL_COSET_WORDS)
def test_parametrization_checks_the_chain_walls(monkeypatch, label):
    # on a copy, the long root with the most coset words trades its chain
    # walls with one that has the fewest, so its coset words grow from the
    # wrong alcove
    rs = copy.copy(build(label))
    links = ideals._greedy_chain(rs)[0]
    by_count = sorted(rs.long_positive_roots(), key=lambda phi: len(affine.minimal_coset_reps(rs, phi)))
    low, high = by_count[0], by_count[-1]
    assert len(affine.minimal_coset_reps(rs, low)) < len(affine.minimal_coset_reps(rs, high))
    (low_word, low_walls, low_mask), (high_word, high_walls, high_mask) = links[low], links[high]
    links[low], links[high] = (low_word, high_walls, low_mask), (high_word, low_walls, high_mask)
    monkeypatch.setattr(checks, "build", lambda label: rs)
    results = {r.name: r for r in checks.verify_type(label).results}
    assert not results["parametrization"].passed


def test_parametrization_checks_the_rebuilt_ideal(monkeypatch, small_label):
    # every root sum is doubled, which keeps the sums distinct, in a
    # catalog of a copy, so the cached one stays intact; each nonzero
    # word's rho-shift then misses its ideal's sum
    rs = copy.copy(build(small_label))
    cat = IdealCatalog(rs)
    cat.sums = tuple(tuple(2 * c for c in s) for s in cat.sums)
    monkeypatch.setattr(checks, "catalog_of", lambda rs: cat)
    res = checks.check_parametrization(rs)
    assert not res.passed
    assert "disagrees" in res.details


def test_parametrization_checks_the_root_sums_are_distinct(monkeypatch, small_label):
    # the rho-shift names an ideal only while no two ideals share a sum
    rs = copy.copy(build(small_label))
    cat = IdealCatalog(rs)
    cat.sums = cat.sums[:-1] + cat.sums[:1]
    monkeypatch.setattr(checks, "catalog_of", lambda rs: cat)
    res = checks.check_parametrization(rs)
    assert not res.passed
    assert "share a root sum" in res.details


@pytest.mark.parametrize("label", NOT_SIMPLE_THETA)
def test_word_table_checks_the_word_to_theta(monkeypatch, label):
    # the check reads only the Cartan matrix, so a form corruption cannot
    # reach it; a word one letter short can
    real = checks.minimal_word_to_theta
    monkeypatch.setattr(checks, "minimal_word_to_theta", lambda rs, phi: real(rs, phi)[1:])
    assert not checks.check_word_table(build(label)).passed


@pytest.mark.parametrize("label", NOT_SIMPLE_THETA)
def test_word_table_checks_the_tabulated_element(monkeypatch, label):
    # one letter fewer changes the parity of the length, hence the element
    real = checks.reference_word_to_theta
    monkeypatch.setattr(checks, "reference_word_to_theta",
                        lambda st, i: None if real(st, i) is None else real(st, i)[1:])
    res = checks.check_word_table(build(label))
    assert not res.passed
    assert "element differs" in res.details


# Fault injection for the checks not reached above: each test patches one
# name the check's computation reads and requires the check to FAIL.

def test_theta_quotient_checks_the_weyl_series(monkeypatch, small_label):
    real = checks.weyl_poincare
    monkeypatch.setattr(checks, "weyl_poincare", lambda rs: poly_mul(real(rs), bracket(2)))
    assert not _passes(checks.check_theta_quotient, build(small_label))


def test_series_checks_compare_the_coset_walk(monkeypatch, small_label):
    # the walk gains one layer: a named FAIL, not an exception
    real = weyl._orbit_poincare
    monkeypatch.setattr(weyl, "_orbit_poincare", lambda rs, nodes: real(rs, nodes) + (1,))
    rs = build(small_label)
    for check in (checks.check_theta_quotient, checks.check_fiber_polynomials):
        res = check(rs)
        assert not res.passed
        assert "coset walk" in res.details and "exponent product" in res.details


def test_series_checks_compare_the_exponent_product(monkeypatch, small_label):
    # every nonempty node set's series times [2]: the finite wall
    # subgroups meet the walk, the affine ones the coset series; A1 and A2
    # have only trivial wall subgroups, with nothing to corrupt
    real = weyl.parabolic_poincare

    def doubled(cartan, nodes):
        nodes = tuple(nodes)
        return poly_mul(real(cartan, nodes), bracket(2)) if nodes else real(cartan, nodes)

    for module in (weyl, affine):
        monkeypatch.setattr(module, "parabolic_poincare", doubled)
    rs = build(small_label)
    res = checks.check_theta_quotient(rs)
    assert not res.passed and "exponent product" in res.details
    res = checks.check_fiber_polynomials(rs)
    walls = any(perp_generators(rs, phi) for phi in rs.long_positive_roots())
    assert res.passed == (not walls)
    if walls:
        assert "exponent product" in res.details or "quotient" in res.details


@pytest.mark.parametrize("check", ["first_sum", "second_sum"])
def test_sum_checks_total_the_coset_series(monkeypatch, small_label, check):
    # one extra coset word in every fiber; the report is cached per root
    # system instance, so the patched series is read on a fresh copy
    real = ideals.coset_poincare
    monkeypatch.setattr(ideals, "coset_poincare", lambda rs, phi: real(rs, phi) + (1,))
    assert not _passes(getattr(checks, f"check_{check}"), copy.copy(build(small_label)))


@pytest.mark.parametrize("include_zero", [True, False])
def test_max_dimension_checks_the_wall_subgroup_degrees(monkeypatch, small_label, include_zero):
    # the longest element of each wall subgroup, with or without letter 0,
    # gains one letter; the maximum itself is read off the catalog
    real = ideals.wall_subgroup_poincare

    def longer(rs, phi, zero):
        series = real(rs, phi, zero)
        return poly_mul(series, (1, 1)) if zero == include_zero else series

    monkeypatch.setattr(ideals, "wall_subgroup_poincare", longer)
    res = checks.check_max_dimension(build(small_label))
    assert not res.passed
    assert "bad decomposition" in res.details


def test_maximal_ideals_checks_the_count(monkeypatch, small_label):
    real = checks.maximal_ideals
    monkeypatch.setattr(checks, "maximal_ideals", lambda rs: real(rs) + real(rs)[:1])
    assert not _passes(checks.check_maximal_ideals, build(small_label))


def test_facet_ratios_check_the_volumes(monkeypatch, small_label):
    # every facet but the base one doubles its squared volume, so every
    # ratio but slot 0's doubles
    real = checks._facet_determinants
    monkeypatch.setattr(checks, "_facet_determinants",
                        lambda rs: real(rs)[:1] + tuple(2 * x for x in real(rs)[1:]))
    assert not _passes(checks.check_facet_ratios, build(small_label))


def test_ratio_text_writes_what_a_fraction_prints():
    from fractions import Fraction
    from abideal.root_system import _ratio_text
    for num in range(-13, 14):
        for den in [d for d in range(-12, 13) if d] + [24, 36, 10**20]:
            assert _ratio_text(num, den) == str(Fraction(num, den)), (num, den)
    assert _ratio_text(6 * 10**20, 4 * 10**20) == "3/2"
    for num in (0, 5, -3):
        with pytest.raises(ZeroDivisionError) as ours:
            _ratio_text(num, 0)
        with pytest.raises(ZeroDivisionError) as theirs:
            Fraction(num, 0)
        assert str(ours.value) == str(theirs.value)


def _fraction_facet_details(got, want):
    """The FAIL text as the check wrote it when both sides were Fractions:
    `got` are the facet determinants, `want` the expected ratios."""
    from fractions import Fraction
    got = [Fraction(x, got[0]) for x in got]
    return f"{[str(x) for x in got]} != {[str(x) for x in want]}"


@pytest.mark.parametrize("label", ["A1", "B3", "C3", "G2", "F4"])
def test_a_wrong_facet_determinant_fails_with_the_fraction_text(monkeypatch, label):
    rs = build(label)
    real = hasse._facet_determinants(rs)
    wrong = [real[:1] + tuple(3 * x for x in real[1:]),        # non-reduced numerators
             real[:-1] + (-real[-1],),                          # a negative ratio
             real[:-1] + (0,),                                  # a zero ratio
             (2 * real[0],) + real[1:]]                         # slot 0's own ratio stays 1
    for dets in wrong:
        monkeypatch.setattr(checks, "_facet_determinants", lambda rs, dets=dets: dets)
        res = checks.check_facet_ratios(rs)
        assert not res.passed, dets
        assert res.details == _fraction_facet_details(dets, expected_facet_ratios(rs))


def _fraction_normalization_details(rs):
    """check_normalization's failures, each side a Fraction as it was
    printed before the check wrote ratios without one."""
    from fractions import Fraction
    raw, den, g = rs.raw_inner, rs.form_den, rs.dual_coxeter_number
    theta_raw = raw(rs.theta, rs.theta)
    simples = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
    identities = (
        ("casimir", Fraction(raw(rs.two_rho, rs.theta) + theta_raw, den), Fraction(1)),
        ("theta_norm", Fraction(theta_raw, den), Fraction(1, g)),
        ("strange", Fraction(raw(rs.two_rho, rs.two_rho), 4 * den), Fraction(rs.dimension, 24)),
        ("root_norm_sum", Fraction(2 * sum(raw(r, r) for r in rs.positive_roots), den),
         Fraction(rs.rank)),
        ("mark_weighted",
         Fraction(theta_raw + sum(n * raw(a, a) for n, a in zip(rs.marks, simples)), den),
         Fraction(1)),
    )
    return "; ".join(f"{name}: {got} != {want}" for name, got, want in identities if got != want)


@pytest.mark.parametrize("corrupt", ["form", "two_rho", "form_den"])
def test_a_wrong_normalization_fails_with_the_fraction_text(small_label, corrupt):
    rs = corrupted_gram_copy(small_label) if corrupt == "form" else copy.copy(build(small_label))
    if corrupt == "two_rho":
        rs.two_rho = vadd(rs.two_rho, rs.simple_root(rs.rank))
    elif corrupt == "form_den":
        rs.form_den = 3 * rs.form_den
    want = _fraction_normalization_details(rs)
    res = check_normalization(rs)
    assert want and not res.passed
    assert res.details == want


def test_theta_quotient_requires_whole_distances(small_label):
    # 2 raw(rho, x) one too large on every vector puts each distance to
    # theta half a step off, as raw(theta, theta) is at least 2; truncating
    # the distances would read the same shells and pass
    rs = copy.copy(build(small_label))
    real = rs.twice_raw_rho
    rs.twice_raw_rho = lambda x: real(x) + 1
    res = checks.check_theta_quotient(rs)
    assert not res.passed
    first = "".join(map(str, rs.long_positive_roots()[0]))
    assert res.details == f"distance from {first} to theta is not an integer"


@pytest.mark.parametrize("shift", [-1, 1, 3])
def test_theta_quotient_names_a_distance_outside_the_shells(small_label, shift):
    # every distance moves by `shift` times g - 1: below 0, into the shells
    # of the other half, or past them all, where the shell list would
    # raise IndexError; the first long root names the fault
    rs = copy.copy(build(small_label))
    g = rs.dual_coxeter_number
    theta_raw = rs.raw_inner(rs.theta, rs.theta)
    real = rs.twice_raw_rho
    rs.twice_raw_rho = lambda x: real(x) + shift * (g - 1) * theta_raw
    res = checks.check_theta_quotient(rs)
    first = rs.long_positive_roots()[0]
    distance = real(tuple(t - p for t, p in zip(rs.theta, first))) // theta_raw + shift * (g - 1)
    assert not res.passed
    assert res.details == (f"distance {distance} from {''.join(map(str, first))} "
                           f"to theta outside 0..{g - 2}")


def _later_root_sharing_its_letters(rs):
    """A long root, not simple, whose wall letters an earlier long root
    has too."""
    simples = {rs.simple_root(i) for i in range(1, rs.rank + 1)}
    seen = set()
    for phi in rs.long_positive_roots():
        letters = perp_generators(rs, phi)
        if letters in seen and phi not in simples:
            return phi
        seen.add(letters)
    raise AssertionError(f"no two long roots of {rs.simple_type} share their wall letters")


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "D4", "F4", "G2", "E6"])
def test_fiber_polynomials_name_the_root_whose_series_gains_a_layer(monkeypatch, label):
    # the series, quotient and walk are formed once per letter set, but
    # each root's own coset series is compared: only phi's gains a layer
    rs = build(label)
    phi = _later_root_sharing_its_letters(rs)
    real = checks.coset_poincare
    monkeypatch.setattr(checks, "coset_poincare",
                        lambda rs, root: real(rs, root) + ((1,) if root == phi else ()))
    res = checks.check_fiber_polynomials(rs)
    assert not res.passed
    assert res.details.startswith(f"phi={''.join(map(str, phi))}: coset walk {real(rs, phi) + (1,)}")


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_facet_ratios_fail_on_a_changed_vertex_gram(monkeypatch, label):
    # one off-diagonal pair of the vertex Gram, between two nonzero
    # vertices, grows by one
    real = hasse._vertex_gram

    def changed(rs):
        gram = real(rs)
        gram[1][2] += 1
        gram[2][1] += 1
        return gram

    monkeypatch.setattr(hasse, "_vertex_gram", changed)
    assert not _passes(checks.check_facet_ratios, build(label))


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "D4", "G2", "F4", "E6"])
def test_upper_alcoves_fail_on_a_sum_one_alcove_past_the_far_wall(monkeypatch, label):
    # the first upper alcove is reflected in the far wall (-theta, 2): its
    # rho-point moves by 2 theta, into the alcove just outside 2A
    rs = build(label)
    real = catalog_of(rs)
    k = upper_alcoves(rs)[0].node
    cat = copy.copy(real)
    cat.sums = real.sums[:k] + (tuple(s + 2 * t for s, t in zip(real.sums[k], rs.theta)),) \
        + real.sums[k + 1:]
    monkeypatch.setattr(checks, "catalog_of", lambda rs: cat)
    res = check_upper_alcoves(rs)
    assert not res.passed
    assert res.details == f"alcove of node {k} lies beyond the doubled wall"


@pytest.mark.parametrize("label", ["A2", "A5", "B3", "C4", "D5", "G2", "F4", "E6", "E8"])
def test_kostant_fails_when_one_non_ideal_reaches_its_size(monkeypatch, label):
    # the kernel gives size * form_den on the packed sum of one drawn
    # non-ideal mask, a repeated one on the small types
    rs = build(label)
    packed, value = checks._kostant_kernel(rs)
    draws = list(islice(checks._non_ideal_draws(rs, random.Random(f"kostant:{label}"),
                                                catalog_of(rs).index, packed),
                        checks.KOSTANT_SAMPLES))
    mask, total = draws[len(draws) // 2]
    size = mask.bit_count()

    def kernel(rs):
        return packed, lambda t, n: size * rs.form_den if t == total else value(t, n)

    monkeypatch.setattr(checks, "_kostant_kernel", kernel)
    res = check_kostant(rs)
    assert not res.passed
    assert res.details == f"non-ideal subset of size {size} not strictly below"


@pytest.mark.parametrize("label", ["A2", "A4", "C3", "D4", "E6"])
def test_hasse_automorphisms_fail_when_pruning_skips_an_image(monkeypatch, label):
    # if every image counted as already reached, no generator would be
    # searched for and only the identity would be found
    monkeypatch.setattr(hasse, "_orbit", lambda v, perms: range(10 ** 6))
    res = checks.check_hasse_automorphisms(build(label))
    assert not res.passed
    assert res.details == f"identified 1, expected {reference_hasse_group(build(label).simple_type)}"


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_young_bridge_checks_the_return_trip(monkeypatch, label):
    # every diagram goes back to the zero ideal, which only the first
    # catalog ideal is
    monkeypatch.setattr(checks, "ideal_of_young", lambda rs, d: ideals.make_ideal(()))
    res = checks.check_young_bridge(build(label))
    assert not res.passed and "does not return to its ideal" in res.details


def test_young_bridge_caches_no_root_sets():
    # the return trip compares canonical root tuples, so no catalog ideal
    # keeps a frozenset of its roots
    rs = copy.copy(build("A5"))
    assert checks.check_young_bridge(rs).passed
    assert not any(hasattr(a, "_root_set") for a in catalog_of(rs).ideals)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_young_bridge_fails_on_a_repeated_diagram(monkeypatch, label):
    # a repeated diagram repeats its code, so the code set alone catches it
    monkeypatch.setattr(checks, "young_of_ideal", lambda rs, a: YoungDiagram(()))
    res = checks.check_young_bridge(build(label))
    assert not res.passed and res.details == "diagram () repeats"


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_young_bridge_checks_the_codes(monkeypatch, label):
    real = checks.young_encode
    monkeypatch.setattr(checks, "young_encode", lambda d, n: real(d, n) // 2)
    assert not _passes(checks.check_young_bridge, build(label))


def test_golden_gallery_checks_every_step(monkeypatch):
    # the word loses its first letter, so each row's step is one ahead
    real = checks.affine_inversion_set
    monkeypatch.setattr(checks, "affine_inversion_set", lambda rs, word: real(rs, word[1:]))
    assert not _passes(lambda rs: checks.golden_a11_check(), build("A11"))
