import copy
import random
import re

import pytest

from abideal import checks, ideals
from abideal.affine import alcove_walls, label_reflect, minimal_coset_reps, rho_shift, wall_point
from abideal.ideals import (
    IdealCatalog,
    InvariantViolation,
    associated_long_root,
    catalog_of,
    cross_walls,
    enumerate_all,
    forbidden_roots,
    from_param,
    is_abelian_ideal,
    kostant_value,
    long_simple_nodes,
    make_ideal,
    max_dimension,
    maximal_ideals,
    parameter_word,
    projection_node,
    sum_formula_report,
)
from abideal.reference import (
    reference_first_sum_per_node,
    reference_max_dimension,
    reference_max_dimension_multiplicity,
)
from abideal.root_system import build, supported_types, vneg, vsum
from abideal.weyl import minimal_word_to_theta

from conftest import ALL_LABELS
from reference_impl import (a_max, a_min, a_min_plus, ideal_from_affine_word, inner, norm2,
                            not_perp_theta, rho, vadd)


def test_count_is_two_to_the_rank(each_label):
    rs = build(each_label)
    assert len(enumerate_all(rs)) == 2 ** rs.rank


def test_repeated_indices_name_the_same_ideal():
    # a mask summed from 1 << k carries on a repeated index
    rs = build("A2")
    assert ideals.is_ideal_mask(rs, [1, 2])
    assert ideals.is_ideal_mask(rs, [1, 1, 2])
    assert ideals.is_ideal_mask(rs, [2, 2, 2])
    assert not ideals.is_ideal_mask(rs, [0, 0])
    assert is_abelian_ideal(rs, [rs.positive_roots[1], rs.positive_roots[1], rs.theta])


def test_handmade_non_ideals():
    rs = build("B2")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    theta = rs.theta
    assert is_abelian_ideal(rs, ())
    assert is_abelian_ideal(rs, (theta,))
    assert not is_abelian_ideal(rs, (a1,))          # not closed upward
    assert not is_abelian_ideal(rs, (a2, theta))    # also not closed upward
    short = (1, 1)
    assert not is_abelian_ideal(rs, (a2, short, theta))  # a2+short is a root


def test_kostant_equality_and_strictness(small_label):
    rs = build(small_label)
    for a in enumerate_all(rs):
        assert kostant_value(rs, a.roots) == a.dim
    rng = random.Random(small_label)
    roots = rs.positive_roots
    tried = 0
    while tried < 200 and len(roots) > 1:
        subset = tuple(roots[i] for i in sorted(
            rng.sample(range(len(roots)), rng.randint(1, len(roots)))))
        if is_abelian_ideal(rs, subset):
            continue
        tried += 1
        assert kostant_value(rs, subset) < len(subset)


def _reference_is_abelian_ideal(rs, roots):
    """The definition, through vadd and is_positive_root alone."""
    chosen = {tuple(r) for r in roots}
    if not all(rs.is_positive_root(psi) for psi in chosen):
        return False
    for psi in chosen:
        for i in range(1, rs.rank + 1):
            up = vadd(psi, rs.simple_root(i))
            if rs.is_positive_root(up) and up not in chosen:
                return False
    return not any(rs.is_positive_root(vadd(a, b)) for a in chosen for b in chosen)


EXHAUSTIVE_IDEAL_LABELS = ("A3", "B3", "C3", "G2")
SAMPLED_IDEAL_LABELS = ("D4", "F4", "E6")


def _ideal_test_inputs(rs):
    """Root sets, each also with a non-root, with a negative root, and as
    a list of lists: every subset of the positive roots at small rank,
    else seeded random subsets plus the ideals with one root toggled."""
    roots = rs.positive_roots
    label = str(rs.simple_type)
    if label in EXHAUSTIVE_IDEAL_LABELS:
        subsets = [tuple(r for k, r in enumerate(roots) if mask >> k & 1)
                   for mask in range(2 ** len(roots))]
    else:
        rng = random.Random(f"ideal-reference:{label}")
        subsets = [tuple(rng.sample(roots, rng.randint(0, len(roots)))) for _ in range(200)]
        for a in enumerate_all(rs):
            subsets.append(a.roots)
            toggled = rng.choice(roots)
            subsets.append(tuple(r for r in a.roots if r != toggled)
                           + (() if toggled in a.roots else (toggled,)))
    non_root = tuple(2 * c for c in rs.theta)
    negative = vneg(rs.theta)
    for s in subsets:
        yield s
        yield s + (non_root,)
        yield s + (negative,)
        yield [list(r) for r in s]


@pytest.mark.parametrize("label", EXHAUSTIVE_IDEAL_LABELS + SAMPLED_IDEAL_LABELS)
def test_is_abelian_ideal_matches_definition(label):
    rs = build(label)
    verdicts = set()
    for s in _ideal_test_inputs(rs):
        want = _reference_is_abelian_ideal(rs, s)
        assert is_abelian_ideal(rs, s) == want, s
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("label", EXHAUSTIVE_IDEAL_LABELS + SAMPLED_IDEAL_LABELS)
def test_kostant_value_matches_norms(label):
    rs = build(label)
    for s in _ideal_test_inputs(rs):
        sigma = vsum(s, rs.rank)
        assert kostant_value(rs, s) == norm2(rs, vadd(rho(rs), sigma)) - norm2(rs, rho(rs)), s


@pytest.mark.parametrize("vector", [(1,), (1, 0, 0), ()])
def test_kostant_value_rejects_vectors_of_the_wrong_length(vector):
    # a short vector was read as padded with zeros, a long one hit an IndexError
    rs = build("A2")
    message = f"vector {vector} has {len(vector)} coordinates, not rank 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        kostant_value(rs, [(1, 1), vector])


def test_catalog_parameters_rebuild(small_label):
    rs = build(small_label)
    cat = catalog_of(rs)
    assert len(cat) == 2 ** rs.rank
    zero_entries = [e for e in cat.entries if e.phi is None]
    assert len(zero_entries) == 1 and zero_entries[0].ideal.dim == 0
    for e in cat.entries:
        if e.phi is None:
            continue
        again = from_param(rs, e.phi, e.coset_word)
        assert again.root_set == e.ideal.root_set
        assert len(e.word) == e.ideal.dim


def test_from_param_rejects_bad_input():
    # phi is validated by membership in the greedy chain, before any letter
    rs = build("B3")
    short = rs.simple_root(3)
    assert not rs.is_long(short)
    for phi in (short, (9, 9, 9), [0, 0, 1]):
        message = f"{tuple(phi)} is not a long positive root"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_param(rs, phi, ())
        with pytest.raises(ValueError, match=re.escape(message)):
            from_param(rs, phi, (1,))
        with pytest.raises(ValueError, match=re.escape(message)):
            minimal_word_to_theta(rs, phi)
    theta = rs.theta
    gens, _ = wall_point(rs, theta)
    outside = next(j for j in range(rs.rank + 1) if j not in gens)
    message = f"letter {outside} does not fix the walls through {theta}"
    with pytest.raises(ValueError, match=re.escape(message)):
        from_param(rs, theta, (outside,))  # letter not orthogonal to theta
    with pytest.raises(ValueError):
        from_param(rs, theta, (1,))
    twice = (gens[0], gens[0])
    with pytest.raises(ValueError, match=re.escape(f"{twice} is not a minimal coset word for {theta}")):
        from_param(rs, theta, twice)


@pytest.mark.parametrize("phi, word, message", [
    ((1, 2, 2), (7,), "letter 7 does not fix the walls through (1, 2, 2)"),
    ((1, 0, 0), (0, 0), "(0, 0) is not a minimal coset word for (1, 0, 0)"),
    ([1, 0, 0], [0, 0], "(0, 0) is not a minimal coset word for (1, 0, 0)"),
])
def test_parameter_word_checks_the_coset_word_as_from_param_does(phi, word, message):
    rs = build("B3")
    for fn in (parameter_word, from_param):
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(rs, phi, word)
    assert parameter_word(rs, (1, 0, 0), [0]) == (0,) + minimal_word_to_theta(rs, (1, 0, 0)) + (0,)


def test_affine_word_construction_rejects_bad_words():
    rs = build("A2")
    mask = cross_walls(rs, list(alcove_walls(rs, ())), (0,), 0, rs.theta, ())
    assert mask == 1 << rs.root_index[rs.theta]
    with pytest.raises(InvariantViolation, match="level one"):
        # a finite inversion, at level zero
        cross_walls(rs, list(alcove_walls(rs, ())), (1,), 0, rs.theta, ())


@pytest.mark.parametrize("reps, message", [
    (((), (0,), (0, 0)), "level one"),   # crossing wall 0 twice leaves level one
    (((), (0, 0)), "no parent"),
    (((), ()), "parametrized twice"),
    (((),), "have no parameter"),
])
def test_coset_tree_rejects_bad_words(monkeypatch, reps, message):
    # the catalog's walk takes the given coset words for (1, 0) of B2
    real = ideals.minimal_coset_reps
    monkeypatch.setattr(ideals, "minimal_coset_reps",
                        lambda rs, phi: reps if phi == (1, 0) else real(rs, phi))
    with pytest.raises(InvariantViolation, match=message):
        IdealCatalog(build("B2"))


@pytest.mark.parametrize("index, message", [
    (lambda rs: {r: k for r, k in rs.root_index.items() if r != rs.theta}, "bad finite part"),
    # every root at theta's bit: the second wall crossed repeats it
    (lambda rs: dict.fromkeys(rs.root_index, rs.root_index[rs.theta]), "twice"),
])
def test_coset_tree_rejects_walls_off_the_positive_roots(index, message):
    # the catalog walks a copy whose index is replaced once its coset
    # words are cached
    rs = copy.copy(build("B2"))
    for phi in rs.long_positive_roots():
        minimal_coset_reps(rs, phi)
    rs.root_index = index(rs)
    with pytest.raises(InvariantViolation, match=message):
        IdealCatalog(rs)


def test_coset_tree_rejects_walls_outside_the_enumeration(monkeypatch):
    # the enumeration loses its largest ideal, which a word still reaches
    real = ideals._enumerate_masks
    monkeypatch.setattr(ideals, "_enumerate_masks", lambda rs: tuple(t[:-1] for t in real(rs)))
    with pytest.raises(InvariantViolation, match="crosses walls outside the enumeration"):
        IdealCatalog(build("B2"))


def test_catalog_rejects_a_wrong_rho_shift(monkeypatch):
    # every parameter word claims the zero ideal's rho-point; the catalog
    # attaches words by the walls they cross, so the rho-shift route is
    # verify's, and its parametrization check must notice
    monkeypatch.setattr(checks, "rho_shift", lambda rs, word: (0,) * rs.rank)
    res = checks.check_parametrization(build("A2"))
    assert not res.passed
    assert "disagrees" in res.details


# one bit too narrow: where some ideal's root sum reaches the dropped bit,
# the enumeration's packed sums carry; elsewhere only larger sums do, and
# the Kostant check reads back the largest, the sum of all positive roots
NARROW_SUMS_CARRY = ("A1", "A2", "A3", "C3", "G2")
NARROW_SUMS_FIT = ("B2", "D4", "F4")


@pytest.mark.parametrize("label", NARROW_SUMS_CARRY + NARROW_SUMS_FIT)
def test_verify_fails_on_a_packing_one_bit_too_narrow(monkeypatch, label):
    good = build(label)
    narrow = copy.copy(good)
    narrow._pack(good.pack_width - 1)
    reach = max(max(s) for s in catalog_of(good).sums)
    assert (reach >= 1 << narrow.pack_width) == (label in NARROW_SUMS_CARRY)
    monkeypatch.setattr(checks, "build", lambda label: narrow)
    failed = {r.name for r in checks.verify_type(label).results if not r.passed}
    if label in NARROW_SUMS_CARRY:
        assert failed & {"ideal_count", "parametrization"}
    else:
        assert "kostant" in failed


def _failed_checks(label):
    return {r.name for r in checks.verify_type(label).results if not r.passed}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_verify_fails_on_a_kostant_field_one_bit_too_narrow(monkeypatch, label):
    # every field of the mask kernel is largest on the set of all positive
    # roots, where the check compares the kernel with kostant_raw
    real = checks._kostant_fields

    def narrow(rs):
        columns, offset, width = real(rs)
        return columns, offset, width - 1

    monkeypatch.setattr(checks, "_kostant_fields", narrow)
    assert _failed_checks(label) == {"kostant"}


# the Kostant check calls a random draw an ideal when the catalog's index
# holds its mask, so an ideal the index lacks shows once a draw lands on it:
# on these types a thousand draws land on every nonzero ideal, and on the
# larger small types on {theta}
EVERY_IDEAL_DRAWN = ("A2", "A3", "B2", "C2", "G2")
THETA_DRAWN = ("B3", "C3", "D4", "F4")


@pytest.mark.parametrize("label", EVERY_IDEAL_DRAWN + THETA_DRAWN)
def test_verify_fails_without_an_ideal_in_the_catalog_index(monkeypatch, label):
    rs = build(label)
    real = catalog_of(rs)
    if label in THETA_DRAWN:
        lost = [real.index[1 << rs.root_index[rs.theta]]]
    else:
        lost = [k for k, mask in enumerate(real.masks) if mask]
    assert lost
    for k in lost:
        cat = copy.copy(real)
        cat.index = {mask: i for mask, i in real.index.items() if i != k}
        monkeypatch.setattr(checks, "catalog_of", lambda rs, cat=cat: cat)
        results = checks.verify_type(label).results
        assert {r.name for r in results if not r.passed} == {"kostant"}, k
        kostant = next(r for r in results if r.name == "kostant")
        assert kostant.details == (f"non-ideal subset of size {real.ideals[k].dim} "
                                   "not strictly below"), k


@pytest.mark.parametrize("label", [label for label in ALL_LABELS if label != "A1"])
def test_kostant_fails_on_a_catalog_holding_a_non_ideal(monkeypatch, label):
    # the first nonzero ideal with one root toggled that is no ideal, held
    # in place of that ideal with its own roots, so its dimension matches
    # its mask; at rank one every subset is an ideal
    rs = build(label)
    real = catalog_of(rs)
    k, bad = next((k, mask ^ 1 << j) for k, mask in enumerate(real.masks) if mask
                  for j in range(rs.num_positive) if mask ^ 1 << j not in real.index)
    fake = make_ideal(rs.positive_roots[j] for j in ideals.mask_bits(bad))
    assert fake.dim == bad.bit_count() and not is_abelian_ideal(rs, fake.roots)
    cat = copy.copy(real)
    cat.ideals = real.ideals[:k] + (fake,) + real.ideals[k + 1:]
    cat.masks = real.masks[:k] + (bad,) + real.masks[k + 1:]
    cat.index = {mask: i for i, mask in enumerate(cat.masks)}
    monkeypatch.setattr(checks, "catalog_of", lambda rs: cat)
    res = checks.check_kostant(rs)
    assert not res.passed
    assert res.details == f"equality fails on ideal {[''.join(map(str, r)) for r in fake.roots]}"


def _label_valid_words(rs, phi):
    """Every coset word that from_param accepts for phi: each path of
    ascents from wall_point, depth first."""
    gens, start = wall_point(rs, phi)
    stack = [((), start)]
    while stack:
        word, point = stack.pop()
        yield word
        for j in gens:
            if point[j] > 0:
                stack.append((word + (j,), label_reflect(rs, j, point)))


# label-valid words that are not the catalog's word for their coset
UNHELD_WORDS = {"A6": 26, "C5": 55, "D6": 6}


@pytest.mark.parametrize("label", [str(st) for st in supported_types(6)])
def test_from_param_on_every_label_valid_word(label):
    # from_param no longer re-checks its ideal; the catalog and verify see
    # only one reduced word per coset, so every other word must still give
    # the catalog ideal whose root sum is that word's rho-shift
    rs = build(label)
    cat = catalog_of(rs)
    by_sum = {vsum(a.roots, rs.rank): a for a in cat.ideals}
    held = {(e.phi, e.coset_word) for e in cat.entries}
    unheld = 0
    for phi in rs.long_positive_roots():
        for word in _label_valid_words(rs, phi):
            whole = parameter_word(rs, phi, word)
            shift = rho_shift(rs, whole)
            assert from_param(rs, phi, word) == by_sum[shift], (phi, word)
            # from_param crosses only the coset word past phi's chain walls
            assert from_param(rs, phi, word) == ideal_from_affine_word(rs, whole), (phi, word)
            unheld += (phi, word) not in held
    assert unheld == UNHELD_WORDS.get(label, unheld)


def test_associated_long_root_rejects_a_non_ideal():
    rs = build("A2")
    with pytest.raises(ValueError, match="not an abelian ideal"):
        associated_long_root(rs, make_ideal([(1, 0)]))
    with pytest.raises(ValueError, match="not an abelian ideal"):
        not_perp_theta(rs, make_ideal([(1, 0)]))


@pytest.mark.parametrize("roots, message", [
    ((), "the zero ideal has no associated long root"),
    (((1, 0),), "((1, 0),) is not an abelian ideal"),
    (((1, 1), (2, 1)), "((1, 1), (2, 1)) is not an abelian ideal"),
    (((1, 1), (0, 0)), "((0, 0), (1, 1)) is not an abelian ideal"),
    (((1, 0), (1, 1), (-1, -1)), "((-1, -1), (1, 0), (1, 1)) is not an abelian ideal"),
])
def test_associated_long_root_error_texts(roots, message):
    # the zero ideal, a non-ideal, and sets holding a vector that is not a
    # positive root, each with its full text
    with pytest.raises(ValueError) as info:
        associated_long_root(build("A2"), make_ideal(roots))
    assert str(info.value) == message


def test_associated_long_root_faults_on_valid_ideals(monkeypatch):
    # a valid ideal that the tables cannot place is an internal fault
    rs = copy.copy(build("A2"))
    ideal = make_ideal([(1, 0), rs.theta])
    rs.perp_theta_mask = 1 << rs.root_index[rs.theta]  # leaves {alpha_1}, not an ideal
    with pytest.raises(InvariantViolation, match="do not form an ideal"):
        associated_long_root(rs, ideal)
    monkeypatch.setattr(ideals, "_greedy_chain", lambda rs: ({}, {}))
    with pytest.raises(InvariantViolation, match="no long root matches"):
        associated_long_root(build("A2"), ideal)


def test_min_max_bracket_every_fiber(small_label):
    rs = build(small_label)
    cat = catalog_of(rs)
    for e in cat.entries:
        if e.phi is None:
            continue
        lo = a_min(rs, e.phi)
        hi = a_max(rs, e.phi)
        assert lo.root_set <= e.ideal.root_set <= hi.root_set
        assert not_perp_theta(rs, e.ideal).root_set == lo.root_set
        assert associated_long_root(rs, e.ideal) == e.phi


@pytest.mark.parametrize("label", [str(st) for st in supported_types(11)])
def test_a_min_table_matches_the_whole_word_route(label):
    # the greedy chain crosses one wall per long root; the references walk
    # each whole word to theta.  The copy's per-instance memo starts empty
    rs = build(label)
    want = {sum(1 << rs.root_index[r] for r in a_min(rs, phi).roots): phi
            for phi in rs.long_positive_roots()}
    assert len(want) == len(rs.long_positive_roots())
    for system in (rs, copy.copy(rs)):
        links, roots = ideals._greedy_chain(system)
        assert roots == want
        assert set(links) == set(rs.long_positive_roots())
        for phi, (word, walls, mask) in links.items():
            assert word == parameter_word(rs, phi, ()), phi
            assert walls == alcove_walls(rs, word), phi
            assert roots[mask] == phi
    assert ideals._greedy_chain(copy.copy(rs)) is not ideals._greedy_chain(rs)


def test_a_min_table_checks_each_carried_root(monkeypatch):
    # every crossed wall doubled sits at level two
    real = ideals.carry_images
    monkeypatch.setattr(ideals, "carry_images", lambda cartan, images, word, lowest: (
        tuple(2 * x for x in beta) for beta in real(cartan, images, word, lowest)))
    with pytest.raises(InvariantViolation, match="level one|bad finite part"):
        ideals._greedy_chain(copy.copy(build("B3")))


def test_greedy_chain_rejects_a_shared_minimal_ideal(monkeypatch):
    # every crossing yields theta's mask, so the second long root repeats it
    theta_bit = 1 << build("B3").root_index[build("B3").theta]
    monkeypatch.setattr(ideals, "cross_walls", lambda rs, walls, letters, mask, phi, word: theta_bit)
    with pytest.raises(InvariantViolation, match="two long roots share a minimal ideal"):
        ideals._greedy_chain(copy.copy(build("B3")))


def test_min_ideal_sizes(each_label):
    rs = build(each_label)
    for phi in rs.long_positive_roots():
        assert a_min(rs, phi).dim == 1 + int(rs.length_to_theta(phi))
    assert a_min(rs, rs.theta).roots == (rs.theta,)


def test_min_plus_grows_by_one():
    rs = build("C4")
    perp = [p for p in rs.long_positive_roots() if inner(rs, p, rs.theta) == 0]
    assert perp
    for phi in perp:
        lo = a_min(rs, phi)
        plus = a_min_plus(rs, phi)
        assert lo.root_set < plus.root_set
        assert plus.dim == lo.dim + 1
    with pytest.raises(ValueError):
        a_min_plus(rs, rs.theta)


def test_maximal_ideal_count(each_label):
    rs = build(each_label)
    maxi = maximal_ideals(rs)
    assert len(maxi) == len(long_simple_nodes(rs))
    cat = catalog_of(rs)
    tops = {m.root_set for m in maxi}
    for a in cat.ideals:
        assert any(a.root_set <= t for t in tops)


def test_forbidden_roots_complement(small_label):
    rs = build(small_label)
    covered = set()
    for a in enumerate_all(rs):
        covered |= a.root_set
    assert sorted(forbidden_roots(rs)) == sorted(
        r for r in rs.positive_roots if r not in covered)


def test_forbidden_roots_b2_golden():
    rs = build("B2")
    assert forbidden_roots(rs) == (rs.simple_root(2),)


# r-vectors: how many long positive roots sit over each node
PER_NODE = {
    "B4": (1, 9, 2, 0),
    "B5": (1, 13, 4, 2, 0),
    "C5": (1, 1, 1, 1, 1),
    "D5": (1, 13, 4, 1, 1),
    "D6": (1, 17, 6, 4, 1, 1),
    "E6": (21, 9, 2, 2, 1, 1),
    "E7": (33, 15, 8, 3, 1, 2, 1),
    "E8": (57, 27, 16, 10, 6, 2, 1, 1),
    "F4": (9, 3, 0, 0),
    "G2": (0, 3),
}


@pytest.mark.parametrize("label", sorted(PER_NODE))
def test_projection_counts_golden(label):
    rs = build(label)
    rep = sum_formula_report(rs)
    assert rep.per_node == PER_NODE[label]
    assert rep.per_node == reference_first_sum_per_node(rs.simple_type)
    assert sum(rep.per_node) == len(rs.long_positive_roots())


def test_sum_formulas(each_label):
    rep = sum_formula_report(build(each_label))
    assert rep.first_holds
    assert rep.second_holds


def test_projection_node_spot_values():
    rs = build("G2")
    for phi in rs.long_positive_roots():
        assert projection_node(rs, phi) == 2
    b4 = build("B4")
    assert projection_node(b4, b4.theta) == 2


MAX_DIMS = {
    "A1": 1, "A2": 2, "A3": 4, "A4": 6, "A5": 9, "A6": 12, "A7": 16, "A8": 20,
    "B2": 3, "B3": 5, "B4": 7, "B5": 11, "B6": 16, "B7": 22, "B8": 29,
    "C2": 3, "C3": 6, "C4": 10, "C5": 15, "C6": 21, "C7": 28, "C8": 36,
    "D4": 6, "D5": 10, "D6": 15, "D7": 21, "D8": 28,
    "E6": 16, "E7": 27, "E8": 36, "F4": 9, "G2": 3,
}


def test_max_dimension_table(each_label):
    rep = max_dimension(build(each_label))
    assert rep.value == MAX_DIMS[each_label]
    assert rep.value == reference_max_dimension(build(each_label).simple_type)
    assert rep.multiplicity == reference_max_dimension_multiplicity(
        build(each_label).simple_type)
    for g, n_hat, n_perp, value in rep.decompositions:
        assert g - 1 + n_hat - n_perp == value == rep.value


def test_e8_decomposition_numbers():
    rep = max_dimension(build("E8"))
    assert (30, 28, 21, 36) in rep.decompositions
    assert 30 - 1 + 28 - 21 == 36


def test_b4_maximum_is_attained_twice():
    # both rank-one fibers top out at 7; exhaustive search over all
    # sixteen positive roots confirms exactly two ideals of dimension 7
    rs = build("B4")
    ideals = enumerate_all(rs)
    tops = [a for a in ideals if a.dim == 7]
    assert len(tops) == 2
    phis = sorted(associated_long_root(rs, a) for a in tops)
    assert phis == sorted((rs.simple_root(1), rs.simple_root(3)))


def test_make_ideal_canonical_order():
    rs = build("A3")
    theta = rs.theta
    a = make_ideal((theta, rs.simple_root(1) ))
    assert a.roots[0] == rs.simple_root(1)  # height before coordinates
    assert a.dim == 2 and theta in a
