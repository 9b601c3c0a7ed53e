"""The replaced loop versions of the Weyl-group routines, kept as references.

The library moves one point, or the images of the simple roots, one letter
at a time.  The functions below are the algorithms it replaced: they
re-apply the whole prefix for every letter, multiply one reflection matrix
per letter, walk the coset words by root action with a global rho-shift
seen-set, accept a parameter word by its inversion set and rho-shift, walk
a parabolic subgroup's whole rho orbit, label a Hasse edge by the
rho-shift of the whole word low^-1 high or by pulling the added root back
through the lower ideal's word, and find the upper alcoves by pairing each
alcove's vertices with theta, from the origin and theta moved by the word.
The exact arithmetic that moved to integers keeps its Fraction versions
here: Gauss-Jordan elimination for determinants and inverses, facet ratios
from Fraction Gram matrices of the Fraction alcove vertices (the library
takes integer vertices from the form's adjugate), the Kostant sampler's
set-based ideal test with Fraction Kostant values, and the doubled-alcove
test at the Fraction rho-point.  The forbidden roots keep their memoized
search for theta - 2 phi as a sum of positive roots.  The Hasse checks
keep their pairwise forms: the cover test over every nested pair of
ideals, the automorphism search seeded with BFS distance profiles and
anchored by rescanning the whole vertex pool, and the maximal ideals found
by comparing every pair.  The breadth-first automorphism search keeps the
search it replaced, `_frontier_anchored_automorphisms`: colour refinement
from degrees (`_refine_colors`), then each vertex tried against its whole
colour class in a heap-ordered frontier, fewest candidates first
(`_anchor_order`).  The Kostant check keeps the sampler it drew
through, `random.sample` with vector sums of roots, and the catalog's walk
of the word tree keeps the whole-word forms it replaced: each entry's
walls walked from the affine simple roots, its ideal rebuilt by
`from_param`, and its ideal read off the whole word's affine inversion
set.  Cold construction keeps its
tuple forms: the rho-shift that builds one tuple per letter, the greedy
walk from a root all the way to theta, the cover and conflict masks from
`vadd` sums, the enumeration whose ideals `make_ideal` re-sorts, with
`vsum` root sums, and the positive-root closure on tuples, with each
pairing summed from the Cartan row.  The Young decode keeps its bit list,
read in reverse into column heights, and the encode its list of bits; an
ideal's diagram keeps its cell set, each row's width counted over all the
cells, and a diagram's ideal its roots built coordinate by coordinate.
The Kostant mask sampler keeps its per-bit ideal test over each drawn
root's cover and conflict masks, and
the mask kernel its tuple evaluator: the packed coordinate sum unpacked,
then the quadratic term summed over the nonzero form entries.  A word's
matrix keeps its per-vector form, one `apply_word` per basis vector, and
the roots of an ideal off theta's wall their two-test form, the
abelian-ideal test run on the input and again on that part.  The matrix
and Fraction picture of an affine element these references use lives in
`reference_impl.py`.  Each test requires the
library to give exactly what its reference gives, errors included.
"""

import copy
import random
from fractions import Fraction as Q
from functools import partial
from heapq import heappop, heappush
from itertools import combinations, islice, product
from math import gcd
from types import SimpleNamespace

import pytest

from abideal import ideals as ideals_module
from abideal import weyl
from abideal.affine import (
    AffineRoot,
    affine_cartan_matrix,
    affine_inversion_set,
    alcove_walls,
    minimal_coset_reps,
    perp_generators,
    rho_shift,
    rho_shift_in_2A,
)
from abideal.checks import _kostant_mask_raw, _random_draws
from abideal.hasse import (
    HasseEdge,
    UpperAlcove,
    build_graph,
    facet_volume_ratios,
    graph_automorphisms,
    upper_alcoves,
    verify_cover_structure,
)
from abideal.ideals import (
    AbelianIdeal,
    IdealCatalog,
    InvariantViolation,
    _enumerate_masks,
    catalog_of,
    enumerate_all,
    forbidden_roots,
    from_param,
    is_abelian_ideal,
    is_ideal_mask,
    kostant_raw,
    kostant_value,
    make_ideal,
    mask_bits,
    maximal_ideals,
    parameter_word,
)
from abideal.root_system import (_cartan_matrix, _positive_roots, bareiss, build, supported_types,
                                 vsub, vsum)
from abideal.weyl import (
    apply_word,
    check_letters,
    element_of_word,
    identity_matrix,
    inversion_roots,
    length_of_element,
    mat_vec,
    minimal_word_to_theta,
    reflect_simple,
)
from abideal.young import (YoungDiagram, ideal_of_young, young_decode, young_encode,
                           young_lattice, young_of_ideal)

from conftest import ALL_LABELS, SMALL_LABELS, corrupted_gram_copy
from reference_impl import (
    affine_reflect,
    affine_simple_root,
    fundamental_alcove_vertices,
    ideal_from_affine_word,
    in_2A,
    inner,
    inverse_word,
    linear_reflect,
    mat_mul,
    reflect_theta,
    reflection_matrix,
    rho,
    vadd,
)

EVERY_LABEL = tuple(str(st) for st in supported_types(11))  # A1-A11 and the rest: 35 types
SAMPLES = 40


# ----------------------------------------------------------------------
# the replaced algorithms

def _reflect_affine_root(rs, i, beta):
    """s_0 sends (x, k) to (s_theta(x), k + <x, theta-check>)."""
    if i == 0:
        c = -sum(a * x for a, x in zip(affine_cartan_matrix(rs)[0][1:], beta.finite))
        return AffineRoot(tuple(x - c * t for x, t in zip(beta.finite, rs.theta)), beta.level + c)
    if not 1 <= i <= rs.rank:
        raise ValueError(f"letter {i} out of range 0..{rs.rank}")
    return AffineRoot(reflect_simple(rs, i, beta.finite), beta.level)


def _apply_word_to_affine_root(rs, word, beta):
    for i in reversed(word):
        beta = _reflect_affine_root(rs, i, beta)
    return beta


def _is_left_minimal(rs, shift, finite_gens):
    # s_f w is longer than w exactly when <rho + shift, alpha_f-check> > 0
    return all(rs.simple_coroot_pairing(shift, f) >= 0 for f in finite_gens)


def _root_action_coset_walk(rs, phi):
    gens = perp_generators(rs, phi)
    finite_gens = tuple(i for i in gens if i != 0)
    reps = [()]
    zero = (0,) * rs.rank
    seen = {zero}
    layer = [((), zero)]  # (word, w(rho) - rho)
    while layer:
        nxt = []
        for word, shift in layer:
            for j in gens:
                beta = _apply_word_to_affine_root(rs, word, affine_simple_root(rs, j))
                if not beta.is_positive:
                    continue
                cand = vsub(shift, beta.finite)
                if cand in seen or not _is_left_minimal(rs, cand, finite_gens):
                    continue
                seen.add(cand)
                nxt.append((word + (j,), cand))
        nxt.sort()
        reps.extend(word for word, _ in nxt)
        layer = nxt
    return tuple(reps)


def _prefix_inversion_roots(rs, word):
    seen, prefix = [], []
    for i in word:
        beta = apply_word(rs, prefix, rs.simple_root(i))
        if beta in seen:
            raise ValueError(f"word {tuple(word)} is not reduced: root {beta} repeats")
        if not rs.is_positive_root(beta):
            raise ValueError(f"word {tuple(word)} is not reduced: {beta} is negative")
        seen.append(beta)
        prefix.append(i)
    return tuple(seen)


def _prefix_affine_inversion_set(rs, word):
    seen, prefix = [], []
    for i in word:
        beta = _apply_word_to_affine_root(rs, prefix, affine_simple_root(rs, i))
        if beta in seen:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {beta} repeats")
        if not beta.is_positive:
            raise ValueError(f"affine word {tuple(word)} is not reduced: {beta} is negative")
        seen.append(beta)
        prefix.append(i)
    return tuple(seen)


def _per_vector_element(rs, word):
    """The matrix whose columns are the basis vectors' images, each vector
    carried through the whole word by `apply_word`."""
    return tuple(zip(*(apply_word(rs, word, e) for e in identity_matrix(rs.rank))))


def _two_test_not_perp_theta_mask(rs, ideal):
    """The abelian-ideal test on the input's indices, then the same test
    again on its roots off theta's wall, each building its own mask."""
    indices = {rs.root_index.get(tuple(r)) for r in ideal.roots}
    if None in indices or not is_ideal_mask(rs, indices):
        raise ValueError(f"{ideal.roots} is not an abelian ideal")
    perp = rs.perp_theta_mask
    kept = [k for k in indices if not perp >> k & 1]
    if not is_ideal_mask(rs, kept):
        raise InvariantViolation("roots off theta's wall do not form an ideal")
    return sum(map((1).__lshift__, kept))


def _matrix_product_element(rs, word):
    m = identity_matrix(rs.rank)
    for i in word:
        m = mat_mul(m, reflection_matrix(rs, i))
    return m


def _per_root_length(rs, m):
    return sum(1 for phi in rs.positive_roots if all(c <= 0 for c in mat_vec(m, phi)))


def _inversion_and_shift_accepts(rs, phi, word):
    gens = perp_generators(rs, phi)
    if any(i not in gens for i in word):
        return False
    try:
        inv = _prefix_affine_inversion_set(rs, word)
    except ValueError:
        return False
    shift = tuple(-c for c in vsum((beta.finite for beta in inv), rs.rank))
    return _is_left_minimal(rs, shift, tuple(i for i in gens if i != 0))


def _rho_orbit_poincare(rs, nodes):
    """The whole rho orbit of the subgroup, layer by layer in Dynkin labels:
    rho = (1, ..., 1), and each layer is the set of ascending moves from
    the previous one."""
    layer = {(1,) * rs.rank}
    counts = []
    while layer:
        counts.append(len(layer))
        nxt = set()
        for point in layer:
            for i in nodes:
                c = point[i - 1]
                if c > 0:
                    nxt.add(tuple(x - c * row[i - 1] for x, row in zip(point, rs.cartan)))
        layer = nxt
    return tuple(counts)


def _whole_word_edge_letter(rs, low, high):
    """j read off the rho-shift of the word low^-1 high: s_j(rho) - rho is
    minus the finite part of beta_j."""
    target = tuple(-c for c in rho_shift(rs, inverse_word(low.word) + high.word))
    for j in range(rs.rank + 1):
        if affine_simple_root(rs, j).finite == target:
            return j
    raise AssertionError("not adjacent")


def _pullback_edge_letter(rs, low, high):
    """j with element(high) = element(low) s_j: element(low)(beta_j) is
    (-r, 1) for the added root r, so -r pulled back through low's word by
    the letters' linear parts is the finite part of beta_j."""
    added = high.ideal.root_set - low.ideal.root_set
    if len(added) == 1 and high.ideal.dim == low.ideal.dim + 1:
        target = tuple(-c for c in next(iter(added)))
        for i in low.word:
            target = linear_reflect(rs, i, target)
        for j in range(rs.rank + 1):
            if affine_simple_root(rs, j).finite == target:
                return j
    raise InvariantViolation("elements of adjacent ideals do not differ by one reflection")


def _vertex_pairing_upper_alcoves(rs):
    """Vertex i of w(A) pairs with theta as (w(0)|theta) + (v_i|M^-1 theta),
    with w(0) the origin moved by the word, rightmost letter first, and
    M^-1 theta theta moved by the letters' linear parts in word order; the
    pairings are compared with 1 in integers, times 2 n_i form_den."""
    den = rs.form_den
    out = []
    for k, entry in enumerate(catalog_of(rs).entries):
        origin = (0,) * rs.rank
        for i in reversed(entry.word):
            origin = affine_reflect(rs, i, origin)
        pulled = rs.theta
        for i in entry.word:
            pulled = linear_reflect(rs, i, pulled)
        base = rs.raw_inner(origin, rs.theta)
        off_wall = []
        for i, (b, n) in enumerate(zip((0,) + pulled, (1,) + rs.marks)):
            excess = 2 * n * (base - den) + b * den
            if excess > 0:
                raise InvariantViolation(f"alcove vertex beyond the doubled wall at node {k}")
            if excess:
                off_wall.append(i)
        if len(off_wall) == 1:
            out.append(UpperAlcove(k, off_wall[0]))
    return tuple(out)


def _pairwise_cover_structure(graph):
    """Every strictly nested pair of ideals has a one-root step from the
    smaller staying inside the larger, looked up by root set."""
    ideals = graph.catalog.ideals
    known = {a.root_set for a in ideals}
    for b in ideals:
        for a in ideals:
            if a.dim >= b.dim or not a.root_set < b.root_set:
                continue
            grown = (a.root_set | {r} for r in b.root_set - a.root_set)
            if not any(g in known for g in grown):
                raise InvariantViolation(f"no one-root step from {a.roots} toward {b.roots}")


def _refine_colors(adj, initial):
    """Colour refinement: each vertex's colour and its neighbours' colours
    give its next colour, to a fixpoint."""
    palette = {}
    colors = []
    for key in initial:
        if key not in palette:
            palette[key] = len(palette)
        colors.append(palette[key])
    while True:
        palette = {}
        fresh = []
        for v in range(len(adj)):
            key = (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            if key not in palette:
                palette[key] = len(palette)
            fresh.append(palette[key])
        if fresh == colors:
            return colors
        colors = fresh


def _anchor_order(adj, candidates):
    """The order in which the frontier-anchored search assigns vertices:
    next comes the vertex with fewest candidates, then lowest index, among
    those with an assigned neighbor, or among all unassigned ones when none
    has one.  The anchored vertices wait in a heap frontier keyed that way."""
    n = len(adj)
    pool = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    placed = [False] * n
    order = []
    frontier = []
    start = 0
    while len(order) < n:
        while frontier and placed[frontier[0][1]]:
            heappop(frontier)
        if frontier:
            v = heappop(frontier)[1]
        else:
            while placed[pool[start]]:
                start += 1
            v = pool[start]
        placed[v] = True
        order.append(v)
        for u in adj[v]:
            if not placed[u]:
                heappush(frontier, (len(candidates[u]), u))
    return order


def _frontier_anchored_automorphisms(adj):
    """Colour refinement seeded by degree, then a depth-first search over
    each vertex's whole colour class in the heap-anchored order; returns
    the sorted permutations."""
    n = len(adj)
    colors = _refine_colors(adj, [len(adj[v]) for v in range(n)])
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    candidates = [tuple(by_color[colors[v]]) for v in range(n)]
    order = _anchor_order(adj, candidates)
    found = []
    image = {}
    used = set()
    if n == 0:
        found.append(())
    stack = [iter(candidates[order[0]])] if n else []
    while stack:
        k = len(stack) - 1
        v = order[k]
        if v in image:
            used.discard(image.pop(v))
        mapped = {image[u] for u in adj[v] if u in image}
        t = next((t for t in stack[-1] if t not in used and mapped == adj[t] & used), None)
        if t is None:
            stack.pop()
            continue
        image[v] = t
        used.add(t)
        if k + 1 == n:
            found.append(tuple(image[x] for x in range(n)))
        else:
            stack.append(iter(candidates[order[k + 1]]))
    return tuple(sorted(found))


def _profile_rescan_automorphisms(adj):
    """Colour refinement seeded by degree and BFS distance profile, and an
    anchoring order found by rescanning the whole pool per vertex; returns
    the sorted permutations and the order."""
    n = len(adj)
    profiles = [tuple(sorted(weyl.graph_distances(adj, v).values())) for v in range(n)]
    colors = _refine_colors(adj, [(len(adj[v]), profiles[v]) for v in range(n)])
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    candidates = {v: tuple(by_color[colors[v]]) for v in range(n)}
    order = []
    placed = set()
    pool = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    while len(order) < n:
        anchored = [v for v in pool if v not in placed and any(u in placed for u in adj[v])]
        v = anchored[0] if anchored else next(v for v in pool if v not in placed)
        order.append(v)
        placed.add(v)
    found = []

    def extend(k, image, used):
        if k == n:
            found.append(tuple(image[x] for x in range(n)))
            return
        v = order[k]
        mapped = {image[u] for u in adj[v] if u in image}
        for t in candidates[v]:
            if t not in used and mapped == adj[t] & used:
                extend(k + 1, {**image, v: t}, used | {t})

    extend(0, {}, frozenset())
    return tuple(sorted(found)), order


def _pairwise_maximal_ideals(rs):
    ideals = catalog_of(rs).ideals
    return tuple(a for a in ideals if not any(a.root_set < b.root_set for b in ideals))


def _gauss_jordan(matrix):
    """Exact determinant and inverse over Fractions; the inverse is None
    when the determinant vanishes."""
    n = len(matrix)
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return Q(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        p = aug[col][col]
        det *= p
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return det, tuple(tuple(row[n:]) for row in aug)


def _facet_grams(rs, vertices, inner):
    """The Gram matrix of each facet's edge vectors, facet i omitting
    vertex i."""
    grams = []
    for skip in range(len(vertices)):
        pts = [v for i, v in enumerate(vertices) if i != skip]
        edges = [vsub(p, pts[0]) for p in pts[1:]]
        grams.append([[inner(a, b) for b in edges] for a in edges])
    return grams


def _fraction_facet_ratios(rs):
    dets = [_gauss_jordan(g)[0] for g in _facet_grams(rs, fundamental_alcove_vertices(rs), partial(inner, rs))]
    return tuple(d / dets[0] for d in dets)


def _integer_facet_grams(rs):
    verts = fundamental_alcove_vertices(rs)
    scale = 1
    for v in verts:
        for c in v:
            scale = scale * c.denominator // gcd(scale, c.denominator)
    points = [tuple(int(c * scale) for c in v) for v in verts]
    return _facet_grams(rs, points, rs.raw_inner)


def _sum_search_forbidden_roots(rs):
    roots = rs.positive_roots
    memo = {}

    def reachable(vec, imax):
        if all(c == 0 for c in vec):
            return True
        if (vec, imax) not in memo:
            memo[(vec, imax)] = any(
                all(c >= 0 for c in vsub(vec, roots[j])) and reachable(vsub(vec, roots[j]), j)
                for j in range(imax, -1, -1))
        return memo[(vec, imax)]

    out = []
    for phi in roots:
        target = vsub(rs.theta, tuple(2 * c for c in phi))
        if any(c < 0 for c in target) or all(c == 0 for c in target):
            continue
        if reachable(target, len(roots) - 1):
            out.append(phi)
    return tuple(sorted(out, key=lambda r: (sum(r), r)))


def _random_non_ideal_masks(rs, rng, count):
    """The first `count` draws of the Kostant check's sampler that the
    catalog's index does not hold; none at rank one, where every subset of
    the single positive root is an ideal."""
    if rs.num_positive == 1:
        return []
    index = catalog_of(rs).index
    return list(islice((mask for mask in _random_draws(rs, rng) if mask not in index), count))


def _random_non_ideal_subsets(rs, rng, count):
    """The sampler `check_kostant` drew through before bitmasks: the same
    size law, a k-subset from random.sample, tested on indices."""
    roots = rs.positive_roots
    n = len(roots)
    if n == 1:
        return []
    out = []
    while len(out) < count:
        k = rng.randint(1, n)
        picked = sorted(rng.sample(range(n), k))
        if not is_ideal_mask(rs, picked):
            out.append(tuple(roots[i] for i in picked))
    return out


def _set_test_non_ideal_subsets(rs, rng, count):
    roots = rs.positive_roots
    n = len(roots)
    if n == 1:
        return []
    out = []
    while len(out) < count:
        k = rng.randint(1, n)
        picked = tuple(roots[i] for i in sorted(rng.sample(range(n), k)))
        if is_abelian_ideal(rs, picked):
            continue
        out.append(picked)
    return out


# ----------------------------------------------------------------------
# samplers

def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _raised(fn, *args):
    """The result, or the type and text of whatever the call raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def _random_reduced_word(rs, rng, letters, max_len, image):
    """Append a letter only while its simple root's image under the word
    read so far stays positive, which keeps the word reduced."""
    word = ()
    for _ in range(rng.randint(0, max_len)):
        choices = [i for i in letters if image(word, i)]
        if not choices:
            break
        word += (rng.choice(choices),)
    return word


def _finite_reduced_word(rs, rng):
    return _random_reduced_word(
        rs, rng, range(1, rs.rank + 1), min(rs.num_positive, 14),
        lambda w, i: rs.is_positive_root(apply_word(rs, w, rs.simple_root(i))))


def _affine_reduced_word(rs, rng):
    return _random_reduced_word(
        rs, rng, range(rs.rank + 1), 12,
        lambda w, i: _apply_word_to_affine_root(rs, w, affine_simple_root(rs, i)).is_positive)


# ----------------------------------------------------------------------
# the library against its references

@pytest.mark.parametrize("label", EVERY_LABEL)
def test_coset_walk_matches_the_root_action_walk(label):
    rs = build(label)
    for phi in rs.positive_roots:
        assert minimal_coset_reps(rs, phi) == _root_action_coset_walk(rs, phi)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_inversion_roots_match_the_prefix_rewalk(label):
    rs = build(label)
    rng = random.Random(f"inversions:{label}")
    for _ in range(SAMPLES):
        word = _finite_reduced_word(rs, rng)
        assert inversion_roots(rs, word) == _prefix_inversion_roots(rs, word)
        # one more random letter may break reducedness: same error text
        longer = word + (rng.randint(1, rs.rank),)
        assert _outcome(inversion_roots, rs, longer) == _outcome(_prefix_inversion_roots, rs, longer)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_affine_inversion_sets_match_the_prefix_rewalk(label):
    rs = build(label)
    rng = random.Random(f"affine-inversions:{label}")
    for _ in range(SAMPLES):
        word = _affine_reduced_word(rs, rng)
        assert affine_inversion_set(rs, word) == _prefix_affine_inversion_set(rs, word)
        longer = word + (rng.randint(0, rs.rank),)
        assert (_outcome(affine_inversion_set, rs, longer)
                == _outcome(_prefix_affine_inversion_set, rs, longer))


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_elements_and_lengths_match_matrix_products(label):
    # and the per-vector walk, on the empty word, repeated letters and
    # random words (most not reduced) of every length up to 3 rank
    rs = build(label)
    rng = random.Random(f"elements:{label}")
    words = [tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 16)))
             for _ in range(SAMPLES)]
    words += [(), (rs.rank,) * 3] + [(i, i) for i in range(1, rs.rank + 1)]
    words += [tuple(rng.randint(1, rs.rank) for _ in range(n)) for n in range(1, 3 * rs.rank + 1)]
    for word in words:
        m = element_of_word(rs, word)
        assert m == _matrix_product_element(rs, word) == _per_vector_element(rs, word), word
        assert length_of_element(rs, m) == _per_root_length(rs, m)
        # a word followed by its reverse gives the identity; a list works too
        assert element_of_word(rs, list(word + word[::-1])) == identity_matrix(rs.rank), word


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_one_pass_not_perp_theta_mask_matches_the_two_tests(label):
    rs = build(label)
    rng = random.Random(f"not-perp:{label}")
    ideals = list(catalog_of(rs).ideals)
    inputs = ideals + [make_ideal(s) for s in _set_test_non_ideal_subsets(rs, rng, 60)]
    inputs += [make_ideal(a.root_set ^ {rng.choice(rs.positive_roots)}) for a in ideals[:40]]
    inputs += [make_ideal(a.roots + (tuple(-c for c in rs.theta),)) for a in ideals[:5]]
    outcomes = [_raised(ideals_module._not_perp_theta_mask, rs, a) for a in inputs]
    assert outcomes == [_raised(_two_test_not_perp_theta_mask, rs, a) for a in inputs]
    assert outcomes[:len(ideals)] == [m & ~rs.perp_theta_mask for m in catalog_of(rs).masks]
    assert outcomes[-1] == (ValueError, f"{inputs[-1].roots} is not an abelian ideal")
    # a wrong perp mask: theta's bit alone leaves the roots theta covers
    # without their cover, and so may a random mask; both forms report the
    # same fault
    fault = copy.copy(rs)
    for perp in [1 << rs.root_index[rs.theta], rng.getrandbits(rs.num_positive)]:
        fault.perp_theta_mask = perp
        outcomes = [_raised(ideals_module._not_perp_theta_mask, fault, a) for a in ideals]
        assert outcomes == [_raised(_two_test_not_perp_theta_mask, fault, a) for a in ideals]
        if rs.rank > 1 and perp == 1 << rs.root_index[rs.theta]:
            assert (InvariantViolation, "roots off theta's wall do not form an ideal") in outcomes


@pytest.mark.parametrize("word", [(0,), (1, -1), (1, 4)])
def test_out_of_range_letters_fail_before_the_walk(word):
    rs = build("A3")
    with pytest.raises(ValueError, match="out of range"):
        inversion_roots(rs, word)
    with pytest.raises(ValueError, match="out of range"):
        element_of_word(rs, word)
    if word != (0,):
        with pytest.raises(ValueError, match="out of range"):
            affine_inversion_set(rs, word)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_from_param_accepts_what_inversion_sets_and_rho_shifts_accept(label):
    rs = build(label)
    for phi in rs.long_positive_roots():
        gens = perp_generators(rs, phi)
        for k in range(5):
            for word in product(gens, repeat=k):
                try:
                    from_param(rs, phi, word)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == _inversion_and_shift_accepts(rs, phi, word), (phi, word)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_coset_chain_walk_matches_the_rho_orbit_on_every_node_subset(label):
    rs = build(label)
    for mask in range(2 ** rs.rank):
        nodes = tuple(i for i in range(1, rs.rank + 1) if mask >> (i - 1) & 1)
        assert weyl._orbit_poincare(rs, nodes) == _rho_orbit_poincare(rs, nodes), nodes


@pytest.mark.parametrize("label", ["B4", "D4", "F4", "E6"])
def test_coset_chain_walk_matches_the_rho_orbit_on_the_whole_group(label):
    rs = build(label)
    nodes = tuple(range(1, rs.rank + 1))
    assert weyl._orbit_poincare(rs, nodes) == _rho_orbit_poincare(rs, nodes)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_edge_letters_match_the_whole_word_rho_shift(label):
    rs = build(label)
    graph = build_graph(rs)
    for e in graph.edges:
        low, high = graph.catalog.entries[e.lower], graph.catalog.entries[e.upper]
        assert _whole_word_edge_letter(rs, low, high) == e.letter


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_edge_letters_match_the_pullback(label):
    rs = build(label)
    graph = build_graph(rs)
    for e in graph.edges:
        low, high = graph.catalog.entries[e.lower], graph.catalog.entries[e.upper]
        assert _pullback_edge_letter(rs, low, high) == e.letter


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_upper_alcoves_match_the_vertex_pairings_of_the_word(label):
    rs = build(label)
    assert upper_alcoves(rs) == _vertex_pairing_upper_alcoves(rs)


def _without_ideal(graph, drop):
    """The graph of the catalog with ideal `drop` left out: the remaining
    ideals, masks and one-root edges, reindexed."""
    cat = graph.catalog
    sub = object.__new__(IdealCatalog)
    sub.rs = cat.rs
    sub.ideals = tuple(a for k, a in enumerate(cat.ideals) if k != drop)
    sub.masks = tuple(m for k, m in enumerate(cat.masks) if k != drop)
    sub.index = {m: k for k, m in enumerate(sub.masks)}
    edges = tuple(HasseEdge(sub.index[m & ~(1 << r)], k, 0)
                  for k, m in enumerate(sub.masks) for r in mask_bits(m)
                  if m & ~(1 << r) in sub.index)
    return SimpleNamespace(catalog=sub, edges=edges)


def _cover_verdict(check, graph):
    try:
        check(graph)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cover_check_matches_the_pairwise_test(label):
    graph = build_graph(build(label))
    assert _cover_verdict(verify_cover_structure, graph) is None
    assert _cover_verdict(_pairwise_cover_structure, graph) is None


@pytest.mark.parametrize("label", [label for label in SMALL_LABELS if label != "A1"])
def test_cover_check_matches_the_pairwise_test_with_an_ideal_left_out(label):
    # leaving one ideal out of the catalog breaks some nested pairs'
    # one-root steps; both tests must agree on whether any pair is broken,
    # and the closure test must name a pair with no step inside the larger
    graph = build_graph(build(label))
    failures = 0
    for drop in range(len(graph.catalog.ideals)):
        sub = _without_ideal(graph, drop)
        got = _cover_verdict(verify_cover_structure, sub)
        assert (got is None) == (_cover_verdict(_pairwise_cover_structure, sub) is None)
        if got is None:
            continue
        failures += 1
        ideals = sub.catalog.ideals
        named = [(a, b) for a in ideals for b in ideals if a.root_set < b.root_set
                 and got == f"no one-root step from {a.roots} toward {b.roots}"]
        assert len(named) == 1
        a, b = named[0]
        known = {c.root_set for c in ideals}
        assert not any(a.root_set | {r} in known for r in b.root_set - a.root_set)
    assert failures > 0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_automorphisms_match_the_profile_rescan_search(label):
    graph = build_graph(build(label))
    adj = graph.adjacency
    perms, order = _profile_rescan_automorphisms(adj)
    assert graph_automorphisms(graph) == perms
    colors = _refine_colors(adj, [len(adj[v]) for v in range(len(adj))])
    candidates = [tuple(u for u in range(len(adj)) if colors[u] == colors[v])
                  for v in range(len(adj))]
    assert _anchor_order(adj, candidates) == order


@pytest.mark.parametrize("label", ALL_LABELS + ("A9", "A10", "A11"))
def test_breadth_first_automorphisms_match_the_frontier_anchored_search(label):
    graph = build_graph(build(label))
    assert graph_automorphisms(graph) == _frontier_anchored_automorphisms(graph.adjacency)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_maximal_ideals_match_the_pairwise_search(label):
    rs = build(label)
    assert maximal_ideals(rs) == _pairwise_maximal_ideals(rs)


def _assert_matches_gauss_jordan(matrix):
    det, adj = bareiss(matrix)
    ref_det, ref_inv = _gauss_jordan(matrix)
    assert type(det) is int and det == ref_det, matrix
    if ref_inv is None:
        assert adj is None, matrix
    else:
        assert all(type(x) is int for row in adj for x in row)
        assert tuple(tuple(Q(x, det) for x in row) for row in adj) == ref_inv, matrix


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_bareiss_matches_gauss_jordan_on_cartan_matrices(label):
    _assert_matches_gauss_jordan(build(label).cartan)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_bareiss_matches_gauss_jordan_on_facet_grams(label):
    rs = build(label)
    for gram in _integer_facet_grams(rs):
        _assert_matches_gauss_jordan(gram)
    assert facet_volume_ratios(rs) == _fraction_facet_ratios(rs)


@pytest.mark.parametrize("seed", range(8))
def test_bareiss_matches_gauss_jordan_on_random_matrices(seed):
    rng = random.Random(f"bareiss:{seed}")
    for n in range(7):
        for _ in range(SAMPLES):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            _assert_matches_gauss_jordan(m)
            if n:
                m[0][0] = 0  # a zero leading pivot forces a row swap, or a zero column
                _assert_matches_gauss_jordan(m)
            if n > 1:
                m[-1] = [2 * x for x in m[0]]  # singular
                _assert_matches_gauss_jordan(m)


def _mask_of(rs, roots):
    return sum(1 << rs.root_index[r] for r in roots)


def _kostant_verdicts(rs, subsets):
    new = [kostant_raw(rs, vsum(s, rs.rank)) < len(s) * rs.form_den for s in subsets]
    ref = [kostant_value(rs, s) < len(s) for s in subsets]
    return new, ref


@pytest.mark.parametrize("label", ALL_LABELS)
def test_kostant_sampler_and_verdicts_match_the_set_test(label):
    rs = build(label)
    subsets = _random_non_ideal_subsets(rs, random.Random(f"kostant:{label}"), 1000)
    assert subsets == _set_test_non_ideal_subsets(rs, random.Random(f"kostant:{label}"), 1000)
    new, ref = _kostant_verdicts(rs, subsets)
    assert new == ref
    # the mask kernel gives the vector sum's raw value, strictly below
    raw = _kostant_mask_raw(rs)
    for s in subsets:
        value = raw(_mask_of(rs, s))
        assert value == kostant_raw(rs, vsum(s, rs.rank)) and value < len(s) * rs.form_den, s
    ideals = catalog_of(rs).ideals
    assert ([kostant_raw(rs, vsum(a.roots, rs.rank)) == a.dim * rs.form_den for a in ideals]
            == [kostant_value(rs, a.roots) == a.dim for a in ideals])


@pytest.mark.parametrize("label", [label for label in SMALL_LABELS if label != "A1"])
def test_kostant_verdicts_match_on_a_corrupted_form(label):
    # with one form entry doubled some subsets reach or pass their size
    rs = corrupted_gram_copy(label)
    subsets = _set_test_non_ideal_subsets(rs, random.Random(f"kostant:{label}"), 200)
    new, ref = _kostant_verdicts(rs, subsets)
    assert new == ref and not all(ref)
    raw = _kostant_mask_raw(rs)
    assert [raw(_mask_of(rs, s)) for s in subsets] == [kostant_raw(rs, vsum(s, rs.rank)) for s in subsets]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_mask_sampler_draws_non_ideals_of_every_size(label):
    # 20 draws per size on average, so a missed size is not a matter of luck
    rs = build(label)
    n = rs.num_positive
    masks = _random_non_ideal_masks(rs, random.Random(f"sizes:{label}"), 20 * n)
    if n == 1:
        assert masks == []
        return
    assert len(masks) == 20 * n
    assert not any(is_ideal_mask(rs, list(mask_bits(m))) for m in masks)
    assert {m.bit_count() for m in masks} == set(range(1, n + 1))
    assert all(0 < m < 1 << n for m in masks)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_mask_sampler_reaches_every_non_ideal_subset(label):
    # a given 3-subset of G2's six roots comes once in 120 draws, so 1000
    # draws miss one of the twenty with probability near 1/200 (the check's
    # own 1000 G2 draws do); 5000 draws make a miss a sampler fault
    rs = build(label)
    masks = _random_non_ideal_masks(rs, random.Random(f"kostant:{label}"), 5000)
    non_ideals = set(range(1 << rs.num_positive)) - set(catalog_of(rs).masks)
    assert set(masks) == non_ideals


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_coset_tree_matches_the_whole_word_forms(label):
    # the catalog's words are every long root's coset words once each, and
    # each is its whole parameter word; the walls of that word, walked from
    # the affine simple roots, its rho-shift against the ideal's root sum,
    # the ideal from_param rebuilds from it, and the ideal read off the
    # whole word's affine inversion set
    rs = build(label)
    cat = catalog_of(rs)
    params = [(phi, word) for phi in rs.long_positive_roots()
              for word in minimal_coset_reps(rs, phi)]
    assert len(params) == len(cat) - 1
    assert {(e.phi, e.coset_word) for e in cat.entries if e.phi is not None} == set(params)
    assert len(cat.walls) == len(cat)
    for e, walls, total, mask in zip(cat.entries, cat.walls, cat.sums, cat.masks):
        assert walls == alcove_walls(rs, e.word), e.word
        assert rho_shift(rs, e.word) == total, e.word
        if e.phi is None:
            continue
        assert e.word == parameter_word(rs, e.phi, e.coset_word), e.word
        assert _mask_of(rs, from_param(rs, e.phi, e.coset_word).roots) == mask, e.word
        assert _mask_of(rs, ideal_from_affine_word(rs, e.word).roots) == mask, e.word


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_coset_tree_edges_are_hasse_edges(label):
    # the parameter words form one tree: each nonzero entry's word less its
    # last letter is another entry's word, joined to it by a Hasse edge
    # labelled with that letter
    rs = build(label)
    cat = catalog_of(rs)
    position = {e.word: k for k, e in enumerate(cat.entries)}
    assert len(position) == len(cat)
    letters = {(e.lower, e.upper): e.letter for e in build_graph(rs).edges}
    edges = 0
    for k, e in enumerate(cat.entries):
        if e.word:
            assert letters[position[e.word[:-1]], k] == e.word[-1], e.word
            edges += 1
    assert edges == len(cat) - 1


@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_2A_test_matches_the_rho_point(label):
    # each entry's word w and its one-letter extensions w s_j, whose shifts
    # are w's less the finite part of w(beta_j), wall j of w's alcove; each
    # distinct rho-point is tested once, the Fraction one being rho + shift
    rs = build(label)
    cat = catalog_of(rs)
    shifts = set(cat.sums)
    for total, walls in zip(cat.sums, cat.walls):
        shifts.update(vsub(total, wall[:-1]) for wall in walls)
    verdicts = set()
    for shift in shifts:
        verdict = rho_shift_in_2A(rs, shift)
        assert verdict == in_2A(rs, vadd(rho(rs), shift)), shift
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_forbidden_roots_match_the_sum_search(label):
    rs = build(label)
    assert forbidden_roots(rs) == _sum_search_forbidden_roots(rs)


# ----------------------------------------------------------------------
# cold construction: the tuple forms that packed roots and one-step
# recurrences replaced

def _tuple_rho_shift(rs, word):
    """One new tuple per letter: s_i(rho + y) = rho + s_i(y) - alpha_i and
    s_0(rho + y) = rho + s_theta(y) + theta."""
    check_letters(rs, word, 0)
    shift = (0,) * rs.rank
    for i in reversed(word):
        if i == 0:
            shift = vadd(reflect_theta(rs, shift), rs.theta)
        else:
            shift = vsub(reflect_simple(rs, i, shift), rs.simple_root(i))
    return shift


def _greedy_loop_word_to_theta(rs, phi):
    """The whole greedy walk from phi up to theta, one reflection at a
    time, lowest negative pairing first."""
    letters = []
    current = phi
    while current != rs.theta:
        for i in range(1, rs.rank + 1):
            if rs.simple_coroot_pairing(current, i) < 0:
                letters.append(i)
                current = reflect_simple(rs, i, current)
                break
        else:
            raise AssertionError(f"stuck before reaching the highest root from {phi}")
    return tuple(reversed(letters))


def _vadd_masks(rs):
    """Cover and conflict masks from tuple sums looked up in root_index."""
    roots, index = rs.positive_roots, rs.root_index
    simples = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
    covers = tuple(sum(1 << index[up] for up in (vadd(phi, a) for a in simples) if up in index)
                   for phi in roots)
    conflicts = [0] * len(roots)
    for j, phi in enumerate(roots):
        for k in range(j, len(roots)):
            if vadd(phi, roots[k]) in index:
                conflicts[j] |= 1 << k
                conflicts[k] |= 1 << j
    return covers, tuple(conflicts)


def _make_ideal_enumeration(rs):
    """The inclusion search on the tuple masks without sums; each ideal
    re-sorted by `make_ideal`, and the ideals sorted by dim, `vsum` root
    sum and roots."""
    covers, conflicts = _vadd_masks(rs)
    found = []

    def walk(k, chosen):
        if k < 0:
            found.append(chosen)
            return
        walk(k - 1, chosen)
        if (covers[k] & ~chosen) == 0 and (conflicts[k] & chosen) == 0:
            walk(k - 1, chosen | (1 << k))

    walk(rs.num_positive - 1, 0)
    pairs = [(make_ideal(r for k, r in enumerate(rs.positive_roots) if mask >> k & 1), mask)
             for mask in found]
    pairs.sort(key=lambda p: (p[0].dim, vsum(p[0].roots, rs.rank), p[0].roots))
    return (tuple(a for a, _ in pairs), tuple(m for _, m in pairs),
            tuple(vsum(a.roots, rs.rank) for a, _ in pairs))


def _random_affine_words(rs, rng, count):
    """Words over 0..rank of length 0..3 rank + 3, reduced or not; every
    fourth one has a letter doubled in place."""
    for n in range(count):
        word = [rng.randint(0, rs.rank) for _ in range(rng.randint(0, 3 * rs.rank + 3))]
        if word and n % 4 == 0:
            at = rng.randrange(len(word))
            word.insert(at, word[at])
        yield tuple(word)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_rho_shift_matches_the_tuple_form(label):
    rs = build(label)
    for entry in catalog_of(rs).entries:
        assert rho_shift(rs, entry.word) == _tuple_rho_shift(rs, entry.word), entry.word
    words = list(_random_affine_words(rs, random.Random(f"rho_shift:{label}"), 4 * SAMPLES))
    assert any(0 in w for w in words) and any(a == b for w in words for a, b in zip(w, w[1:]))
    for word in words:
        assert rho_shift(rs, word) == _tuple_rho_shift(rs, word), word
    for bad in [(rs.rank + 1,), (0, -1)]:
        with pytest.raises(ValueError, match="out of range"):
            rho_shift(rs, bad)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_word_to_theta_matches_the_greedy_loop(label):
    # and the same words on a shallow copy of the root system
    rs = build(label)
    fresh = copy.copy(rs)
    for phi in rs.long_positive_roots():
        word = _greedy_loop_word_to_theta(rs, phi)
        assert minimal_word_to_theta(rs, phi) == word, phi
        assert minimal_word_to_theta(fresh, phi) == word, phi
    for phi in set(rs.positive_roots) - set(rs.long_positive_roots()):
        with pytest.raises(ValueError, match="not a long positive root"):
            minimal_word_to_theta(rs, phi)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_packed_masks_match_the_tuple_sums(label):
    rs = build(label)
    assert [rs.unpack(p) for p in rs.packed_roots] == list(rs.positive_roots)
    # the width holds the sum of all positive roots, so nothing carries
    assert rs.unpack(sum(rs.packed_roots)) == vsum(rs.positive_roots, rs.rank)
    assert (rs.cover_masks, rs.conflict_masks) == _vadd_masks(rs)


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_enumeration_matches_make_ideal_and_vsum(label):
    rs = build(label)
    reference = _make_ideal_enumeration(rs)
    assert _enumerate_masks(rs) == reference
    cat = catalog_of(rs)
    assert (cat.ideals, cat.masks, cat.sums) == reference


def _tuple_positive_roots(cartan):
    """The closure on tuples: each string walked down one `tuple(lower)`
    and set lookup at a time, each pairing summed from the Cartan row."""
    l = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(l)) for i in range(l)]
    roots = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for phi in layer:
            for j in range(l):
                pairing = sum(c * cartan[j][k] for k, c in enumerate(phi) if c)
                p = 0
                lower = list(phi)
                while True:
                    lower[j] -= 1
                    if tuple(lower) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(phi)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_packed_root_closure_matches_the_tuple_closure(label):
    # the whole Cartan matrix, and every submatrix `parabolic_poincare`
    # can hand to `weyl._exponent_product`: each proper node subset of the
    # affine Cartan matrix, in its own node order
    cartan = _cartan_matrix(build(label).simple_type)
    assert _positive_roots(cartan) == _tuple_positive_roots(cartan) == build(label).positive_roots
    affine = affine_cartan_matrix(build(label))
    for k in range(1, len(affine)):
        for idx in combinations(range(len(affine)), k):
            sub = tuple(tuple(affine[a][b] for b in idx) for a in idx)
            assert _positive_roots(sub) == _tuple_positive_roots(sub), idx
    with pytest.raises(ValueError, match="not of finite type"):
        _positive_roots(affine)


def _bit_list_young_decode(code, n):
    """The code's bits as a list, read in reverse into column heights,
    and each row counted over all the columns."""
    if not 0 <= code < (1 << (n - 1)):
        raise ValueError(f"code {code} out of range for n={n}")
    if code == 0:
        return YoungDiagram(())
    bits = [int(b) for b in bin(code)[2:]]
    heights = []
    climb = 0
    for b in reversed(bits):
        if b:
            heights.append(climb + 1)
        else:
            climb += 1
    heights.reverse()
    rows = tuple(sum(1 for h in heights if h > r) for r in range(max(heights)))
    return YoungDiagram(rows)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_pass_young_decode_matches_the_bit_list(n):
    for code in range(1 << (n - 1)):
        assert young_decode(code, n) == _bit_list_young_decode(code, n), code
    for bad in (-1, 1 << (n - 1)):
        with pytest.raises(ValueError, match="out of range"):
            young_decode(bad, n)


def _bit_list_young_encode(d, n):
    """The rim code as a list of bits, one per rim cell, then read off;
    each column's height counted over all the rows."""
    if d.max_hook > n - 1:
        raise ValueError(f"hook {d.max_hook} exceeds {n - 1}")
    heights = [sum(1 for r in d.rows if r > c) for c in range(d.rows[0])] if d.rows else []
    bits = []
    for i, h in enumerate(heights):
        nxt = heights[i + 1] if i + 1 < len(heights) else 1
        bits.append(1)
        bits.extend([0] * (h - nxt))
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


def _cell_set_young_of_ideal(rs, a):
    """The ideal's cells as a set, each row's width counted over all the
    cells, and the shape's cells rebuilt to compare."""
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
    rows = []
    for r in range(1, l + 1):
        width = sum(1 for (row, _col) in cells if row == r)
        if width:
            rows.append(width)
    d = YoungDiagram(rows)
    shape_cells = {(r + 1, c + 1) for r, width in enumerate(d.rows) for c in range(width)}
    if shape_cells != cells:
        raise ValueError("ideal cells are not a left-justified shape")
    return d


def _per_coordinate_ideal_of_young(rs, d):
    """Each cell's root built one coordinate at a time."""
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


@pytest.mark.parametrize("rank", range(1, 12))
def test_young_bridge_matches_the_cell_set_and_coordinate_forms(rank):
    rs, n = build(f"A{rank}"), rank + 1
    for a in enumerate_all(rs):
        d = young_of_ideal(rs, a)
        assert d == _cell_set_young_of_ideal(rs, a), a
        assert ideal_of_young(rs, d) == _per_coordinate_ideal_of_young(rs, d) == a
        assert young_encode(d, n) == _bit_list_young_encode(d, n)
    # root sets that are mostly not shapes, a repeated root, and a
    # non-root placed after roots that are not a shape either
    rng = random.Random(rank)
    roots = rs.positive_roots
    cases = [make_ideal(rng.sample(roots, rng.randint(1, len(roots)))) for _ in range(200)]
    cases.append(AbelianIdeal((rs.theta, rs.theta)))
    for a in cases[:20]:
        cases.append(AbelianIdeal(a.roots + ((2,) * rank,)))
        cases.append(AbelianIdeal(a.roots + ((1,) * (rank + 1),)))
    texts = set()
    for a in cases:
        got = _raised(young_of_ideal, rs, a)
        assert got == _raised(_cell_set_young_of_ideal, rs, a), a
        if not isinstance(got, YoungDiagram):
            texts.add(got[1])
    # hooks up to l + 2 against the rank and against the code's width
    for d in young_lattice(n + 2):
        assert _raised(ideal_of_young, rs, d) == _raised(_per_coordinate_ideal_of_young, rs, d)
        assert _raised(young_encode, d, n) == _raised(_bit_list_young_encode, d, n)
    if rank >= 3:
        assert texts >= {"rows must be weakly decreasing",
                         "ideal cells are not a left-justified shape",
                         f"{(2,) * rank} is not a positive root of A{rank}"}


@pytest.mark.parametrize("label", ["B3", "C2", "D4", "G2"])
def test_young_bridge_rejects_other_types_as_the_references_do(label):
    rs = build(label)
    for a in (make_ideal(()), make_ideal((rs.theta,))):
        assert (_raised(young_of_ideal, rs, a) == _raised(_cell_set_young_of_ideal, rs, a)
                == (ValueError, "the staircase picture requires type A"))
    for d in young_lattice(4):
        assert (_raised(ideal_of_young, rs, d) == _raised(_per_coordinate_ideal_of_young, rs, d)
                == (ValueError, "the staircase picture requires type A"))


def _per_bit_non_ideal_masks(rs, rng, count):
    """The mask sampler with `rng.randrange` in every draw, each draw
    tested bit by bit against the drawn roots' cover and conflict masks."""
    n = rs.num_positive
    if n == 1:
        return []
    covers, conflicts = rs.cover_masks, rs.conflict_masks
    full = (1 << n) - 1
    out = []
    while len(out) < count:
        k = 1 + rng.randrange(n)
        drawn = min(k, n - k)
        mask = 0
        for j in range(n - drawn, n):
            t = rng.randrange(j + 1)
            mask |= 1 << (j if mask >> t & 1 else t)
        if drawn < k:
            mask ^= full
        if any(covers[i] & ~mask or conflicts[i] & mask for i in mask_bits(mask)):
            out.append(mask)
    return out


def _tuple_kostant_mask_raw(rs):
    """The mask kernel before its single product: per-byte tables of the
    packed roots with 2 raw(rho, root) in a top field, the sum unpacked to
    a tuple, and raw(sigma, sigma) summed over the nonzero form entries."""
    rank, form = rs.rank, rs.form
    top = rs.pack_width * rank
    packed = [p + (rs.twice_raw_rho(root) << top)
              for p, root in zip(rs.packed_roots, rs.positive_roots)]
    tables = []
    for start in range(0, len(packed), 8):
        chunk = packed[start:start + 8]
        table = [0] * 256
        for v in range(1, 1 << len(chunk)):
            low = v & -v
            table[v] = table[v ^ low] + chunk[low.bit_length() - 1]
        tables.append(table)
    nbytes = len(tables)
    quad = [(i, j, form[i][j] + form[j][i] if i < j else form[i][i])
            for i in range(rank) for j in range(i, rank) if form[i][j] or form[j][i]]

    def raw(mask):
        total = sum(map(list.__getitem__, tables, mask.to_bytes(nbytes, "little")))
        sigma = rs.unpack(total)
        return (total >> top) + sum(a * sigma[i] * sigma[j] for i, j, a in quad)

    return raw


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_kostant_tables_and_product_match_the_per_bit_and_tuple_forms(label):
    rs = build(label)
    n = rs.num_positive
    masks = []
    for seed, count in ((f"kostant:{label}", 1000), (f"sizes:{label}", 20 * n)):
        drawn = _random_non_ideal_masks(rs, random.Random(seed), count)
        assert drawn == _per_bit_non_ideal_masks(rs, random.Random(seed), count)
        masks += drawn
    masks += list(catalog_of(rs).masks) + [(1 << n) - 1]
    raw, ref = _kostant_mask_raw(rs), _tuple_kostant_mask_raw(rs)
    assert [raw(m) for m in masks] == [ref(m) for m in masks]
