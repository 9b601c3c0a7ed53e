"""Named invariant checks, one function per verification concern.

Each check takes a built root system and returns a :class:`CheckResult`
with a stable name, so reports stay machine-comparable across runs.  The
heavy inputs (coset words, catalogs, cover graphs) are cached per root
system in their home modules; cross-checks between independent
constructions run here, once, inside named checks.
"""

from __future__ import annotations

import random
from itertools import islice
from operator import mul
from typing import Callable, Container, Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple

from . import ideals, weyl
from .affine import (
    affine_cartan_matrix,
    affine_inversion_set,
    coset_poincare,
    perp_generators,
    rho_shift,
)
from .hasse import (
    _expected_facet_terms,
    _facet_determinants,
    build_graph,
    hasse_automorphism_name,
    upper_alcoves,
    verify_cover_structure,
)
from .ideals import (
    InvariantViolation,
    _long_root_of_mask,
    _max_dimension_of,
    catalog_of,
    forbidden_roots,
    kostant_raw,
    long_simple_nodes,
    make_ideal,
    mask_bits,
    maximal_ideals,
    sum_formula_report,
)
from .qpoly import Poly, poly_divexact, poly_eval_one
from .reference import (
    GALLERY_A11_LEFT_STEPS,
    GALLERY_A11_LEFT_WORD,
    GALLERY_A11_RIGHT_STEPS,
    GALLERY_A11_RIGHT_WORD,
    GALLERY_A11_RIM_CODE,
    GALLERY_A11_SHAPE,
    REFERENCE_DECOMPOSITIONS,
    reference_fiber_poly,
    reference_first_sum_per_node,
    reference_hasse_group,
    reference_max_dimension,
    reference_max_dimension_multiplicity,
    reference_num_long_positive,
    reference_theta_quotient,
    reference_word_to_theta,
)
from .root_system import RootSystem, _ratio_text, build, vneg, vsub
from .weyl import (
    Matrix,
    apply_word,
    minimal_word_to_theta,
    subgroup_poincare,
    weyl_poincare,
)
from .young import ideal_of_young, young_encode, young_of_ideal


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""


def _ok(name: str, details: str = "") -> CheckResult:
    return CheckResult(name, True, details)


def _fail(name: str, details: str) -> CheckResult:
    return CheckResult(name, False, details)


def _compact(root: Sequence[int]) -> str:
    return "".join(str(c) for c in root)


# ----------------------------------------------------------------------
# normalization of the invariant form

def check_normalization(rs: RootSystem) -> CheckResult:
    """Five exact identities pinning the scale of the bilinear form, each a
    raw value over its denominator against the expected fraction, compared
    cross-multiplied in integers.  Here rho is half the sum of the positive
    roots, `rs.two_rho`; g came from <rho, alpha_i-check> = 1 on the form's
    diagonal, so casimir and strange hold the two routes to rho together."""
    raw, den, g = rs.raw_inner, rs.form_den, rs.dual_coxeter_number
    two_rho, theta = rs.two_rho, rs.theta
    theta_raw = raw(theta, theta)
    simples = map(rs.simple_root, range(1, rs.rank + 1))
    identities = (
        # (rho+theta | rho+theta) - (rho | rho) = (2rho | theta) + (theta | theta)
        ("casimir", raw(two_rho, theta) + theta_raw, den, 1, 1),
        ("theta_norm", theta_raw, den, 1, g),
        ("strange", raw(two_rho, two_rho), 4 * den, rs.dimension, 24),
        ("root_norm_sum", 2 * sum(raw(r, r) for r in rs.positive_roots), den, rs.rank, 1),
        ("mark_weighted", theta_raw + sum(n * raw(a, a) for n, a in zip(rs.marks, simples)), den, 1, 1),
    )
    bad = [f"{name}: {_ratio_text(got, got_den)} != {_ratio_text(want, want_den)}"
           for name, got, got_den, want, want_den in identities if got * want_den != want * got_den]
    if bad:
        return _fail("normalization", "; ".join(bad))
    return _ok("normalization", f"five identities hold, 1/|theta|^2 = {g}")


# ----------------------------------------------------------------------
# counting and the quadratic criterion

def check_ideal_count(rs: RootSystem) -> CheckResult:
    cat = catalog_of(rs)
    expected = 2 ** rs.rank
    if len(cat) != expected:
        return _fail("ideal_count", f"enumerated {len(cat)}, expected {expected}")
    return _ok("ideal_count", f"{expected} abelian ideals")


def _non_ideal_draws(rs: RootSystem, rng: random.Random, index: Container[int],
                     packed: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Endless random masks over rs.positive_roots that `index` does not
    hold, repeats included, each with the sum of `packed` over its set
    bits; none at rank one, where every subset of the single positive root
    is an ideal.

    Each draw takes its size k uniform in 1..n, then a uniform k-subset by
    Floyd's algorithm (Bentley and Floyd, "A sample of brilliance", CACM
    30(9), 1987), drawn as its complement when k > n/2; the sum grows with
    each root the subset takes.  Every `rng.randrange(m)` is inlined as
    CPython's rejection loop, getrandbits(m.bit_length()) until below m, so
    the draws read the method's stream: this is the sampler's hot loop."""
    n = rs.num_positive
    if n == 1:
        return
    full, everything = (1 << n) - 1, sum(packed)
    getrandbits = rng.getrandbits
    size_bits = n.bit_length()
    single = [1 << j for j in range(n)]
    # plans[k - 1]: for size k, Floyd's steps (j, the bit length of j + 1,
    # bit j), and whether the subset is drawn as its complement
    steps = [(j, (j + 1).bit_length(), single[j]) for j in range(n)]
    plans = [(steps[n - min(k, n - k):], k > n - k) for k in range(1, n + 1)]
    while True:
        r = getrandbits(size_bits)
        while r >= n:
            r = getrandbits(size_bits)
        todo, complement = plans[r]
        mask = total = 0
        for j, b, bit in todo:
            t = getrandbits(b)
            while t > j:
                t = getrandbits(b)
            if mask & single[t]:
                mask |= bit
                total += packed[j]
            else:
                mask |= single[t]
                total += packed[t]
        if complement:
            mask ^= full
            total = everything - total
        if mask not in index:
            yield mask, total


def _kostant_fields(rs: RootSystem) -> Tuple[List[Tuple[int, ...]], int, int]:
    """The form column F r of each positive root r, the offset c that makes
    every entry of every column non-negative, and the field width of
    `_kostant_kernel`: the bit length of the largest field it reaches,
    which is reached on the set of all positive roots, as every field
    grows with the set."""
    form, rank = rs.form, rs.rank
    columns = [tuple(sum(map(mul, row, root)) for row in form) for root in rs.positive_roots]
    offset = max(0, -min(map(min, columns)))
    sigma = rs.two_rho
    upper = [sum(col[i] for col in columns) + offset * len(columns) + form[i][i]
             for i in range(rank)]
    # fields 0..rank-1 of the product of the coordinate half and the upper half
    products = [sum(sigma[i] * upper[i + rank - 1 - m] for i in range(m + 1)) for m in range(rank)]
    return columns, offset, max(*products, *upper, sum(sigma)).bit_length()


def _kostant_kernel(rs: RootSystem) -> Tuple[List[int], Callable[[int, int], int]]:
    """Each positive root packed into one int, and `value`, which takes the
    sum of the packed roots of a set S and |S| to `kostant_raw` of the sum
    sigma of S.

    Fields are w bits wide (`_kostant_fields`).  Each root packs its
    coordinates in fields 0..rank-1, its height in field rank, and above
    those its form column plus the offset c, in reversed order (entry i in
    field rank-1-i of the upper half).  Adding the form's diagonal to the
    upper half's fields, the product of the two halves carries in its field
    rank-1

        sum_i sigma_i ((F sigma)_i + c |S| + F_ii)
            = raw(sigma, sigma) + 2 raw(rho, sigma) + c |S| ht(sigma),

    as raw(rho, alpha_i) = F_ii / 2.  Every field of the sum, and every
    field of the product up to rank-1, is at most its value on all
    positive roots, which fits in w bits, so nothing carries between
    fields."""
    rank = rs.rank
    columns, offset, width = _kostant_fields(rs)
    top = width * (rank + 1)
    packed = [sum(x << width * i for i, x in enumerate(root)) + (sum(root) << width * rank)
              + (sum((x + offset) << width * (rank - 1 - i) for i, x in enumerate(col)) << top)
              for root, col in zip(rs.positive_roots, columns)]
    diagonal = sum(rs.form[i][i] << width * (rank - 1 - i) for i in range(rank))
    field = (1 << width) - 1
    low = (1 << width * rank) - 1
    middle, height = width * (rank - 1), width * rank

    def value(total: int, size: int) -> int:
        product = (total & low) * ((total >> top) + diagonal)
        return (product >> middle & field) - offset * size * (total >> height & field)

    return packed, value


KOSTANT_SAMPLES = 1000   # random non-ideal subsets per type


def check_kostant(rs: RootSystem) -> CheckResult:
    """|rho + sum|^2 - |rho|^2 = dim on ideals, strictly below elsewhere;
    both sides are compared times form_den, in integers, on masks.

    The mask kernel is first held to `kostant_raw` of the packed sum of all
    positive roots read back by `rs.unpack`: that sum is where every field
    of the kernel and of the root system's packing is largest, so a width
    too narrow for either shows there.  A random draw is an ideal when the
    catalog's index holds its mask; the other draws (`_non_ideal_draws`,
    which sums their packed roots as it draws them) must fall strictly
    below, so an ideal the catalog lacks fails here.  Each distinct mask
    among them is tested once, in draw order, so the first failure is the
    first failing draw."""
    cat = catalog_of(rs)
    den = rs.form_den
    packed, value = _kostant_kernel(rs)
    n = rs.num_positive
    if value(sum(packed), n) != kostant_raw(rs, rs.unpack(sum(rs.packed_roots))):
        return _fail("kostant", "mask kernel and packed sum disagree on all positive roots")
    for a, mask in zip(cat.ideals, cat.masks):
        if value(sum(map(packed.__getitem__, mask_bits(mask))), mask.bit_count()) != a.dim * den:
            return _fail("kostant", f"equality fails on ideal {[_compact(r) for r in a.roots]}")

    draws = _non_ideal_draws(rs, random.Random(f"kostant:{rs.simple_type}"), cat.index, packed)
    kept, tested = 0, set()
    for mask, total in islice(draws, KOSTANT_SAMPLES):
        kept += 1
        if mask in tested:
            continue
        tested.add(mask)
        size = mask.bit_count()
        if value(total, size) >= size * den:
            return _fail("kostant", f"non-ideal subset of size {size} not strictly below")
    tail = (f"{kept} random non-ideal subsets strictly below"
            if kept else "no non-ideal subsets exist at rank one")
    return _ok("kostant", f"equality on {len(cat)} ideals; {tail}")


def check_parametrization(rs: RootSystem) -> CheckResult:
    """Nonzero ideals are hit once each by (long root, minimal coset word).
    The catalog is one walk of the word tree, each word's ideal the roots
    of the walls it crosses; its masks must be the enumeration's
    (`ideals._enumerate_masks`), in order.  Independently, each word's
    rho-shift (`affine.rho_shift`, walked from rho) must be its ideal's
    root sum, which names the ideal, as no two ideals share a root sum.
    `associated_long_root`, read off the ideal's mask
    (`_long_root_of_mask`), must find the parameter's root."""
    cat = catalog_of(rs)
    masks = ideals._enumerate_masks(rs)[1]
    if cat.masks != masks:
        return _fail("parametrization", f"the walk's {len(cat)} ideals are not the "
                     f"{len(masks)} enumerated ones, in (dim, root sum) order")
    if len(set(cat.sums)) != len(cat):
        return _fail("parametrization", "two enumerated ideals share a root sum")
    params = set()
    for e, total, mask in zip(cat.entries, cat.sums, cat.masks):
        if e.phi is None:
            if e.ideal.dim != 0 or e.word != ():
                return _fail("parametrization", "unparametrized entry is not the zero ideal")
            continue
        params.add((e.phi, e.coset_word))
        if rho_shift(rs, e.word) != total:
            return _fail("parametrization",
                         f"rho-shift of ({_compact(e.phi)}, {list(e.coset_word)}) disagrees")
        assoc = _long_root_of_mask(rs, mask)
        if assoc != e.phi:
            return _fail("parametrization",
                         f"associated long root {_compact(assoc)} != parameter {_compact(e.phi)}")
        if len(e.word) != e.ideal.dim:
            return _fail("parametrization",
                         f"parameter word length {len(e.word)} != dim {e.ideal.dim}")
    if len(params) != len(cat) - 1:
        return _fail("parametrization",
                     f"{len(params)} distinct parameters for {len(cat) - 1} nonzero ideals")
    return _ok("parametrization", f"{len(params)} parameters cover all nonzero ideals once")


def check_forbidden_roots(rs: RootSystem) -> CheckResult:
    """Roots in no ideal are exactly those listed by the difference test."""
    covered = 0
    for mask in catalog_of(rs).masks:
        covered |= mask
    complement = sorted(r for k, r in enumerate(rs.positive_roots) if not covered >> k & 1)
    listed = sorted(forbidden_roots(rs))
    if complement != listed:
        return _fail("forbidden_roots",
                     f"complement {[_compact(r) for r in complement]} != "
                     f"test {[_compact(r) for r in listed]}")
    return _ok("forbidden_roots", f"{len(listed)} positive roots lie in no ideal")


# ----------------------------------------------------------------------
# words, fibers, Poincare identities

def check_word_table(rs: RootSystem) -> CheckResult:
    g = rs.dual_coxeter_number
    st = rs.simple_type
    checked = 0
    for i in long_simple_nodes(rs):
        alpha = rs.simple_root(i)
        word = minimal_word_to_theta(rs, alpha)
        if len(word) != g - 2:
            return _fail("word_table", f"node {i}: word length {len(word)} != {g - 2}")
        if apply_word(rs, word, alpha) != rs.theta:
            return _fail("word_table", f"node {i}: word does not send the root to theta")
        ref = reference_word_to_theta(st, i)
        # 2rho is regular, so two elements that agree on it are equal
        if ref is not None and apply_word(rs, ref, rs.two_rho) != apply_word(rs, word, rs.two_rho):
            return _fail("word_table", f"node {i}: element differs from the tabulated word")
        checked += 1
    return _ok("word_table", f"{checked} long nodes, all words of length {g - 2}")


def _walk_mismatch(rs: RootSystem, nodes: Sequence[int], product,
                   walks: Dict[Matrix, Poly]) -> str:
    """Empty when the coset walk of the parabolic subgroup on `nodes`, in
    their order, gives its exponent product; otherwise what differs.  The
    walk depends only on the Cartan submatrix on `nodes`, so each distinct
    submatrix is walked once and kept in `walks`."""
    sub = tuple(tuple(rs.cartan[a - 1][b - 1] for b in nodes) for a in nodes)
    walked = walks.get(sub)
    if walked is None:
        walked = walks[sub] = weyl._orbit_poincare(rs, nodes)
    return "" if walked == product else (
        f"nodes {sorted(nodes)}: coset walk {walked} != exponent product {product}")


def check_fiber_polynomials(rs: RootSystem) -> CheckResult:
    """Closed forms on long simple nodes; on every long positive root, the
    finite wall subgroup's walk against its exponent product, and the coset
    walk against the quotient of the two wall-subgroup series.

    Each root's wall letters are read once.  The two series and their
    quotient depend only on the letters, so they are formed once per
    distinct letter set, and the walk once per distinct Cartan submatrix;
    every root's own coset series is still compared, in root order."""
    st = rs.simple_type
    for i in long_simple_nodes(rs):
        got = coset_poincare(rs, rs.simple_root(i))
        want = reference_fiber_poly(st, i)
        if got != want:
            return _fail("fiber_polynomials", f"node {i}: {got} != closed form {want}")
    affine = affine_cartan_matrix(rs)
    series: Dict[Tuple[int, ...], Tuple[Poly, str]] = {}
    walks: Dict[Matrix, Poly] = {}
    for phi in rs.long_positive_roots():
        letters = perp_generators(rs, phi)
        known = series.get(letters)
        if known is None:
            finite_nodes = tuple(j for j in letters if j)
            finite = weyl.parabolic_poincare(affine, finite_nodes)
            quotient = poly_divexact(weyl.parabolic_poincare(affine, letters), finite)
            known = series[letters] = (quotient, _walk_mismatch(rs, finite_nodes, finite, walks))
        quotient, bad = known
        if bad:
            return _fail("fiber_polynomials", f"phi={_compact(phi)}: {bad}")
        walked = coset_poincare(rs, phi)
        if walked != quotient:
            return _fail("fiber_polynomials",
                         f"phi={_compact(phi)}: coset walk {walked} != Poincare quotient {quotient}")
    return _ok("fiber_polynomials",
               f"closed forms match on {len(long_simple_nodes(rs))} long nodes")


def check_theta_quotient(rs: RootSystem) -> CheckResult:
    """W(t)/W_perp(t) against its closed form and the two-shell identity,
    each series first against its coset walk, one walk per distinct Cartan
    submatrix.  A long root's shell is its `length_to_theta`, taken in
    integers; it must divide exactly and lie in 0..g-2."""
    st = rs.simple_type
    perp = tuple(j for j in perp_generators(rs, rs.theta) if j != 0)
    whole, part = weyl_poincare(rs), subgroup_poincare(rs, perp)
    walks: Dict[Matrix, Poly] = {}
    # the walk's last coset space is the largest; node 1 ends the longest
    # arm of the D and E diagrams and the long end of B and C, so walking
    # down to it keeps that space small (on E8, 240 points against 2160)
    for nodes, product in ((tuple(range(rs.rank, 0, -1)), whole), (perp, part)):
        bad = _walk_mismatch(rs, nodes, product, walks)
        if bad:
            return _fail("theta_quotient", bad)
    ratio = poly_divexact(whole, part)
    want = reference_theta_quotient(st)
    if ratio != want:
        return _fail("theta_quotient", f"{ratio} != closed form {want}")

    g = rs.dual_coxeter_number
    theta_raw = rs.raw_inner(rs.theta, rs.theta)
    shell = [0] * (2 * g - 2)
    for phi in rs.long_positive_roots():
        lv, rest = divmod(rs.twice_raw_rho(vsub(rs.theta, phi)), theta_raw)
        if rest:
            return _fail("theta_quotient",
                         f"distance from {_compact(phi)} to theta is not an integer")
        if not 0 <= lv <= g - 2:
            return _fail("theta_quotient",
                         f"distance {lv} from {_compact(phi)} to theta outside 0..{g - 2}")
        shell[lv] += 1
        shell[2 * g - 3 - lv] += 1
    if tuple(shell) != ratio:
        return _fail("theta_quotient", "quotient is not the two-shell length sum")

    nu = reference_num_long_positive(st)
    if len(rs.long_positive_roots()) != nu:
        return _fail("theta_quotient", f"{len(rs.long_positive_roots())} long roots, expected {nu}")
    if poly_eval_one(ratio) != 2 * nu:
        return _fail("theta_quotient", f"value at one {poly_eval_one(ratio)} != {2 * nu}")
    return _ok("theta_quotient", f"degree {len(ratio) - 1}, value at one {2 * nu}")


def check_first_sum(rs: RootSystem) -> CheckResult:
    rep = sum_formula_report(rs)
    if not rep.first_holds:
        return _fail("first_sum", f"total {rep.first_total} != {rep.first_expected}")
    want = reference_first_sum_per_node(rs.simple_type)
    if want is not None and rep.per_node != want:
        return _fail("first_sum", f"per-node counts {rep.per_node} != {want}")
    per = "" if rep.per_node is None else f", per node {list(rep.per_node)}"
    return _ok("first_sum", f"total {rep.first_total} = 2^{rs.rank} - 1{per}")


def check_second_sum(rs: RootSystem) -> CheckResult:
    rep = sum_formula_report(rs)
    if not rep.second_holds:
        return _fail("second_sum", f"total {rep.second_total} != {rep.second_expected}")
    return _ok("second_sum", f"mark-weighted total {rep.second_total} = 2^{rs.rank - 1}")


# ----------------------------------------------------------------------
# extremal ideals

def check_max_dimension(rs: RootSystem) -> CheckResult:
    """`max_dimension`, read off the catalog's masks, which the other checks hold."""
    st = rs.simple_type
    rep = _max_dimension_of(rs, [m.bit_count() for m in catalog_of(rs).masks])
    want = reference_max_dimension(st)
    if rep.value != want:
        return _fail("max_dimension", f"maximum {rep.value} != {want}")
    want_mult = reference_max_dimension_multiplicity(st)
    if rep.multiplicity != want_mult:
        return _fail("max_dimension",
                     f"multiplicity {rep.multiplicity} != {want_mult}")
    for g, n_hat, n_perp, value in rep.decompositions:
        if g - 1 + n_hat - n_perp != value:
            return _fail("max_dimension", f"bad decomposition {(g, n_hat, n_perp, value)}")
    golden = REFERENCE_DECOMPOSITIONS.get(str(st))
    if golden is not None and golden not in rep.decompositions:
        return _fail("max_dimension",
                     f"decompositions {rep.decompositions} miss the tabulated {golden}")
    g, n_hat, n_perp, value = rep.decompositions[0]
    return _ok("max_dimension",
               f"max {rep.value} = {g - 1}+{n_hat}-{n_perp}, "
               f"multiplicity {rep.multiplicity}, witness nodes {list(rep.witnesses)}")


def check_maximal_ideals(rs: RootSystem) -> CheckResult:
    maxi = maximal_ideals(rs)
    nodes = long_simple_nodes(rs)
    if len(maxi) != len(nodes):
        return _fail("maximal_ideals",
                     f"{len(maxi)} maximal ideals, {len(nodes)} long simple roots")
    return _ok("maximal_ideals", f"{len(maxi)} maximal ideals, one per long simple root")


# ----------------------------------------------------------------------
# cover graph

def check_hasse_covers(rs: RootSystem) -> CheckResult:
    """The edges `build_graph` reads off the catalog's walls must be exactly
    the covers of inclusion (`verify_cover_structure`), so a wall the
    catalog lacks shows here as a missing one-root step."""
    graph = build_graph(rs)
    if graph.num_nodes != 2 ** rs.rank:
        return _fail("hasse_covers", f"{graph.num_nodes} nodes != {2 ** rs.rank}")
    for e in graph.edges:
        if not 0 <= e.letter <= rs.rank:
            return _fail("hasse_covers", f"edge letter {e.letter} out of range")
    try:
        verify_cover_structure(graph)
    except InvariantViolation as exc:
        return _fail("hasse_covers", str(exc))
    return _ok("hasse_covers", f"{len(graph.edges)} labelled one-root covers")


def check_hasse_automorphisms(rs: RootSystem) -> CheckResult:
    got = hasse_automorphism_name(rs)
    want = reference_hasse_group(rs.simple_type)
    if got != want:
        return _fail("hasse_automorphisms", f"identified {got}, expected {want}")
    return _ok("hasse_automorphisms", f"automorphism group {got}")


# ----------------------------------------------------------------------
# geometry of the doubled alcove

_UPPER_GOLDEN = {"A2": (1, 2), "C2": (2, 2), "G2": (2,)}


def _doubled_alcove_test(rs: RootSystem) -> Callable[[Sequence[int]], bool]:
    """Whether rho + shift lies in 2A, as one integer row per wall with its
    bound: dominance, 1 + <shift, alpha_i-check> >= 0 from Cartan row i,
    and the far wall, (rho + shift|theta) <= 1 times 2 form_den, from the
    form's image of theta."""
    theta = rs.theta
    far = tuple(-2 * sum(map(mul, row, theta)) for row in rs.form)
    walls = [(row, -1) for row in rs.cartan]
    walls.append((far, rs.twice_raw_rho(theta) - 2 * rs.form_den))

    def inside(shift: Sequence[int]) -> bool:
        for row, low in walls:
            if sum(map(mul, row, shift)) < low:
                return False
        return True

    return inside


def check_upper_alcoves(rs: RootSystem) -> CheckResult:
    """Every alcove of the catalog lies in 2A, as its rho-point does
    (`_doubled_alcove_test` on the root sum in `IdealCatalog.sums`), and
    the lower vertices of the upper alcoves have exactly the long simple
    types."""
    inside = _doubled_alcove_test(rs)
    for k, shift in enumerate(catalog_of(rs).sums):
        if not inside(shift):
            return _fail("upper_alcoves", f"alcove of node {k} lies beyond the doubled wall")
    ups = upper_alcoves(rs)
    types = sorted(u.lower_vertex_type for u in ups)
    if set(types) != set(long_simple_nodes(rs)):
        return _fail("upper_alcoves",
                     f"lower-vertex types {types} != long nodes {long_simple_nodes(rs)}")
    golden = _UPPER_GOLDEN.get(str(rs.simple_type))
    if golden is not None and tuple(types) != golden:
        return _fail("upper_alcoves", f"type multiset {types} != {list(golden)}")
    return _ok("upper_alcoves", f"{len(ups)} upper alcoves, vertex types {types}")


def check_facet_ratios(rs: RootSystem) -> CheckResult:
    """`facet_volume_ratios` against `expected_facet_ratios`, each ratio an
    integer over its slot 0's, compared cross-multiplied."""
    got = _facet_determinants(rs)
    want, want_den = _expected_facet_terms(rs)
    got_text = [_ratio_text(x, got[0]) for x in got]
    if len(got) != len(want) or any(x * want_den != y * got[0] for x, y in zip(got, want)):
        return _fail("facet_ratios", f"{got_text} != {[_ratio_text(y, want_den) for y in want]}")
    return _ok("facet_ratios", f"squared ratios {got_text}")


# ----------------------------------------------------------------------
# type A extras

def check_young_bridge(rs: RootSystem) -> CheckResult:
    """Ideals of A_l are the diagrams with hooks below l+1, compatibly coded."""
    n = rs.rank + 1
    codes: Set[int] = set()
    for a in catalog_of(rs).ideals:
        d = young_of_ideal(rs, a)
        if d.rows and d.max_hook > n - 1:
            return _fail("young_bridge", f"diagram {d.rows} has hook above {n - 1}")
        code = young_encode(d, n)
        if code in codes:
            return _fail("young_bridge", f"diagram {d.rows} repeats")
        codes.add(code)
        # both sides hold their roots in the canonical order
        if ideal_of_young(rs, d) != a:
            return _fail("young_bridge", f"diagram {d.rows} does not return to its ideal")
    if codes != set(range(2 ** rs.rank)):
        return _fail("young_bridge", "codes are not a bijection onto the full range")
    return _ok("young_bridge", f"{len(codes)} ideals <-> diagrams <-> codes 0..{2 ** rs.rank - 1}")


def golden_a11_check() -> CheckResult:
    """Replay the 26-step rank-11 walk, one column at a time.

    Each prefix of either word moves the base point by exactly one positive
    root, read off as an 11-bit string; the final alcove is the staircase
    diagram (5,4,4,4,4,3,2) with rim code 1697.  The steps come in one
    pass: w s_j(rho) = w(rho) - finite part of w(beta_j), so row r's step is
    minus the finite part of the word's r-th affine inversion root.
    """
    rs = build("A11")
    columns = (
        ("left", GALLERY_A11_LEFT_WORD, GALLERY_A11_LEFT_STEPS),
        ("right", GALLERY_A11_RIGHT_WORD, GALLERY_A11_RIGHT_STEPS),
    )
    for col, word, steps in columns:
        if len(word) != 26 or len(steps) != 26:
            return _fail("golden_gallery", f"{col} column is not 26 rows")
        roots = []
        for r, beta in enumerate(affine_inversion_set(rs, word), start=1):
            step_root = vneg(beta.finite)
            bits = "".join("1" if c else "0" for c in step_root)
            if bits != steps[r - 1]:
                return _fail("golden_gallery",
                             f"{col} column row {r}: step {bits} != {steps[r - 1]}")
            if not rs.is_positive_root(step_root):
                return _fail("golden_gallery",
                             f"{col} column row {r}: step is not a positive root")
            roots.append(step_root)
        shape = young_of_ideal(rs, make_ideal(roots))
        if shape.rows != GALLERY_A11_SHAPE:
            return _fail("golden_gallery", f"{col} final shape {shape.rows} != {GALLERY_A11_SHAPE}")
        if young_encode(shape, 12) != GALLERY_A11_RIM_CODE:
            return _fail("golden_gallery", f"{col} rim code != {GALLERY_A11_RIM_CODE}")
    return _ok("golden_gallery",
               "both 26-step columns replay exactly; final rim code "
               f"{GALLERY_A11_RIM_CODE}")


# ----------------------------------------------------------------------
# assembly

_CHECK_FUNCTIONS: Tuple[Tuple[str, Callable[[RootSystem], CheckResult]], ...] = (
    ("normalization", check_normalization),
    ("ideal_count", check_ideal_count),
    ("kostant", check_kostant),
    ("parametrization", check_parametrization),
    ("forbidden_roots", check_forbidden_roots),
    ("word_table", check_word_table),
    ("fiber_polynomials", check_fiber_polynomials),
    ("theta_quotient", check_theta_quotient),
    ("first_sum", check_first_sum),
    ("second_sum", check_second_sum),
    ("max_dimension", check_max_dimension),
    ("maximal_ideals", check_maximal_ideals),
    ("hasse_covers", check_hasse_covers),
    ("hasse_automorphisms", check_hasse_automorphisms),
    ("upper_alcoves", check_upper_alcoves),
    ("facet_ratios", check_facet_ratios),
)


class TypeReport(NamedTuple):
    label: str
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _checks_for(rs: RootSystem) -> List[Tuple[str, Callable[[RootSystem], CheckResult]]]:
    table = list(_CHECK_FUNCTIONS)
    if rs.simple_type.letter == "A":
        table.append(("young_bridge", check_young_bridge))
    if str(rs.simple_type) == "A11":
        table.append(("golden_gallery", lambda rs: golden_a11_check()))
    return table


def verify_type(label: str) -> TypeReport:
    """Run every check for the type; whatever a check raises is its FAIL."""
    rs = build(label)
    results: List[CheckResult] = []
    for name, fn in _checks_for(rs):
        try:
            results.append(fn(rs))
        except Exception as exc:
            results.append(_fail(name, f"raised {type(exc).__name__}: {exc}"))
    return TypeReport(label, tuple(results))

