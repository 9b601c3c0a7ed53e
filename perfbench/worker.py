"""Child process of the benchmark: the only code here that imports abideal.

Reads one JSON request on stdin and writes one JSON reply on stdout.

  {"mode": "api", "types": [...], "queries": [...], "seconds": S}
      import abideal and fill its caches for the types, timing both, then
      answer the query list again and again, one query at a time, until S
      seconds have passed.  Reports every latency, the first round's
      results and any later result that differs from them.
  {"mode": "layers", "types": [...], "queries": [...], "render": [...]}
      call the layers in dependency order over the types (see README.md),
      timing each call.  Reports span totals, counts, check results, query
      results, rendered CLI output, and the wall time of the warm query
      pass with and without the timing.

Run with PYTHONPATH pointing at the checkout's src directory.
"""

import io
import json
import sys
import time
from array import array
from contextlib import redirect_stdout

from checkers import CHECK_NAMES

START = time.perf_counter()

from abideal import (  # noqa: E402  (importing abideal is part of the timed set-up)
    associated_long_root, build, build_graph, catalog_of, checks, cli, coset_poincare,
    element_of_word, enumerate_all, from_param, hasse_automorphism_name, ideal_of_young,
    is_abelian_ideal, kostant_value, length_of_element, max_dimension, minimal_coset_reps,
    sum_formula_report, to_dot, upper_alcoves, young_decode, young_encode, young_lattice,
    young_of_ideal)
from abideal.hasse import facet_volume_ratios  # noqa: E402
from abideal.ideals import make_ideal  # noqa: E402

perf_counter = time.perf_counter
OVERHEAD_REPEATS = 4        # warm query passes with and without timing


class Spans:
    """Per-name totals of the wall time spent inside timed calls."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.totals = {}

    def call(self, name, fn, *args):
        if not self.traced:
            return fn(*args)
        t = perf_counter()
        try:
            return fn(*args)
        finally:
            self.totals[name] = self.totals.get(name, 0.0) + perf_counter() - t


def answer(rs, query, call):
    """Run one query through `call(span_name, fn, *args)`; return a JSON-ready
    result, or the error it raised."""
    try:
        return _answer(rs, query, call)
    except Exception as exc:  # reported as a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _answer(rs, query, call):
    kind = query["kind"]
    if kind == "subset":
        roots = [tuple(r) for r in query["roots"]]
        ideal = call("ideals.is_abelian_ideal_s", is_abelian_ideal, rs, roots)
        value = call("ideals.kostant_value_s", kostant_value, rs, roots)
        return {"ideal": ideal, "value": str(value)}
    if kind == "decode":
        phi = tuple(query["phi"])
        reps = minimal_coset_reps(rs, phi)
        word = reps[int(query["at"] * len(reps))]
        a = call("ideals.from_param_s", from_param, rs, phi, word)
        assoc = call("ideals.associated_long_root_s", associated_long_root, rs, a)
        return {"word": list(word), "roots": [list(r) for r in a.roots], "assoc": list(assoc)}
    if kind == "weyl":
        m = call("weyl.element_of_word_s", element_of_word, rs, query["word"])
        return {"length": call("weyl.length_of_element_s", length_of_element, rs, m)}
    if kind == "young":
        return call("young.roundtrip_s", _young_roundtrip, rs, query["roots"])
    raise ValueError(f"unknown query kind {kind!r}")


def _young_roundtrip(rs, roots):
    n = rs.rank + 1
    d = young_of_ideal(rs, make_ideal(tuple(r) for r in roots))
    code = young_encode(d, n)
    back = young_decode(code, n)
    return {"shape": list(d.rows), "code": code, "decoded": list(back.rows),
            "back": [list(r) for r in ideal_of_young(rs, back).roots]}


def run_api(req):
    """Set up, then rounds of queries on warm caches."""
    systems = {}
    for label in req["types"]:
        rs = systems[label] = build(label)
        ideals = enumerate_all(rs)
        for phi in rs.long_positive_roots():
            minimal_coset_reps(rs, phi)
        associated_long_root(rs, ideals[-1])
    setup_s = perf_counter() - START
    plain = Spans(False).call
    queries = req["queries"]
    first = None
    rounds = []
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < req["seconds"]:
        latencies, results = array("d"), []
        r0 = perf_counter()
        for q in queries:
            t = perf_counter()
            results.append(answer(systems[q["type"]], q, plain))
            latencies.append(perf_counter() - t)
        # keep later rounds small, so the worker's peak RSS is the library's:
        # only results that differ from the first round's are sent back
        changed = [[i, r] for i, r in enumerate(results) if first is not None and r != first[i]]
        first = first or results
        rounds.append({"wall_s": perf_counter() - r0, "latencies": latencies.tolist(), "changed": changed})
    return {"setup_s": setup_s, "wall_s": perf_counter() - t0, "first": first, "rounds": rounds}


def run_layers(req):
    """One pass over the layers, each filling the caches the next one reads."""
    spans = Spans(True)
    call = spans.call
    counts = {"count.ideals": 0, "count.coset_words": 0, "count.hasse_edges": 0}
    systems = {t: call("root_system.build_s", build, t) for t in req["types"]}
    for rs in systems.values():
        call("ideals.enumerate_all_s", enumerate_all, rs)
    for rs in systems.values():
        for phi in rs.long_positive_roots():
            counts["count.coset_words"] += len(call("affine.minimal_coset_reps_s", minimal_coset_reps, rs, phi))
    for rs in systems.values():
        for phi in rs.long_positive_roots():
            call("affine.coset_poincare_s", coset_poincare, rs, phi)
    for rs in systems.values():
        counts["count.ideals"] += len(call("ideals.catalog_s", catalog_of, rs))
    for rs in systems.values():
        graph = call("hasse.build_graph_s", build_graph, rs)
        counts["count.hasse_edges"] += len(graph.edges)
        call("hasse.to_dot_s", to_dot, graph)
    for rs in systems.values():
        call("ideals.sum_formula_report_s", sum_formula_report, rs)
        call("ideals.max_dimension_s", max_dimension, rs)
        call("hasse.automorphisms_s", hasse_automorphism_name, rs)
        call("hasse.upper_alcoves_s", upper_alcoves, rs)
        call("hasse.facet_ratios_s", facet_volume_ratios, rs)
    check_results = []
    for label, rs in systems.items():
        for name in CHECK_NAMES + (("young_bridge",) if label[0] == "A" else ()):
            r = call(f"checks.{name}_s", getattr(checks, f"check_{name}"), rs)
            check_results.append({"type": label, "name": r.name, "passed": r.passed, "details": r.details})
    counts["count.checks"] = len(check_results)
    for rs in systems.values():
        if rs.simple_type.letter == "A":
            call("young.lattice_s", young_lattice, rs.rank + 1)

    queries = req["queries"]
    results = [answer(systems[q["type"]], q, call) for q in queries]
    counts["count.queries"] = len(results)
    # each query answered with and without timing back to back, in
    # alternating order, so that drifts in machine speed cancel out
    passes = {"traced_s": 0.0, "untraced_s": 0.0}
    for k in range(OVERHEAD_REPEATS):
        pair = [("untraced_s", Spans(False).call), ("traced_s", Spans(True).call)]
        for q in queries:
            for key, tracer in pair[::1 - 2 * (k % 2)]:
                t = perf_counter()
                answer(systems[q["type"]], q, tracer)
                passes[key] += perf_counter() - t

    outputs = []
    for argv in req["render"]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = call("cli.render_s", cli.main, argv)
        outputs.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    return {"spans": spans.totals, "counts": counts, "checks": check_results,
            "results": results, "outputs": outputs, "overhead": passes}


def main() -> int:
    req = json.load(sys.stdin)
    reply = run_layers(req) if req["mode"] == "layers" else run_api(req)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
