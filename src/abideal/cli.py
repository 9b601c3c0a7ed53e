"""Command-line interface.

Subcommands: info, ideals, verify, hasse, tables, young.  All output is
deterministic — the same invocation always produces byte-identical text,
JSON or DOT.  Exit codes: 0 success, 1 a verification check failed,
2 usage error, 141 (128 + SIGPIPE) stdout closed early, as when piped into
`head`: the rest of the output is discarded and nothing goes to stderr.

Each subcommand imports the modules it runs when it runs, so a fresh
process loads only what its command prints: `info`, `ideals`, `hasse` and
`tables` never load the checks, the reference tables or the Young lattice,
and only `hasse` loads the Hasse graph.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence

from .root_system import _RANK_BOUNDS, RootSystem, SimpleType, build, clear_system_caches, supported_types

if TYPE_CHECKING:
    from .checks import TypeReport
    from .ideals import IdealCatalog
    from .young import YoungDiagram

_VALID_TYPES = ", ".join(f"{f}{lo}" + (f"-{f}{hi}" if hi > lo else "")
                         for f, (lo, hi) in _RANK_BOUNDS.items())


def _type_arg(text: str) -> str:
    try:
        return str(SimpleType.parse(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid type {text!r}; valid families and ranks: {_VALID_TYPES}")


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(obj) -> None:
    import json
    _print(json.dumps(obj, indent=2))


# ----------------------------------------------------------------------
# info

def _cmd_info(args: argparse.Namespace) -> int:
    from .ideals import enumerate_all, long_simple_nodes
    rs = build(args.type)
    ideals = enumerate_all(rs)
    rows = [
        ("type", str(rs.simple_type)),
        ("rank", rs.rank),
        ("dimension", rs.dimension),
        ("positive roots", rs.num_positive),
        ("long positive roots", len(rs.long_positive_roots())),
        ("coxeter number", rs.coxeter_number),
        ("dual coxeter number", rs.dual_coxeter_number),
        ("exponents", " ".join(str(e) for e in rs.exponents)),
        ("marks", " ".join(str(n) for n in rs.marks)),
        ("highest root", "".join(str(n) for n in rs.theta)),
        ("long simple nodes", " ".join(str(i) for i in long_simple_nodes(rs))),
        ("abelian ideals", len(ideals)),
        ("max ideal dimension", max(a.dim for a in ideals)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        _print(f"{key:<{width}}  {value}")
    return 0


# ----------------------------------------------------------------------
# ideals

def _json_list(items: Iterable[str], depth: int) -> str:
    """json.dumps(values, indent=2) of a list `depth` levels deep, from
    the JSON texts of its items."""
    item = "\n" + "  " * (depth + 1)
    body = ("," + item).join(items)
    return f"[{item}{body}\n{'  ' * depth}]" if body else "[]"


def _ideals_json(rs: RootSystem, cat: IdealCatalog) -> Iterator[str]:
    """json.dumps(doc, indent=2) + "\n" of the document

        {"schema": 1, "type": T, "count": N, "ideals": [
            {"type": T, "roots": sorted roots, "dim": d, "assoc_long_root": phi,
             "param": {"phi": phi, "coset_word": word}},   (both null for 0)
            ...]}

    one chunk per ideal, so the whole text is never held.  Each root's
    text is formatted once: a member of "roots" and a "phi" sit four
    levels deep, an "assoc_long_root" three."""
    label = f'"{rs.simple_type}"'
    member = {r: _json_list(map(str, r), 4) for r in rs.positive_roots}
    assoc = {phi: _json_list(map(str, phi), 3) for phi in rs.long_positive_roots()}
    lead = f'{{\n  "schema": 1,\n  "type": {label},\n  "count": {len(cat)},\n  "ideals": [\n'
    for e in cat.entries:
        roots = _json_list([member[r] for r in sorted(e.ideal.roots)], 3)
        if e.phi is None:
            param = 'null,\n      "param": null'
        else:
            param = (f'{assoc[e.phi]},\n      "param": {{\n        "phi": {member[e.phi]},\n'
                     f'        "coset_word": {_json_list(map(str, e.coset_word), 4)}\n      }}')
        yield (f'{lead}    {{\n      "type": {label},\n      "roots": {roots},\n'
               f'      "dim": {e.ideal.dim},\n      "assoc_long_root": {param}\n    }}')
        lead = ",\n"
    yield "\n  ]\n}\n"


def _cmd_ideals(args: argparse.Namespace) -> int:
    from .ideals import catalog_of
    rs = build(args.type)
    cat = catalog_of(rs)
    sys.stdout.writelines(_ideals_json(rs, cat) if args.json else _ideals_text(rs, cat))
    return 0


def _ideals_text(rs: RootSystem, cat: IdealCatalog) -> Iterator[str]:
    """The text listing: a header line, then one line per ideal with its
    dimension, parameter and roots, each root's text formatted once."""
    text = {r: "".join(map(str, r)) for r in rs.positive_roots}
    yield f"# {len(cat)} abelian ideals of type {rs.simple_type}\n"
    for k, e in enumerate(cat.entries):
        a = e.ideal
        phi = "-" if e.phi is None else text[e.phi]
        word = ".".join(map(str, e.coset_word)) or "-"
        roots = ",".join([text[r] for r in a.roots]) or "-"
        yield f"{k} dim={a.dim} phi={phi} coset={word} roots={roots}\n"


# ----------------------------------------------------------------------
# verify

def _report_lines(report: TypeReport) -> List[str]:
    lines = [f"== {report.label} =="]
    for r in report.results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<20} {flag}  {r.details}")
    return lines


def _report_dict(report: TypeReport) -> Dict[str, object]:
    return {
        "type": report.label,
        "passed": report.passed,
        "checks": [{"name": r.name, "passed": r.passed, "details": r.details}
                   for r in report.results],
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    """Text output prints each type's block, flushed, as soon as that type
    is verified; JSON is written once, at the end.  Once a type's report is
    recorded, the caches built for its root system are emptied, so a run
    over many types holds one type's catalog (with its alcove walls) and
    Hasse graph at a time."""
    from . import checks
    labels = [str(st) for st in supported_types(args.max_rank)] if args.all else [args.type]
    reports: List[TypeReport] = []
    for label in labels:
        reports.append(checks.verify_type(label))
        clear_system_caches()
        if not args.json:
            for line in _report_lines(reports[-1]):
                _print(line)
            sys.stdout.flush()
    passed = all(r.passed for r in reports)
    if args.json:
        if args.all:
            _dump_json({"schema": 1, "passed": passed,
                        "types": [_report_dict(r) for r in reports]})
        else:
            _dump_json({"schema": 1, **_report_dict(reports[0])})
    else:
        total = sum(len(r.results) for r in reports)
        _print(f"result: {'PASS' if passed else 'FAIL'} "
               f"({total} checks over {len(reports)} type{'s' if len(reports) > 1 else ''})")
    return 0 if passed else 1


# ----------------------------------------------------------------------
# hasse

def _cmd_hasse(args: argparse.Namespace) -> int:
    from .hasse import build_graph, to_dot
    rs = build(args.type)
    text = to_dot(build_graph(rs))
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.dot, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"abideal hasse: error: cannot write {args.dot}: {exc.strerror}\n")
            return 2
    return 0


# ----------------------------------------------------------------------
# tables

def _decomposition_str(d: Sequence[int]) -> str:
    g, n_hat, n_perp, _ = d
    return f"{g - 1}+{n_hat}-{n_perp}"


def summary_row(label: str) -> Dict[str, object]:
    """Per-type headline numbers, all integers, JSON-ready."""
    from .ideals import max_dimension, sum_formula_report
    rs = build(label)
    rep = max_dimension(rs)
    sums = sum_formula_report(rs)
    return {
        "type": label,
        "dual_coxeter_minus_one": rs.dual_coxeter_number - 1,
        "positive_roots": rs.num_positive,
        "long_positive_roots": len(rs.long_positive_roots()),
        "max_dim": rep.value,
        "max_dim_multiplicity": rep.multiplicity,
        "witness_nodes": list(rep.witnesses),
        "decompositions": [list(d) for d in rep.decompositions],
        "first_sum": {
            "total": sums.first_total,
            "expected": sums.first_expected,
            "per_node": None if sums.per_node is None else list(sums.per_node),
        },
        "second_sum": {"total": sums.second_total, "expected": sums.second_expected},
    }


def _cmd_tables(args: argparse.Namespace) -> int:
    """Each row empties the caches built for its root system, as `verify`
    does, so the run holds one type's coset words at a time."""
    rows = []
    for st in supported_types(args.max_rank):
        rows.append(summary_row(str(st)))
        clear_system_caches()
    if args.json:
        _dump_json({"schema": 1, "rows": rows})
        return 0
    header = (f"{'type':<5} {'g-1':>4} {'roots':>6} {'long':>5} {'max':>4} "
              f"{'mult':>5}  {'decomposition':<14} {'witness':<8} {'sum1':>5} {'sum2':>5}")
    _print(header)
    _print("-" * len(header))
    for row in rows:
        decs = row["decompositions"]
        witness = ",".join(str(w) for w in row["witness_nodes"])
        _print(f"{row['type']:<5} {row['dual_coxeter_minus_one']:>4} "
               f"{row['positive_roots']:>6} {row['long_positive_roots']:>5} "
               f"{row['max_dim']:>4} {row['max_dim_multiplicity']:>5}  "
               f"{_decomposition_str(decs[0]):<14} {witness:<8} "
               f"{row['first_sum']['total']:>5} {row['second_sum']['total']:>5}")
    return 0


# ----------------------------------------------------------------------
# young

def _parse_shape(text: str) -> YoungDiagram:
    from .young import YoungDiagram
    try:
        rows = tuple(int(p) for p in text.split(","))
        return YoungDiagram(rows)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}")


def _cmd_young(args: argparse.Namespace) -> int:
    from .young import young_encode, young_lattice
    n = args.rank + 1
    if args.encode is not None:
        d = args.encode
        if d.max_hook > n - 1:
            _print(f"shape {','.join(str(r) for r in d.rows)} has hook "
                   f"{d.max_hook} > {n - 1}; not in the rank-{args.rank} lattice")
            return 1
        code = young_encode(d, n)
        _print(f"{code:b} = {code}")
        return 0
    lattice = young_lattice(n)
    if args.list:
        width = len(str(len(lattice) - 1))
        sys.stdout.write("".join(
            f"{code:>{width}} {code:0{n - 1}b} {','.join(map(str, d.rows)) or '-'}\n"
            for code, d in enumerate(lattice)))
        return 0
    by_size: Dict[int, int] = {}
    for d in lattice:
        by_size[d.size] = by_size.get(d.size, 0) + 1
    _print(f"diagrams with hooks at most {n - 1}: {len(lattice)} = 2^{n - 1}")
    _print("by cell count: " + " ".join(f"{k}:{by_size[k]}" for k in sorted(by_size)))
    return 0


# ----------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abideal",
        description="Exact-arithmetic tools for abelian ideals of a Borel subalgebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="headline invariants of one type")
    p.add_argument("type", type=_type_arg)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("ideals", help="list every abelian ideal with its parameter")
    p.add_argument("type", type=_type_arg)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true", help="plain text (default)")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("verify", help="run the named invariant checks")
    p.add_argument("type", nargs="?", type=_type_arg,
                   help="one type; or use --all")
    p.add_argument("--all", action="store_true", help="all types up to --max-rank")
    p.add_argument("--max-rank", type=int, default=8, choices=range(1, 9),
                   metavar="N", help="rank bound for --all (default 8)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hasse", help="emit the labelled cover graph as DOT")
    p.add_argument("type", type=_type_arg)
    p.add_argument("--dot", required=True, metavar="PATH",
                   help="output path, or - for stdout")
    p.set_defaults(fn=_cmd_hasse)

    p = sub.add_parser("tables", help="summary table over all types")
    p.add_argument("--max-rank", type=int, default=8, choices=range(1, 9), metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("young", help="diagram lattice for the linear family")
    p.add_argument("rank", type=int, metavar="l",
                   help="rank l of the linear type ({}..{})".format(*_RANK_BOUNDS["A"]))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--encode", type=_parse_shape, metavar="R1,R2,...",
                      help="rim-code one shape given as comma-separated row lengths")
    mode.add_argument("--list", action="store_true",
                      help="every code with its shape")
    p.set_defaults(fn=_cmd_young)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.all == (args.type is not None):
        parser.error("pass exactly one of <TYPE> or --all")
    lo, hi = _RANK_BOUNDS["A"]
    if args.command == "young" and not lo <= args.rank <= hi:
        parser.error(f"rank must be between {lo} and {hi}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the
        # interpreter's final flush, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
