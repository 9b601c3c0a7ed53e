#!/usr/bin/env python3
"""Benchmark of the abideal command line and library.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src.  One
client runs one command or query at a time (a closed loop, no threads), each
CLI command in a fresh interpreter.  Every output is checked against answers
that perfbench/checkers.py computes without abideal.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer spans and
counts of one traced pass with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from statistics import median

import checkers
from checkers import CheckFailed, expect, roots_of, ideals_of

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SPAWN = os.path.join(HERE, "spawn.py")
PY = sys.executable
CHILD_TIMEOUT_S = 170.0

SETUP_PROBES_PER_COMMAND = 2   # fresh interpreter + import abideal.cli
API_WORKERS = 3                # each sets up once, then answers queries

CLI_COMMANDS = (             # E8 cold, then the sweep over the 22 types of rank <= 6
    ("info_e8_s", ("info", "E8")),
    ("ideals_e8_s", ("ideals", "E8", "--json")),
    ("hasse_e8_s", ("hasse", "E8", "--dot", "-")),
    ("verify_e8_s", ("verify", "E8")),
    ("verify_all6_s", ("verify", "--all", "--max-rank", "6")),
    ("tables6_s", ("tables", "--max-rank", "6")),
    ("young11_s", ("young", "11", "--list")),
)
API_TYPES = ("A9", "D6", "E6", "E8", "F4")
PER_TYPE = {"subset": 8, "decode": 8, "weyl": 8, "young": 8}   # queries per type per round; young on type A

WORKLOAD_TYPES = {
    "cli_cold": ("E8",) + tuple(checkers.types_up_to(6)),
    "api_warm": API_TYPES,
}


# ----------------------------------------------------------------------
# child processes

class Child:
    """One finished command: exit code, output, wall time and peak RSS, as
    measured by perfbench/spawn.py around it."""

    def __init__(self, argv, stdin: bytes = b"") -> None:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        report_r, report_w = os.pipe()
        proc = subprocess.Popen([PY, SPAWN, str(report_w), *argv], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
                                pass_fds=(report_w,), start_new_session=True)
        os.close(report_w)
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(timeout=max(deadline - time.perf_counter(), 0.0))
                if not ready:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)     # spawn.py and the command
                    except ProcessLookupError:
                        pass
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        proc.wait()
        with os.fdopen(report_r) as f:
            line = f.read().split()
        self.stdout = b"".join(chunks[proc.stdout]).decode()
        self.stderr = b"".join(chunks[proc.stderr]).decode()
        self.name = " ".join(argv[2:]) if argv[1] == "-m" else os.path.basename(argv[-1])
        if proc.returncode != 0 or len(line) != 3:
            self.exit, self.wall_s, self.rss_mb = proc.returncode or -1, CHILD_TIMEOUT_S, 0.0
            return
        self.exit = int(line[0])
        self.wall_s = float(line[1])
        self.rss_mb = int(line[2]) / 1024.0          # ru_maxrss is in KiB on Linux

    def reply(self) -> dict:
        """The worker's JSON reply; a crash becomes CheckFailed."""
        expect(self.exit == 0, f"worker exited {self.exit}: {self.stderr.strip()[-400:]}")
        return json.loads(self.stdout)


def cli(args) -> Child:
    return Child([PY, "-m", "abideal.cli", *args])


def worker(request: dict) -> Child:
    return Child([PY, WORKER], json.dumps(request).encode())


# ----------------------------------------------------------------------
# inputs

def _stratified(rng: random.Random, k: int, n: int) -> float:
    """A point of the k-th of n equal slices of [0, 1)."""
    return (k + rng.random()) / n


def make_queries(types, rng: random.Random):
    """A seeded query list.  Sizes, word lengths and coset positions are
    drawn from equal slices of their ranges, so every seed asks for about
    the same amount of work."""
    queries = []
    for label in types:
        rs = roots_of(label)
        ideals = sorted((sorted(a) for a in ideals_of(label)), key=lambda a: (len(a), a))
        pos = rs.positive
        n = PER_TYPE["subset"]
        for k in range(n):
            a = set(ideals[int(_stratified(rng, k, n) * len(ideals))])
            mode = k % 3
            if mode == 1:        # a random set of roots, usually not an ideal
                a = set(rng.sample(pos, 1 + int(_stratified(rng, k, n) * min(len(pos), 2 * rs.rank))))
            elif mode == 2:      # an ideal with one root toggled
                a ^= {rng.choice(pos)}
            queries.append({"kind": "subset", "type": label, "roots": sorted(a)})
        longs = sorted(rs.long_positive(), key=lambda r: (rs.distance_to_theta(r), r))
        n = PER_TYPE["decode"]
        for k in range(n):
            phi = longs[int(_stratified(rng, k, n) * len(longs))]
            queries.append({"kind": "decode", "type": label, "phi": list(phi), "at": rng.random()})
        n = PER_TYPE["weyl"]
        for k in range(n):
            length = 1 + int(_stratified(rng, k, n) * 3 * rs.rank)
            queries.append({"kind": "weyl", "type": label,
                            "word": [rng.randint(1, rs.rank) for _ in range(length)]})
        if label[0] == "A":
            n = PER_TYPE["young"]
            for k in range(n):
                a = ideals[int(_stratified(rng, k, n) * len(ideals))]
                queries.append({"kind": "young", "type": label, "roots": a})
    rng.shuffle(queries)
    return queries


# ----------------------------------------------------------------------
# statistics

def nearest_rank(xs, p: float) -> float:
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def best_round(rounds) -> float:
    """The time of one round of queries, each taking its fastest latency over
    all rounds of the run.  The machine's speed drifts by a fifth or more,
    within a second and over 10-20 s.  A query lasts milliseconds and is
    answered 60 times or more across the run, so its fastest answer is what it
    costs when nothing else slows it; a whole round of 0.3 s is seldom that
    lucky, and the median round says which phase a run fell in."""
    return sum(min(lat) for lat in zip(*(rnd["latencies"] for rnd in rounds)))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class OpError(Exception):
    """An operation crashed or exited nonzero, so it has no output to check."""


class Tally:
    """Operations attempted and failed.  A crash only fails its operation;
    a wrong output also makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def run(self, check, *args) -> None:
        self.attempted += 1
        try:
            check(*args)
        except (OpError, CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failed += 1
            self.wrong += not isinstance(exc, OpError)
            if len(self.reasons) < 5:
                self.reasons.append(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# untraced workloads

def _crash(child: Child) -> OpError:
    return OpError(f"{child.name} exited {child.exit}: {child.stderr.strip()[-300:]}")


def check_output(child: Child, check, *args):
    if child.exit != 0:
        raise _crash(child)
    return check(child.stdout, *args)


def check_verify(child: Child, labels) -> None:
    """verify exits 1 to report a FAIL; without its summary line, it crashed."""
    if child.exit != 0 and "\nresult: " not in "\n" + child.stdout:
        raise _crash(child)
    checkers.check_verify(child.stdout, child.exit, labels)


def check_cli_round(outs, tally: Tally) -> None:
    found = {}

    def ideals():
        found["E8"] = check_output(outs["ideals_e8_s"], checkers.check_ideals_json, "E8")

    tally.run(check_output, outs["info_e8_s"], checkers.check_info, "E8")
    tally.run(ideals)
    tally.run(lambda: check_output(outs["hasse_e8_s"], checkers.check_dot, "E8", found["E8"]))
    tally.run(check_verify, outs["verify_e8_s"], ["E8"])
    tally.run(check_verify, outs["verify_all6_s"], checkers.types_up_to(6))
    tally.run(check_output, outs["tables6_s"], checkers.check_tables, 6)
    tally.run(check_output, outs["young11_s"], checkers.check_young_list, 11)


def run_cli(commands, check_round, seconds: float, report):
    """Rounds of fresh-process commands.  Set-up is probed before every
    command, outside the round's time, so its median spans the whole run."""
    setups = []
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        outs = {}
        for name, args in commands:
            for _ in range(SETUP_PROBES_PER_COMMAND):
                probe = Child([PY, "-c", "import abideal.cli"])
                expect(probe.exit == 0, f"cannot import abideal.cli from {SRC}: {probe.stderr.strip()[-300:]}")
                setups.append(probe)
            outs[name] = cli(args)
        rounds.append((sum(c.wall_s for c in outs.values()), outs))
    tally = Tally()
    for _, outs in rounds:
        check_round(outs, tally)
    children = setups + [c for _, outs in rounds for c in outs.values()]
    for name, _ in commands:
        report(name, median([outs[name].wall_s for _, outs in rounds]), "s")
    for name, _ in commands:
        report(name.replace("_s", "_rss_mb"), max(outs[name].rss_mb for _, outs in rounds), "MiB")
    report("rounds", len(rounds), "count")
    report("round_median_s", median([w for w, _ in rounds]), "s")
    metrics = {
        "setup_s": metric(median([s.wall_s for s in setups]), "s"),
        "wall_s": metric(median([w for w, _ in rounds]), "s"),
        "peak_rss_mb": metric(max(c.rss_mb for c in children), "MiB"),
    }
    return tally, metrics


class QueryChecker:
    """Checks every result; a result already verified for the same query
    is not recomputed."""

    def __init__(self, queries) -> None:
        self.queries = queries
        self.verified = set()

    def __call__(self, i: int, result: dict) -> None:
        if "error" in result:
            raise OpError(result["error"])
        key = (i, json.dumps(result, sort_keys=True))
        if key not in self.verified:
            checkers.check_query(self.queries[i], result)
            self.verified.add(key)


def run_api(seed: int, seconds: float, report):
    """API_WORKERS fresh workers in turn, each setting up and then answering
    the query list for its share of the run: set-up is measured in each, and
    the query rounds are spread over the whole run."""
    queries = make_queries(API_TYPES, random.Random(seed))
    request = {"mode": "api", "types": API_TYPES, "queries": queries, "seconds": seconds / API_WORKERS}
    workers = [worker(request) for _ in range(API_WORKERS)]
    replies = [w.reply() for w in workers]
    rounds = [rnd for r in replies for rnd in r["rounds"]]
    tally = Tally()
    check = QueryChecker(queries)
    for r in replies:
        for rnd in r["rounds"]:
            changed = dict(rnd["changed"])
            for i, result in enumerate(r["first"]):
                tally.run(check, i, changed.get(i, result))
    latencies = [x for rnd in rounds for x in rnd["latencies"]]
    walls = [rnd["wall_s"] for rnd in rounds]
    report("queries_per_s", len(latencies) / sum(r["wall_s"] for r in replies), "1/s")
    report("query_p50_ms", 1e3 * median(latencies), "ms")
    report("query_p99_ms", 1e3 * nearest_rank(latencies, 0.99), "ms")
    report("queries_per_round", len(queries), "count")
    report("rounds", len(rounds), "count")
    report("round_median_s", median(walls), "s")
    report("round_p10_s", nearest_rank(walls, 0.1), "s")
    for k, w in enumerate(workers):
        report(f"worker{k}_rss_mb", w.rss_mb, "MiB")
    metrics = {
        "setup_s": metric(median([r["setup_s"] for r in replies]), "s"),
        "wall_s": metric(best_round(rounds), "s"),
        "peak_rss_mb": metric(max(w.rss_mb for w in workers), "MiB"),
    }
    return tally, metrics


# ----------------------------------------------------------------------
# traced pass

def run_traced(workload: str, seed: int, report):
    types = WORKLOAD_TYPES[workload]
    queries = make_queries(types, random.Random(seed))
    render = [argv for t in types for argv in (["ideals", t, "--json"], ["hasse", t, "--dot", "-"])]
    child = worker({"mode": "layers", "types": types, "queries": queries, "render": render})
    reply = child.reply()

    tally = Tally()
    for c in reply["checks"]:
        tally.run(expect, c["passed"], f"{c['type']} {c['name']}: {c['details']}")
    check = QueryChecker(queries)
    for i, result in enumerate(reply["results"]):
        tally.run(check, i, result)
    found = {}

    def check_render(out):
        command, label = out["argv"][:2]
        if out["exit"] != 0:
            raise OpError(f"{' '.join(out['argv'])} returned {out['exit']}")
        if command == "ideals":
            found[label] = checkers.check_ideals_json(out["stdout"], label)
        else:
            checkers.check_dot(out["stdout"], label, found[label])

    for out in reply["outputs"]:
        tally.run(check_render, out)
    tally.run(lambda: expect(reply["counts"]["count.ideals"] == sum(2 ** roots_of(t).rank for t in types),
                             "catalogs do not hold 2^rank ideals per type"))

    spans = reply["spans"]
    covered = sum(spans.values())
    passes = reply["overhead"]
    traced, untraced = passes["traced_s"], passes["untraced_s"]
    report("traced_wall_s", child.wall_s, "s")
    report("query_pass_traced_s", traced, "s")
    report("query_pass_untraced_s", untraced, "s")
    metrics = {name: metric(value, "s") for name, value in sorted(spans.items())}
    metrics.update({name: metric(value, "count") for name, value in reply["counts"].items()})
    metrics["trace.overhead_pct"] = metric(100.0 * (traced - untraced) / untraced, "%")
    measured = child.wall_s - traced - untraced
    metrics["trace.uncovered_pct"] = metric(100.0 * (1.0 - covered / measured), "%")
    return tally, metrics


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abideal", "cli.py")):
        print(f"perfbench: no abideal sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compiled = Child([PY, "-m", "compileall", "-q", SRC])
    if compiled.exit != 0:
        print(f"perfbench: cannot compile {SRC}: {compiled.stdout}{compiled.stderr}", file=sys.stderr)
        return 2

    def report(name, value, unit):
        print(f"  {name:<34} {value:14.4f} {unit}" if isinstance(value, float) else f"  {name:<34} {value:>14} {unit}")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    try:
        if args.trace:
            tally, metrics = run_traced(args.workload, args.seed, report)
        elif args.workload == "cli_cold":
            tally, metrics = run_cli(CLI_COMMANDS, check_cli_round, args.seconds, report)
        else:
            tally, metrics = run_api(args.seed, args.seconds, report)
    except (CheckFailed, ValueError, KeyError) as exc:
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        report(name, m["value"], m["unit"])
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
