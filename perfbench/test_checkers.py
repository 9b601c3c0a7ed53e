"""Each output checker accepts a real output and rejects a corrupted copy.

    python3 -m unittest discover -s perfbench -p 'test_*.py'     # from the repo root
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from functools import lru_cache

import checkers
from checkers import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


@lru_cache(maxsize=None)
def cli(*args: str) -> str:
    out = subprocess.run([sys.executable, "-m", "abideal.cli", *args], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return out.stdout


class CheckerTest(unittest.TestCase):
    def assertRejects(self, check, *args):
        with self.assertRaises(CheckFailed):
            check(*args)

    def test_checkers_import_nothing_from_the_program(self):
        code = "import checkers, sys; sys.exit(any(m.startswith('abideal') for m in sys.modules))"
        subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))

    def test_root_generator_matches_the_documented_highest_roots(self):
        want = {"E6": "232211", "E7": "2343221", "E8": "23456432", "F4": "2342", "G2": "32",
                "B5": "12222", "C5": "22221", "D6": "122211", "A4": "1111"}
        for label, digits in want.items():
            self.assertEqual("".join(map(str, checkers.roots_of(label).theta)), digits)
            self.assertEqual(len(checkers.roots_of(label).positive), checkers.num_positive(label))

    def test_own_enumeration_counts_two_to_the_rank(self):
        for label in checkers.types_up_to(5):
            self.assertEqual(len(checkers.ideals_of(label)), 2 ** int(label[1:]), label)

    def test_info(self):
        text = cli("info", "E8")
        checkers.check_info(text, "E8")
        self.assertRejects(checkers.check_info, text.replace("23456432", "23456431"), "E8")

    def test_ideals_json_rejects_a_pair_summing_to_a_root(self):
        text = cli("ideals", "D4", "--json")
        checkers.check_ideals_json(text, "D4")
        doc = json.loads(text)
        rs = checkers.roots_of("D4")
        entry = next(e for e in doc["ideals"] if e["dim"] == 3)
        inside = [tuple(r) for r in entry["roots"]]
        extra = next(r for r in rs.positive if r not in inside and any(
            tuple(x + y for x, y in zip(r, s)) in rs.roots for s in inside))
        entry["roots"].append(list(extra))
        entry["dim"] += 1
        self.assertRejects(checkers.check_ideals_json, json.dumps(doc), "D4")

    def test_dot_rejects_a_dropped_edge(self):
        ideals = checkers.check_ideals_json(cli("ideals", "D4", "--json"), "D4")
        text = cli("hasse", "D4", "--dot", "-")
        checkers.check_dot(text, "D4", ideals)
        lines = text.splitlines(keepends=True)
        edge = next(k for k, line in enumerate(lines) if " -- " in line)
        self.assertRejects(checkers.check_dot, "".join(lines[:edge] + lines[edge + 1:]), "D4", ideals)

    def test_tables_rejects_a_wrong_sum_total(self):
        text = cli("tables", "--max-rank", "4")
        checkers.check_tables(text, 4)
        lines = text.splitlines()
        row = next(k for k, line in enumerate(lines) if line.startswith("B4"))
        cols = lines[row].rsplit(None, 2)
        lines[row] = f"{cols[0]} {int(cols[1]) + 1:>5} {cols[2]:>5}"
        self.assertRejects(checkers.check_tables, "\n".join(lines), 4)

    def test_young_list_rejects_a_duplicated_code(self):
        text = cli("young", "5", "--list")
        checkers.check_young_list(text, 5)
        lines = text.splitlines()
        lines[3] = lines[2]
        self.assertRejects(checkers.check_young_list, "\n".join(lines), 5)

    def test_verify_rejects_a_failed_check(self):
        text = cli("verify", "--all", "--max-rank", "2")
        checkers.check_verify(text, 0, checkers.types_up_to(2))
        bad = text.replace("kostant              PASS", "kostant              FAIL", 1)
        self.assertNotEqual(bad, text)
        self.assertRejects(checkers.check_verify, bad, 1, checkers.types_up_to(2))

    def test_queries_reject_a_kostant_mismatch_and_broken_answers(self):
        sys.path.insert(0, SRC)
        try:
            import worker
            from abideal import build
        finally:
            sys.path.remove(SRC)
        plain = worker.Spans(False).call
        rs = checkers.roots_of("D4")
        ideal = sorted(max(checkers.ideals_of("D4"), key=len))
        queries = [
            {"kind": "subset", "type": "D4", "roots": ideal},
            {"kind": "decode", "type": "D4", "phi": list(rs.positive[3]), "at": 0.5},
            {"kind": "weyl", "type": "D4", "word": [1, 2, 3, 2, 4]},
            {"kind": "young", "type": "A4", "roots": sorted(max(checkers.ideals_of("A4"), key=len))},
        ]
        for q in queries:
            result = worker.answer(build(q["type"]), q, plain)
            checkers.check_query(q, result)
            bad = dict(result)
            if q["kind"] == "subset":
                bad["value"] = str(len(ideal) - 1)          # Kostant mismatch
            elif q["kind"] == "decode":
                bad["assoc"] = list(rs.theta) if result["assoc"] != list(rs.theta) else list(rs.positive[0])
            elif q["kind"] == "weyl":
                bad["length"] += 2
            else:
                bad["back"] = bad["back"][1:]
            self.assertRejects(checkers.check_query, q, bad)


if __name__ == "__main__":
    unittest.main()
