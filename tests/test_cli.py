import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abideal import checks, cli
from abideal.checks import CheckResult, TypeReport, verify_type
from abideal.ideals import catalog_of
from abideal.root_system import build, supported_types


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_info_text(capsys):
    code, out = run(capsys, "info", "G2")
    assert code == 0
    assert "dual coxeter number" in out
    assert "abelian ideals" in out and " 4" in out


def test_info_deterministic(capsys):
    _, first = run(capsys, "info", "E6")
    _, second = run(capsys, "info", "E6")
    assert first == second


def test_ideals_text(capsys):
    code, out = run(capsys, "ideals", "B2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# 4 abelian ideals of type B2"
    assert lines[1] == "0 dim=0 phi=- coset=- roots=-"
    assert len(lines) == 5


def test_ideals_json_schema(capsys):
    code, out = run(capsys, "ideals", "C3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["type"] == "C3" and doc["count"] == 8
    assert len(doc["ideals"]) == 8
    zero = doc["ideals"][0]
    assert zero["dim"] == 0 and zero["param"] is None and zero["assoc_long_root"] is None
    for item in doc["ideals"][1:]:
        assert item["roots"] == sorted(item["roots"])
        assert item["param"]["phi"] == item["assoc_long_root"]
        assert isinstance(item["param"]["coset_word"], list)


def _ideal_dict(rs, entry):
    """One ideal of the `ideals --json` document, as a JSON-ready dict."""
    a = entry.ideal
    out = {
        "type": str(rs.simple_type),
        "roots": [list(r) for r in sorted(a.roots)],
        "dim": a.dim,
    }
    if a.dim == 0:
        out["assoc_long_root"] = None
        out["param"] = None
    else:
        out["assoc_long_root"] = list(entry.phi)
        out["param"] = {"phi": list(entry.phi), "coset_word": list(entry.coset_word)}
    return out


@pytest.mark.parametrize("label", [str(st) for st in supported_types(11)])
def test_ideals_json_writer_matches_json_dumps(label):
    rs = build(label)
    cat = catalog_of(rs)
    doc = {"schema": 1, "type": label, "count": len(cat),
           "ideals": [_ideal_dict(rs, e) for e in cat.entries]}
    chunks = list(cli._ideals_json(rs, cat))
    assert len(chunks) == len(cat) + 1
    assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"


def test_ideals_json_writes_to_the_current_stdout(monkeypatch):
    # the writer finds sys.stdout when it runs, as under redirect_stdout
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["ideals", "A3", "--json"]) == 0
    assert json.loads(out.getvalue())["count"] == 8


def test_ideals_json_deterministic(capsys):
    _, first = run(capsys, "ideals", "D4", "--json")
    _, second = run(capsys, "ideals", "D4", "--json")
    assert first == second


def test_verify_single_pass(capsys):
    code, out = run(capsys, "verify", "A2")
    assert code == 0
    assert out.startswith("== A2 ==")
    assert "normalization        PASS" in out
    assert out.rstrip().endswith("(17 checks over 1 type)")


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "G2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "normalization"
    assert "kostant" in names and "facet_ratios" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_reports_failure_exit_code(capsys, monkeypatch):
    broken = TypeReport("G2", (CheckResult("normalization", False, "forced"),))
    monkeypatch.setattr(checks, "verify_type", lambda label: broken)
    code, out = run(capsys, "verify", "G2")
    assert code == 1
    assert "FAIL" in out


A2_CHECKS = ["normalization", "ideal_count", "kostant", "parametrization",
             "forbidden_roots", "word_table", "fiber_polynomials", "theta_quotient",
             "first_sum", "second_sum", "max_dimension", "maximal_ideals",
             "hasse_covers", "hasse_automorphisms", "upper_alcoves", "facet_ratios",
             "young_bridge"]


def test_verify_reports_a_bare_assertion_as_fail(monkeypatch):
    def bare_assertion(rs):
        raise AssertionError("injected")

    monkeypatch.setattr(checks, "weyl_poincare", bare_assertion)
    report = verify_type("A2")
    assert [r.name for r in report.results] == A2_CHECKS
    assert not report.passed
    bad = {r.name: r.details for r in report.results if not r.passed}
    assert "AssertionError" in bad["theta_quotient"]


def test_verify_reports_any_exception_as_fail(monkeypatch):
    def boom(rs):
        raise RuntimeError("injected")

    monkeypatch.setattr(checks, "check_young_bridge", boom)
    report = verify_type("A2")
    assert [r.name for r in report.results] == A2_CHECKS
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["young_bridge"]
    assert failed[0].details == "raised RuntimeError: injected"


def test_verify_requires_exactly_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "A2", "--all"])
    assert exc.value.code == 2


def test_invalid_type_is_usage_error(capsys):
    for bad in ("Z9", "A12", "B1", "e6", "D3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["info", bad])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "valid families" in err


def test_hasse_writes_dot(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out = run(capsys, "hasse", "A2", "--dot", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("graph hasse_A2 {")
    assert 'rim="11"' in text

    code, out = run(capsys, "hasse", "G2", "--dot", "-")
    assert code == 0
    assert out.startswith("graph hasse_G2 {") and "rim" not in out


def test_hasse_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.dot"
    code = cli.main(["hasse", "A2", "--dot", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"abideal hasse: error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and not target.exists()


def test_hasse_dot_deterministic(tmp_path):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    cli.main(["hasse", "B3", "--dot", str(a)])
    cli.main(["hasse", "B3", "--dot", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_tables_text(capsys):
    code, out = run(capsys, "tables", "--max-rank", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["type", "g-1", "roots", "long", "max", "mult",
                                "decomposition", "witness", "sum1", "sum2"]
    assert any(line.startswith("F4 ") for line in lines)
    assert not any(line.startswith("B5") for line in lines)


def test_tables_json(capsys):
    code, out = run(capsys, "tables", "--json", "--max-rank", "3")
    doc = json.loads(out)
    assert code == 0 and doc["schema"] == 1
    by_type = {r["type"]: r for r in doc["rows"]}
    assert by_type["G2"]["max_dim"] == 3
    assert by_type["B3"]["max_dim"] == 5
    assert by_type["C3"]["first_sum"]["total"] == 7


def test_young_summary(capsys):
    code, out = run(capsys, "young", "3")
    assert code == 0
    assert "8 = 2^3" in out


def test_young_list(capsys):
    code, out = run(capsys, "young", "2", "--list")
    assert code == 0
    assert out.splitlines() == ["0 00 -", "1 01 1", "2 10 1,1", "3 11 2"]


def test_young_encode_golden(capsys):
    code, out = run(capsys, "young", "11", "--encode", "5,4,4,4,4,3,2")
    assert code == 0
    assert out == "11010100001 = 1697\n"


def test_young_encode_hook_too_big(capsys):
    code, out = run(capsys, "young", "3", "--encode", "4,1")
    assert code == 1
    assert "hook" in out


def test_young_rank_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["young", "12"])
    assert exc.value.code == 2


def test_verify_all_prints_each_type_as_it_finishes(monkeypatch):
    labels = [str(st) for st in supported_types(2)]
    flushed = []

    class Stdout(io.StringIO):
        def flush(self):
            flushed.append(self.getvalue())

    out = Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    at_last = []

    def spy(label):
        if label == labels[-1]:
            at_last.append(flushed[-1] if flushed else "")
        return verify_type(label)

    monkeypatch.setattr(checks, "verify_type", spy)
    assert cli.main(["verify", "--all", "--max-rank", "2"]) == 0
    assert at_last[0].startswith(f"== {labels[0]} ==\n")
    assert f"== {labels[-2]} ==" in at_last[0]
    assert f"== {labels[-1]} ==" not in at_last[0]
    assert out.getvalue().startswith(at_last[0])


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [("verify", "--all", "--max-rank", "3"), ("young", "11", "--list"),
                                  ("ideals", "E8", "--json")])
def test_closed_stdout_exits_141_quietly(argv):
    # stdout is a pipe whose reader is already gone, as after `| head -1`
    # has exited: every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-m", "abideal.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
