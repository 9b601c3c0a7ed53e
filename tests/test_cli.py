import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abideal import checks, cli, ideals, weyl
from abideal.affine import perp_generators
from abideal.checks import CheckResult, TypeReport, verify_type
from abideal.ideals import catalog_of
from abideal.root_system import build, clear_system_caches, supported_types


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


# SHA-256 of `ideals T` (text) for all 35 types, captured before the
# listing was written in one `writelines`
IDEALS_TEXT = {
    "A1": "d93c620d0ecd7916ff157c59f64f51c383c284be0bd087882d2d141671b27b02",
    "A2": "4114b6357d9d64001531043fbc3ed1de2a48c2ee9b9b43ef9d462ee7a66a521a",
    "A3": "f5c8b41528f9d45aacf449f121c1c69b2c316d2b766d23b3a86b0739a19fe447",
    "A4": "6baf36ab69088423f78c330c190a6abd25a21f01a50058faf6f7526951f8f8a6",
    "A5": "78fe102c58bb6dece5ec21b76211834691e1ed22c4e63f6bb9a5228227686d43",
    "A6": "05be0fbfbd12c1bd33d0aa8c2eb059eb7c8756510fe508931c52cf5de87b80a8",
    "A7": "b5a28e82433664149dba30af040602b6db47b57c25844648affe58e20c59237d",
    "A8": "499c7d704e067872cced1a33f7dbf474207d5443114eb5af3f046885adea354d",
    "A9": "4e244015a6924b41910a5c3397b0ac26d84291093a0ff48771f9dd1a3f364ae1",
    "A10": "adc4a0ca462a31ce08caf2ddbdd575ee9b747d276363d3b84b49007c05e4dcf6",
    "A11": "6bc4739db40b200e12dfdc7c969959ef92557db8288a4e72ebe8a33b9a270c7e",
    "B2": "f619f1da041b1190bc4a0abf6142d7efbefe4076328fd6c4c571b6c454e2de44",
    "B3": "3adabf4535393c903355fbc3ac6dc12af0e4d0c40655ed06769093717f257584",
    "B4": "642127b25ca7b5779b0d64e4d2bdf38e5639c6ca03606cb1a810f91415d7295c",
    "B5": "92e2974c9b335de7ace3660cff01c27426de6374b99a1cd99fbd6127baecddbb",
    "B6": "eb14479a51e3bdbb1956c325d1543f0735b5ae04b41cef5eca171e6de88ff8da",
    "B7": "e350b92a857071e7afc13ff0b92c50a2154fe16bd0ddf6bced2482eb9f7ae93d",
    "B8": "cae49dd10c6e9d96824f0d61b0bd543d7373d95a9583cdfc7db943a7882a18da",
    "C2": "65de8a6b6ddee21d66eabbb1e9667e28d52c766ad38fbefe2f70dcae5da9b10e",
    "C3": "7c8bda24a97aa6e4813c87c56f9135ae850ff71fcf78dabf918666d6adbe7546",
    "C4": "a611e6b00cc2c25a55c9ba7fbf974ef4b53ca58b65d3cad7a1e1c6c90dcf6e50",
    "C5": "2a6a968862c0c40989a7de9162221a1b5a9c9f8d27a513b261cb50bf0f6c7914",
    "C6": "73e56e4b2594cbd5801bf3cdabc70bc9056da6aeec15fa8bcde061dc7d187d1d",
    "C7": "78003253fbae49792bef1d4960b462d32d1ffd2084d59a7835f6860beead09f9",
    "C8": "c1417ceadaa7543bca09bf2da98a1607cdc4dcc831889e9d1657787be3dbe4d3",
    "D4": "b69db14912343de1c125a5e6f9234db21f891edb8abab6e686475854f62fb77b",
    "D5": "9df25b413582e9354bf762156aafbea7e7cec4f097ff17c4fab31da3ba0acdd6",
    "D6": "9c72605c5522abd7871b277aa1eea97aeab0160f2825cb6d1e8ccd35339441d6",
    "D7": "d233e26831a6c6be53ebcec2451fffd6bc9a566115cad481e1db4ed166f0682e",
    "D8": "5c86ee0fd6f75a4ecba182d287abc41aea61638b100ad3438c3a3f9c132d7740",
    "E6": "81db2eba969f9f57bd3f3917549463cac5a1ddcf7b6f4a6ef21ab88255cc1441",
    "E7": "0e02fb1934cf4ea928cedf7f189e7ba0e5472eaaa52d3907f3fe590a5f56b871",
    "E8": "a5aa7c69dae5343367d1cd1f246bf9eb7556366d12359aae92742ffad4fc5150",
    "F4": "fbaf64d194f9f4460c8d0a89c66f6097ebd20e5aacc1d908ab92c8a6935a0b28",
    "G2": "7fb2d6896e6dc4ce843c439787800da67053710d656af8849e7e840280584edd",
}


@pytest.mark.parametrize("label", sorted(IDEALS_TEXT))
def test_ideals_text_digest(capsys, label):
    code, out = run(capsys, "ideals", label)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDEALS_TEXT[label]


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


def test_type_error_lists_exactly_the_supported_types(capsys):
    with pytest.raises(SystemExit):
        cli.main(["info", "Z9"])
    err = capsys.readouterr().err
    listed = err.rstrip("\n").split("valid families and ranks: ")[1]
    assert listed == "A1-A11, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2"
    labels = []
    for family in listed.split(", "):
        lo, _, hi = family.partition("-")
        labels += [f"{lo[0]}{r}" for r in range(int(lo[1:]), int((hi or lo)[1:]) + 1)]
    assert labels == [str(st) for st in supported_types(11)]


def test_young_rank_bounds_come_from_the_linear_family(capsys):
    for bad in ("0", "12"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["young", bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: rank must be between 1 and 11\n")
    with pytest.raises(SystemExit):
        cli.main(["young", "--help"])
    assert "rank l of the linear type (1..11)" in capsys.readouterr().out


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


def test_tables_builds_no_catalog(monkeypatch, capsys):
    # max_dimension reads the dimensions off the enumeration; the text is
    # the same as with catalogs allowed
    code, want = run(capsys, "tables", "--max-rank", "4")

    def refuse(rs):
        raise AssertionError(f"tables built the catalog of {rs.simple_type}")

    monkeypatch.setattr(ideals, "catalog_of", refuse)
    assert run(capsys, "tables", "--max-rank", "4") == (code, want) == (0, want)


@pytest.mark.parametrize("label", ["A1", "G2", "B4", "D5", "E6", "E8", "A11"])
def test_verify_enumerates_each_type_once(monkeypatch, label):
    # the catalog enumerates, and max_dimension's check reads its ideals
    calls = []
    real = ideals._enumerate_masks

    def counted(rs):
        calls.append(str(rs.simple_type))
        return real(rs)

    monkeypatch.setattr(ideals, "_enumerate_masks", counted)
    clear_system_caches()
    try:
        assert verify_type(label).passed
    finally:
        clear_system_caches()
    assert calls == [label]


def _submatrix(rs, nodes):
    return tuple(tuple(rs.cartan[a - 1][b - 1] for b in nodes) for a in nodes)


@pytest.mark.parametrize("label", ["A5", "D5", "E6", "E8"])
def test_verify_walks_each_wall_submatrix_once(monkeypatch, label):
    # fiber_polynomials walks each distinct Cartan submatrix of a long
    # root's finite wall letters once, and theta_quotient its two node sets
    calls = []
    real = weyl._orbit_poincare

    def counted(rs, nodes):
        calls.append(tuple(nodes))
        return real(rs, nodes)

    monkeypatch.setattr(weyl, "_orbit_poincare", counted)
    rs = build(label)
    walls = {_submatrix(rs, [j for j in perp_generators(rs, phi) if j])
             for phi in rs.long_positive_roots()}
    clear_system_caches()
    try:
        assert verify_type(label).passed
    finally:
        clear_system_caches()
    assert len(calls) == len(walls) + 2
    assert {_submatrix(rs, nodes) for nodes in calls[:-2]} == walls
    assert sorted(calls[-2]) == list(range(1, rs.rank + 1))


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
