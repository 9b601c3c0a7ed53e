"""Behaviour lock: SHA-256 digests of the text that `verify` and `tables`
print.

`tests/test_golden.py` pins the JSON forms of these commands; this file
pins their plain-text renderers, which format the same reports by a
different path: `verify --all`, `verify T` for E8, A9, A10 and A11, and
`tables` up to ranks 6 and 8.  The digests were captured before the
catalog was built from the wall walk alone.

The commands run in-process through `cli.main`, so they share the caches
the rest of the suite fills.
"""

import hashlib

import pytest

from abideal import cli

VERIFY_TEXT = {
    "--all": "2825581228dafb5d365406cb2a831ee5dcd66e164adc9c7674116d9d15a46b06",
    "E8": "a74ef7851ac1e1b9d8d1a81f21f3026b60cd5e808dd49c29d5476b1beeb9d1be",
    "A9": "dbcbba27ba6b182bfc54557e8932dbe720b4b200b2946c36ba01a13b15b5c813",
    "A10": "a3ff847d85a1c85beb3920adab0c91e896f743a2d0dba017c7deb01f1e7203f1",
    "A11": "3642f746f186bb40d8b2ecfd182876af4aee609028d67cfa5815097ee87e73ba",
}

TABLES_TEXT = {
    6: "01cc133673fbc9899dcf6cdb4de2e6cdeb0c79006c812b934a6080fbfa29fc7a",
    8: "3fc3d07cd807a20aaa3ea6e2cc74bf5e1d5c1a8692e74aa3f3be2083417470fe",
}


def _digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("target", sorted(VERIFY_TEXT))
def test_verify_text_digest(capsys, target):
    assert _digest(capsys, ["verify", target]) == VERIFY_TEXT[target]


@pytest.mark.parametrize("rank", sorted(TABLES_TEXT))
def test_tables_text_digest(capsys, rank):
    assert _digest(capsys, ["tables", "--max-rank", str(rank)]) == TABLES_TEXT[rank]


def test_tables_default_is_rank_eight(capsys):
    assert _digest(capsys, ["tables"]) == TABLES_TEXT[8]
