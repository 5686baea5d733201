"""Checks that can fail: each test plants one fault and expects a FAIL."""

import json
import sys

import pytest

from rinehart import superpoly
from rinehart.cli import main


def plant(monkeypatch, orig, faulty):
    """Replace ``orig`` by ``faulty`` in every rinehart module holding it."""
    holders = 0
    for name, mod in list(sys.modules.items()):
        if name == "rinehart" or name.startswith("rinehart."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, faulty)
                    holders += 1
    assert holders, "the fault was planted nowhere"


@pytest.mark.parametrize("suite", ["koszul", "jacobi"])
def test_merge_masks_sign_flip_fails_the_check(monkeypatch, capsys, suite):
    args = ["check", suite, "--m", "1", "--n", "2", "--deg", "2",
            "--samples", "20", "--json"]
    assert main(args) == 0
    capsys.readouterr()

    orig = superpoly.merge_masks

    def flipped(ma, mb):
        sign, mask = orig(ma, mb)
        return (-sign if ma and mb else sign), mask

    plant(monkeypatch, orig, flipped)
    assert main(args) == 1
    failed = [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]]
    assert failed
    assert not any(cid.endswith(".error") for cid in failed)
