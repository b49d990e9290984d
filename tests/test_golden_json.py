"""Golden `--json` output of every fixture in problems/.

Each case pins the exit code and the sha256 of the whole stdout of one CLI
run.  Refactors of the solver, the Weierstrass layer or the series kernels
must leave these bytes unchanged; a deliberate change of output re-records
the digest and says why.  An empty stdout (digest e3b0c442...) is a refusal
that prints its reason on stderr only.
"""

import hashlib
import os

import pytest

from madic.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "problems")

GOLDEN = [
    ("bounds", "bounds_basic", 0, "bbd124eec007c2205ba80826f21bf96100643ba5e16672fa367d60a486f26ad6"),
    ("divide", "divide_example", 0, "1eae04a0a7d556b37b9bcab1f187817918841e1ea50a0b8d381dd2fcdc8f1a6a"),
    ("elkik", "elkik_f", 0, "528638e4a692ff7fc50b6cf45ec1f43d3f779453b8f1db0c1785b9620f6579cc"),
    ("elkik", "elkik_h", 0, "02466a351fff39276f570c4dc31632b234b4b4cc7cb5217ec7608d451e8888dc"),
    ("elkik", "elkik_hard", 0, "3e151f0d50d6a331b4620800bd096edfeef60f08fd4af8bbd6feacd05ea0311f"),
    ("groebner", "ideal_example", 0, "4c055368f52d5e68a682411cc3429e8e81eb72072e80006a8b228188f61f3e69"),
    ("colon", "ideal_example", 0, "ad3b7a45f0e1db1a201d8e0f87943ec6ee27c63349ca1ade390c3bfb9761f846"),
    ("prepare", "prepare_example", 0, "95e369d39624ed7bb51a445f41884094b270d1737c7b2613bd8374d39a7e28ec"),
    ("probe", "probe_family", 0, "2701e9cefdd8faf548a62ce7480fbbc716c49c03befb7ef02ca84052196c95e5"),
    ("solve", "solve_basic", 0, "b2b28ecd02575b3c68af7f54b8e826bfec98a18e96e361a82a45b1287fabfe3f"),
    ("refine", "solve_basic", 0, "5167419b31ba94acb00df22df30bedd279612e49ee6b8ca7a659f1f42c454702"),
    # the live one-variable reduction: one reduced Newton step
    ("solve", "solve_live", 0, "93a2e7a0b6cf665b1f5b4b92182d84bd0c2fbf29ad1683e7825800fb18a3cc66"),
    ("solve", "solve_insufficient", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("refine", "solve_insufficient", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def test_every_fixture_is_pinned():
    names = {os.path.splitext(f)[0] for f in os.listdir(FIXTURES) if f.endswith(".madic")}
    assert names == {fixture for _, fixture, _, _ in GOLDEN}


@pytest.mark.parametrize(
    "command,fixture,code,digest", GOLDEN, ids=[f"{c}-{f}" for c, f, _, _ in GOLDEN]
)
def test_json_output_is_bit_identical(command, fixture, code, digest, capsys, monkeypatch):
    monkeypatch.delenv("MADIC_FIELD", raising=False)
    got = main([command, os.path.join(FIXTURES, f"{fixture}.madic"), "--json"])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
