"""Pinned outputs: the sha256 of the JSON and CSV files of fixed CLI runs.

A refactor that leaves the program's results alone leaves these bytes
alone.  The output prefix is replaced by OUT before hashing, as in the
rerun test of `test_cli.py`.  Every rational is written as `str(Fraction)`,
so no output holds an integer as `k/1`."""

import hashlib
import re

import pytest

from bakerfr.cli import main

# (arguments, exit code, sha256 of the .json, sha256 of the .csv or None)
RUNS = [
    (["density", "--family", "map1", "--l", "2/3"], 0,
     "aac17352d5d891c14c3126b104bbf930a631aebf10d1f0ca824f4252547c20d9",
     "14ccc28f1cf476e61484d8e9d1f775d0a94cfd552871c1607e50e1308af300c0"),
    (["density", "--family", "map2", "--l", "1/8"], 0,
     "bc49bfa60d05ebb7d9cd6a359e88b3dcc7f0601d4fbe841e0e0f12d1f353cf99",
     "68bb490e43632896d4844f165723542a5d4ef359bbea8881d56ceac39463a55a"),
    (["density", "--family", "composite", "--l", "1/8"], 0,
     "7e0ddb9bd274c0dae50df0799248abe6f71a1bf746d1645bdb148108eafc636f",
     "68bb490e43632896d4844f165723542a5d4ef359bbea8881d56ceac39463a55a"),
    (["fr", "--family", "map2", "--mode", "exact", "--l", "1/8", "--n", "15"], 0,
     "6d477d24977c0af9907e821b8abe62bda5a757ccb5288656fa430350e2d3613b",
     "cd264396388676cdffcc6c1b1d0f2d3e06cb3c0591bbacffaf0cff302240904a"),
    (["fr", "--family", "map2", "--mode", "exact", "--l", "1/8", "--n", "15",
      "--delta", "1/2"], 0,
     "3fe3a4ff0157583e4877736fc479ed2c34ce5950395640508ca7aca159aae6c9",
     "cd264396388676cdffcc6c1b1d0f2d3e06cb3c0591bbacffaf0cff302240904a"),
    (["fr", "--family", "map1", "--mode", "exact", "--l", "2/3"], 0,
     "2cb11417ac773675225b66f9961bb8dc7e58f4bdcc2f137a3bbfb8b4b8a3ac90",
     "8127c1f6ea38a66b576832dee91b5750fbf50edc42ec22d673fdcb1d841d2b74"),
    (["fr", "--family", "composite", "--mode", "exact", "--l", "1/8"], 0,
     "8dedb328850f1096ab8c593dee226109eba707da73cd266db9ada3b4ed58d4bc",
     "4518cc33ab7fe15bfa36bd1b8f1f05076826b128a6c28845f6c485278225a5a3"),
    (["upo", "--family", "map1", "--l", "2/3", "--n", "8"], 0,
     "b23df983bb313d9cb10ad4edfbda2e50cf42a7ea47245ffed85b9f05bcc88092",
     "f8b85094cd37832c8bf65823a941f588896254e5604a3f880cc609148c18215b"),
    (["upo", "--family", "map2", "--l", "1/8", "--n", "8"], 0,
     "831366717c2307a10a76e05ba55e19d6335afe36310731e48b5ffb848e03d865",
     "fdc102979a823a83c49cfc45df4763455f6906aa277d52aa34e9277e9cda947f"),
    (["reversibility", "--family", "map2", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "3e1110237a05e82997fe817df7048f9fc7d1aa2834e1b9193f1ac694f8baf59c", None),
    (["reversibility", "--family", "composite", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "5791c1410141496a8f7444ed654838311c907e5f8d5eb07a9fc9b1dbdf643748", None),
]


def _bytes(path, prefix):
    return path.read_bytes().replace(str(prefix).encode(), b"OUT")


def _digest(path, prefix):
    return hashlib.sha256(_bytes(path, prefix)).hexdigest()


@pytest.mark.parametrize("args,code,json_sha,csv_sha", RUNS,
                         ids=[" ".join(r[0]) for r in RUNS])
def test_outputs_are_pinned(tmp_path, args, code, json_sha, csv_sha):
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == code
    csv = out.with_suffix(".csv")
    assert _digest(out.with_suffix(".json"), out) == json_sha
    assert (_digest(csv, out) if csv.exists() else None) == csv_sha
    for path in (out.with_suffix(".json"), csv):
        if path.exists():
            assert not re.search(rb"\b\d+/1\b", _bytes(path, out))
