"""Pinned outputs: the sha256 of the JSON and CSV files of fixed CLI runs.

A refactor that leaves the program's results alone leaves these bytes
alone.  The output prefix is replaced by OUT before hashing, as in the
rerun test of `test_cli.py`."""

import hashlib

import pytest

from bakerfr.cli import main

# (arguments, exit code, sha256 of the .json, sha256 of the .csv or None)
RUNS = [
    (["density", "--family", "map1", "--l", "2/3"], 0,
     "1fdcddcef7dd5bdc0de7189b98e0758f7b5f66ecd5c9bb06eb4a8cc8eab5684f",
     "08ec7d5a335ce9f5ddf3dbd6f51249d765ea850e56eb50a3040a1d83910aac0d"),
    (["density", "--family", "map2", "--l", "1/8"], 0,
     "b6de1620e2f63bfe3abf3777ff6f62156f27456640fe898b1bb2d654d76662ba",
     "6066a0ded1417dd5ef21ac579b058f01315b29e386cc6ab11ea8a608eb1e6bf4"),
    (["density", "--family", "composite", "--l", "1/8"], 0,
     "f288aa02c2d269ae6f465c42ee3f7bb57bf0a98b35f0e733b3d84c64eb6ac049",
     "6066a0ded1417dd5ef21ac579b058f01315b29e386cc6ab11ea8a608eb1e6bf4"),
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
     "447d7d5b13782a0fbd76d457699908ff6e23c51b54afc9911b7b52fd5726544e"),
    (["upo", "--family", "map2", "--l", "1/8", "--n", "8"], 0,
     "831366717c2307a10a76e05ba55e19d6335afe36310731e48b5ffb848e03d865",
     "1b7f0f688b11d60d5673d2ecb16514a8362269f3ec9ba72bded85f28417bc288"),
    (["reversibility", "--family", "map2", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "3e1110237a05e82997fe817df7048f9fc7d1aa2834e1b9193f1ac694f8baf59c", None),
    (["reversibility", "--family", "composite", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "5791c1410141496a8f7444ed654838311c907e5f8d5eb07a9fc9b1dbdf643748", None),
]


def _digest(path, prefix):
    return hashlib.sha256(path.read_bytes().replace(str(prefix).encode(), b"OUT")).hexdigest()


@pytest.mark.parametrize("args,code,json_sha,csv_sha", RUNS,
                         ids=[" ".join(r[0]) for r in RUNS])
def test_outputs_are_pinned(tmp_path, args, code, json_sha, csv_sha):
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == code
    csv = out.with_suffix(".csv")
    assert _digest(out.with_suffix(".json"), out) == json_sha
    assert (_digest(csv, out) if csv.exists() else None) == csv_sha
