"""Pinned outputs: the sha256 of the JSON and CSV files of fixed CLI runs.

A refactor that leaves the program's results alone leaves these bytes
alone.  The output prefix is replaced by OUT before hashing, as in the
rerun test of `test_cli.py`.  Every rational is written as `str(Fraction)`,
so no output holds an integer as `k/1`.  The config line of each JSON
lists `command` and only the keys the run reads.  `bakerfr.cli` is the
one module that writes them."""

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

from bakerfr.cli import _configs_from_args, _reads, build_parser, main

# (arguments, exit code, sha256 of the .json, sha256 of the .csv or None)
RUNS = [
    (["density", "--family", "map1", "--l", "2/3"], 0,
     "017ef64c645967a38be9c3e650846af0b44c0311c780bd35bad7e56035aa6105",
     "14ccc28f1cf476e61484d8e9d1f775d0a94cfd552871c1607e50e1308af300c0"),
    (["density", "--family", "map2", "--l", "1/8"], 0,
     "f8ef586c1763034e5561b5c76ca603a82e2fa04fe04ea0fbf3113a3337702f42",
     "68bb490e43632896d4844f165723542a5d4ef359bbea8881d56ceac39463a55a"),
    (["density", "--family", "composite", "--l", "1/8"], 0,
     "34bf7b96e661814f51ce2f44de0011de5a2b94bb8145091e773c753dcb027a36",
     "68bb490e43632896d4844f165723542a5d4ef359bbea8881d56ceac39463a55a"),
    (["fr", "--family", "map2", "--mode", "exact", "--l", "1/8", "--n", "15"], 0,
     "d48717ce009fe029a1220189f3915320c22baa2d173b2d3af3ada87de3fd12fb",
     "cd264396388676cdffcc6c1b1d0f2d3e06cb3c0591bbacffaf0cff302240904a"),
    (["fr", "--family", "map2", "--mode", "exact", "--l", "1/8", "--n", "15",
      "--delta", "1/2"], 0,
     "7e992f3154850876345cd0024e5f789a9346aa5e2f2f0be81b45b1f3aa53bdf5",
     "cd264396388676cdffcc6c1b1d0f2d3e06cb3c0591bbacffaf0cff302240904a"),
    # rationals hundreds of digits long, and the four-branch alpha band
    (["fr", "--family", "map2", "--mode", "exact", "--l", "3/37", "--n", "200",
      "--delta", "1/2"], 0,
     "dc8c28267bd6087182d6beecb35fef8b7b1eb26bc27738ee3e3aff338275c1f9",
     "bcc523fd92179059cda08cd23e4189ebd47d23856f149c4f6b4c0bf766bf0479"),
    (["fr", "--family", "map1", "--mode", "exact", "--l", "2/3"], 0,
     "5516177ef3e4d6217c8816cf2feaa1916381917cfe54a68ecc36d92943be2c04",
     "8127c1f6ea38a66b576832dee91b5750fbf50edc42ec22d673fdcb1d841d2b74"),
    (["fr", "--family", "composite", "--mode", "exact", "--l", "1/8"], 0,
     "0df4af8a32214df0954a1c0ff6e51d8c50a73119032c69a97977398a9ed9a1b7",
     "4518cc33ab7fe15bfa36bd1b8f1f05076826b128a6c28845f6c485278225a5a3"),
    (["upo", "--family", "map1", "--l", "2/3", "--n", "8"], 0,
     "0f496071f735b9bdecdcb7e013b95ee562df1779aaeb09131c7ac714ee1af881",
     "f8b85094cd37832c8bf65823a941f588896254e5604a3f880cc609148c18215b"),
    (["upo", "--family", "map2", "--l", "1/8", "--n", "8"], 0,
     "5f2e150cca10f8931dd103d06df11ad19d409922e65b8bcb3a5f8d8b9f14418c",
     "fdc102979a823a83c49cfc45df4763455f6906aa277d52aa34e9277e9cda947f"),
    (["reversibility", "--family", "map2", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "731877e331e19f7746053c1704e0e82009f43f78188df9528ce86e4e0dba9b6e", None),
    (["reversibility", "--family", "composite", "--l", "1/8", "--ensemble", "50",
      "--seed", "3"], 0,
     "5833f301b25d902aab7cbbca705ecab88354037c2b248831b51b1d2182e3cb82", None),
]


# the JSON digests of RUNS from when the config line listed every config
# field that was set, read or not
ALL_FIELDS_JSON = {
    "density --family map1 --l 2/3":
        "aac17352d5d891c14c3126b104bbf930a631aebf10d1f0ca824f4252547c20d9",
    "density --family map2 --l 1/8":
        "bc49bfa60d05ebb7d9cd6a359e88b3dcc7f0601d4fbe841e0e0f12d1f353cf99",
    "density --family composite --l 1/8":
        "7e0ddb9bd274c0dae50df0799248abe6f71a1bf746d1645bdb148108eafc636f",
    "fr --family map2 --mode exact --l 1/8 --n 15":
        "6d477d24977c0af9907e821b8abe62bda5a757ccb5288656fa430350e2d3613b",
    "fr --family map2 --mode exact --l 1/8 --n 15 --delta 1/2":
        "3fe3a4ff0157583e4877736fc479ed2c34ce5950395640508ca7aca159aae6c9",
    "fr --family map2 --mode exact --l 3/37 --n 200 --delta 1/2":
        "d58160a8f92264c50cc246e7989bbe632ef2723ca9dc7abec03730441479a64a",
    "fr --family map1 --mode exact --l 2/3":
        "2cb11417ac773675225b66f9961bb8dc7e58f4bdcc2f137a3bbfb8b4b8a3ac90",
    "fr --family composite --mode exact --l 1/8":
        "8dedb328850f1096ab8c593dee226109eba707da73cd266db9ada3b4ed58d4bc",
    "upo --family map1 --l 2/3 --n 8":
        "b23df983bb313d9cb10ad4edfbda2e50cf42a7ea47245ffed85b9f05bcc88092",
    "upo --family map2 --l 1/8 --n 8":
        "831366717c2307a10a76e05ba55e19d6335afe36310731e48b5ffb848e03d865",
    "reversibility --family map2 --l 1/8 --ensemble 50 --seed 3":
        "3e1110237a05e82997fe817df7048f9fc7d1aa2834e1b9193f1ac694f8baf59c",
    "reversibility --family composite --l 1/8 --ensemble 50 --seed 3":
        "5791c1410141496a8f7444ed654838311c907e5f8d5eb07a9fc9b1dbdf643748",
}


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


@pytest.mark.parametrize("args,code,json_sha,csv_sha", RUNS,
                         ids=[" ".join(r[0]) for r in RUNS])
def test_only_the_config_line_dropped_keys(tmp_path, args, code, json_sha, csv_sha):
    # with the config line written as it was, every field set, the JSON
    # is the old bytes again; the new line keeps the read keys in order
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == code
    [cfg], _out = _configs_from_args(build_parser().parse_args(args + ["--out", str(out)]))
    payload = json.loads(_bytes(out.with_suffix(".json"), out))
    every_field = "".join(
        f"{name}={','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
        for name, value in zip(cfg._fields, cfg) if value is not None)
    reads = {"command", *_reads(cfg)}
    assert payload["config"].splitlines() == [
        line for line in every_field.splitlines() if line.partition("=")[0] in reads]
    payload["config"] = every_field
    old = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(old).hexdigest() == ALL_FIELDS_JSON[" ".join(args)]



def test_only_the_cli_writes_output():
    # no other module opens or writes a file, names the schema version or
    # lays out a record as a dict: by name, attribute, definition or string
    writers = {"open", "write_text", "write_bytes", "schema_version", "SCHEMA_VERSION",
               "to_dict"}
    package = Path(__file__).resolve().parents[1] / "src" / "bakerfr"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "value")}
            found += [f"{path.name}:{node.lineno} {name}" for name in names & writers]
    assert not found
