"""Golden CLI bytes: every command must reproduce tests/data/cli_golden.json.

Each case holds an argv, the APSK_SHAPER_SEED value (if any), input files
(configs, a constellation) and what the commit named in the file produced
for them: the exit code, stdout and the bytes of every file written.
'{tmp}' in an argv or an input file stands for a fresh directory that holds
the inputs. Error messages on stderr are not part of the contract.

The default `sweep` table (204 rows, quadrature at n up to 35) must also
reproduce tests/data/sweep_default.csv, recorded with
`apsk-shaper sweep --out tests/data/sweep_default.csv` at commit 8ddace1.
"""

import json
from pathlib import Path

import pytest

from apsk_shaper.cli import SEED_ENV_VAR, main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[c["name"] for c in GOLDEN["cases"]])
def test_cli_matches_golden(case, tmp_path, capsys, monkeypatch):
    tmp = str(tmp_path)
    for name, text in case["files"].items():
        (tmp_path / name).write_bytes(text.replace("{tmp}", tmp).encode("ascii"))
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)

    code = main([a.replace("{tmp}", tmp) for a in case["argv"]])

    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    written = {
        p.name: p.read_bytes().decode("ascii")
        for p in sorted(tmp_path.iterdir())
        if p.name not in case["files"]
    }
    assert written == case["out_files"]


def test_default_sweep_matches_golden(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (DATA / "sweep_default.csv").read_bytes()
