"""Byte-for-byte gate on the CLI's --deterministic CSV and JSON output.

``tests/golden/`` holds the output of every scenario at its defaults, plus
the asymmetry study at three trials, ``single --certify`` and ``single`` on
the README's worked instance. Any change to a column, its order, a default,
a value or the number formatting shows up as a byte difference. The files
are gzip-compressed (the uncompressed set is about 200 KB, mostly the
lemma2-sweep and prmax-sweep JSON). ``help.txt`` holds the ``--help``
text at 80 columns.

Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twrelay.sim_cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("csv", "json")

RUNS = {
    "lemma2-sweep": ["--scenario", "lemma2-sweep"],
    "prmax-sweep": ["--scenario", "prmax-sweep"],
    "asymmetry-study": ["--scenario", "asymmetry-study", "--trials", "3"],
    "asymmetry-study-batch": [
        "--scenario", "asymmetry-study", "--trials", "25",
        "--n1", "2", "--n2", "2", "--nr", "3", "--p1", "1", "--p2", "3",
    ],
    "single": ["--scenario", "single"],
    "single-certify": ["--scenario", "single", "--certify"],
    "single-instance": [
        "--scenario", "single", "--instance", str(GOLDEN / "worked_instance.json"),
    ],
}


def _output(name: str, fmt: str, out: Path) -> bytes:
    argv = [*RUNS[name], "--format", fmt, "--deterministic", "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", RUNS)
def test_deterministic_output_matches_golden(name, fmt, tmp_path):
    expected = gzip.decompress((GOLDEN / f"{name}.{fmt}.gz").read_bytes())
    assert _output(name, fmt, tmp_path / f"{name}.{fmt}") == expected


def test_help_matches_golden(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / "help.txt").read_text()


def test_module_entry_point_matches_golden():
    # `python -m twrelay` runs __main__.py and cli_entry, which the
    # in-process main() calls above never reach.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*flags):
        argv = [sys.executable, "-m", "twrelay", "--scenario", "single", *flags]
        return subprocess.run(argv, capture_output=True, env=env, timeout=120)

    done = run("--deterministic")
    assert done.returncode == 0
    assert done.stdout == gzip.decompress((GOLDEN / "single.csv.gz").read_bytes())
    assert run("--sigma", "nan").returncode == 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            for fmt in FORMATS:
                data = _output(name, fmt, Path(tmp) / f"{name}.{fmt}")
                (GOLDEN / f"{name}.{fmt}.gz").write_bytes(gzip.compress(data, mtime=0))
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help.txt").write_text(build_parser().format_help())
