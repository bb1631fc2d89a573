"""The measuring tools under tools/ still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def test_time_invocations_one_round(monkeypatch):
    proc = subprocess.run([sys.executable, str(TOOLS / "time_invocations.py"),
                           "pullback", str(ROOT / "src"), "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    repeated = [" ".join(inv.argv) for inv in WORKLOADS["pullback"]
                if not inv.once]
    lines = proc.stdout.splitlines()
    assert lines[0] == f"A: {ROOT / 'src'}"
    rows = lines[2:]
    assert [row[:len(argv)] for row, argv in zip(rows, repeated)] == repeated
    assert len(rows) == len(repeated) + 1 and rows[-1].startswith("total")


def test_source_dir_accepts_a_checkout_and_its_src(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from compare_outputs import source_dir
    assert source_dir(ROOT) == source_dir(ROOT / "src") == ROOT / "src"
