import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_solver_error_table_writes_csv_and_markdown(tmp_path):
    out = tmp_path / "e.csv"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "solver_error_table.py"),
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 6
    md = (tmp_path / "e.md").read_text().splitlines()
    assert len(md) == 2 + 6 and md[0].startswith("| solver |")
