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


def test_record_digest_prints_one_digest_per_workload():
    argv = [sys.executable, str(SCRIPTS / "record_digest.py"), "--seeds", "0",
            "--iterations", "2"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["adam-spirals", "snopt-grid33",
                                                   "snopt-rank2-horizon"]
    assert all(len(line.split()[1]) == 64 for line in lines)
    # the digest leaves the wall clock out, so a rerun prints the same lines
    assert runs[1].stdout == runs[0].stdout
