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


def test_code_lines_counts_code_only(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n\n# a comment\n'
        'def f(x):\n    """Docstring."""\n    return (x +  # trailing comment\n'
        '            1)\n\n\nTEXT = """not a\ndocstring"""\n')
    (tmp_path / "empty.py").write_text("")
    proc = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["empty.py", "0"], ["mod.py", "5"], ["total", "5"]]


def test_code_lines_lists_every_module():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    src = SCRIPTS.parent / "src" / "snopt_kit"
    assert [name for name, _ in rows[:-1]] == sorted(p.name for p in src.glob("*.py"))
    assert rows[-1] == ["total", str(sum(int(n) for _, n in rows[:-1]))]
