import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _tree(root, runtime, csv=b"t,u\n0,1\n"):
    d = root / "demo"
    d.mkdir(parents=True)
    (d / "trace.csv").write_bytes(csv)
    summary = {"scenario": "demo", "values": {"x": float("nan")},
               "runtimes": {"total": runtime}}
    (d / "summary.json").write_text(json.dumps(summary))
    return root


def _run(a, b):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True).returncode


def test_runtimes_ignored(tmp_path):
    assert _run(_tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 2.0)) == 0


def test_csv_byte_difference(tmp_path):
    a = _tree(tmp_path / "a", 1.0)
    b = _tree(tmp_path / "b", 1.0, csv=b"t,u\n0,1.0\n")
    assert _run(a, b) == 1


def test_missing_report(tmp_path):
    a = _tree(tmp_path / "a", 1.0)
    b = _tree(tmp_path / "b", 1.0)
    (b / "demo" / "trace.csv").unlink()
    assert _run(a, b) == 1


def test_empty_trees(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _run(tmp_path / "a", tmp_path / "b") == 1


def test_difference_names_largest_relative_change(tmp_path):
    a = _tree(tmp_path / "a", 1.0, csv=b"t,u,v\n0,1.0,2.0\n1,4.0,8.0\n")
    b = _tree(tmp_path / "b", 2.0, csv=b"t,u,v\n0,1.0,2.0000002\n1,4.0,8.000004\n")
    summary = json.loads((b / "demo" / "summary.json").read_text())
    summary["assertions"] = [{"name": "floor", "value": 3.0}]
    summary["values"]["y"] = 2.0
    (b / "demo" / "summary.json").write_text(json.dumps(summary))
    summary["assertions"][0]["value"] = 3.0 * (1.0 + 3e-9)
    summary["values"]["y"] = 2.0 * (1.0 + 1e-9)
    (a / "demo" / "summary.json").write_text(json.dumps(summary))
    done = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines == [
        "differs: demo/summary.json (max relative difference 3e-09 in key "
        "assertions[floor].value)",
        "  values.y: 2.000000002 -> 2.0 (relative 1e-09)",
        "  assertions[floor].value: 3.000000009 -> 3.0 (relative 3e-09)",
        "differs: demo/trace.csv (max relative difference 5e-07 in column v)",
    ]
