"""Self-check: the repo's own sources are clean against the committed
baseline, and the CI gate actually trips on a fresh violation."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro
from repro.analysis import LintEngine
from repro.analysis.baseline import load_baseline, partition
from repro.analysis.cli import main
from repro.cli import main as fzmod_main

PKG_DIR = Path(repro.__file__).resolve().parent          # src/repro
REPO_ROOT = PKG_DIR.parents[1]
BASELINE = REPO_ROOT / "tools" / "fzlint_baseline.json"


def test_committed_baseline_exists():
    assert BASELINE.exists()
    doc = json.loads(BASELINE.read_text())
    assert doc["version"] == 1 and doc["tool"] == "fzlint"


def test_src_repro_is_clean_against_committed_baseline():
    """The acceptance gate: zero unbaselined findings in src/repro."""
    result = LintEngine().run([PKG_DIR], cwd=REPO_ROOT)
    new, _ = partition(result.findings, load_baseline(BASELINE))
    assert new == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in new)


def test_gate_trips_on_deliberate_violation(tmp_path, monkeypatch):
    """Copy a kernel module, plant a module-state write, prove the CLI
    exits 1 — this is exactly what the CI job relies on."""
    proj = tmp_path / "src" / "repro" / "kernels"
    proj.mkdir(parents=True)
    shutil.copy(PKG_DIR / "kernels" / "delta.py", proj / "delta.py")
    with open(proj / "delta.py", "a", encoding="utf-8") as fh:
        fh.write("\n_SEEN = {}\n\ndef _spy(x):\n    _SEEN[id(x)] = x\n")
    shutil.copy(BASELINE, tmp_path / "baseline.json")
    monkeypatch.chdir(tmp_path)
    rc = main(["src/repro", "--baseline", "baseline.json",
               "--format", "sarif", "--output", "out.sarif"])
    assert rc == 1
    sarif = json.loads((tmp_path / "out.sarif").read_text())
    new = [r for r in sarif["runs"][0]["results"]
           if r["baselineState"] == "new"]
    assert any(r["ruleId"] == "FZL001" for r in new)


def test_fzmod_lint_subcommand(capsys):
    """`fzmod lint` and `python -m repro.analysis` share flags/behaviour."""
    rc = fzmod_main(["lint", str(PKG_DIR), "--baseline", str(BASELINE),
                     "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "fzlint" and doc["summary"]["new"] == 0


def test_fzmod_lint_list_rules(capsys):
    assert fzmod_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("FZL001", "FZL004", "FZL016"):
        assert rid in out
