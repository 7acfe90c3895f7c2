#!/usr/bin/env python3
"""Fixture tests for granulock-lint.

Each case runs the real linter binary (tools/lint/run_lint.py) as a
subprocess over a minimal fixture tree under tests/lint_test/fixtures/
and asserts on the JSON report: which rules fired, where, how many
findings were suppressed or baselined, and the exit code.  One case per
shipped rule proves the rule actually fires; the clean-tree and
full-repo cases prove the zero-findings gate is real.

Usage:
    lint_test.py --case rule_determinism_time
    lint_test.py --case full_repo --build-dir /path/to/build
    lint_test.py --list
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.realpath(os.path.join(_HERE, "..", ".."))
_LINT = os.path.join(_REPO, "tools", "lint", "run_lint.py")
_FIXTURES = os.path.join(_HERE, "fixtures")


def _fixture_files(tree: str):
    root = os.path.join(_FIXTURES, tree)
    out = []
    for pattern in ("**/*.cc", "**/*.h"):
        out.extend(glob.glob(os.path.join(root, pattern), recursive=True))
    return root, sorted(out)


def _run(tree: str, extra=None, baseline: str = ""):
    """Runs the linter over a fixture tree; returns (exit_code, report)."""
    root, files = _fixture_files(tree)
    assert files, f"no fixture files under {root}"
    cmd = [sys.executable, _LINT, "--root", root, "--format", "json",
           "--baseline", baseline, "--jobs", "1"] + (extra or []) + files
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode in (0, 1), \
        f"linter crashed (exit {proc.returncode}): {proc.stderr}"
    return proc.returncode, json.loads(proc.stdout)


def _expect_rule(tree: str, rule: str, count: int, lines=None):
    code, doc = _run(tree)
    findings = doc["findings"]
    assert code == 1, f"{tree}: expected exit 1, got {code}"
    assert len(findings) == count, \
        f"{tree}: expected {count} finding(s), got {len(findings)}: " \
        f"{json.dumps(findings, indent=2)}"
    for f in findings:
        assert f["rule"] == rule, \
            f"{tree}: expected rule {rule}, got {f['rule']}"
    if lines is not None:
        got = sorted(f["line"] for f in findings)
        assert got == sorted(lines), \
            f"{tree}: expected findings on lines {sorted(lines)}, got {got}"


def case_rule_determinism_unordered():
    _expect_rule("fires/determinism_unordered",
                 "granulock-determinism-unordered-iter", 2, lines=[12, 20])


def case_rule_determinism_time():
    _expect_rule("fires/determinism_time", "granulock-determinism-time", 4,
                 lines=[12, 17, 21, 22])


def case_rule_audit_side_effect():
    _expect_rule("fires/audit_side_effect", "granulock-audit-side-effect", 2,
                 lines=[22, 23])


def case_rule_status_unchecked():
    _expect_rule("fires/status_unchecked", "granulock-status-unchecked", 1,
                 lines=[18])


def case_rule_fault_point():
    _expect_rule("fires/fault_point", "granulock-fault-point-placement", 1,
                 lines=[20])


def case_rule_usage():
    _expect_rule("fires/usage", "granulock-lint-usage", 1, lines=[5])


def case_rule_rng_stream():
    _expect_rule("fires/rng_stream", "granulock-rng-stream-isolation", 3,
                 lines=[37, 38, 43])


def case_rule_status_path():
    _expect_rule("fires/status_path", "granulock-status-path", 1,
                 lines=[16])


def case_sarif_report():
    """SARIF output over a firing fixture has the shape GitHub code
    scanning ingests: schema/version, a rule catalogue, one result per
    finding with a physical location."""
    root, files = _fixture_files("fires/status_path")
    cmd = [sys.executable, _LINT, "--root", root, "--format", "sarif",
           "--baseline", "", "--jobs", "1"] + files
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 1, \
        f"expected exit 1 (findings), got {proc.returncode}: {proc.stderr}"
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "granulock-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert "granulock-status-path" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "granulock-status-path"
    assert result["level"] == "warning"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 16
    assert loc["artifactLocation"]["uri"].endswith("bad_status_path.cc")
    assert "suppressions" not in result
    # Deterministic: a second run is byte-identical.
    proc2 = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.stdout == proc2.stdout, "SARIF output is not deterministic"


def case_suppression():
    code, doc = _run("suppression")
    assert code == 0, f"suppression: expected exit 0, got {code}"
    assert doc["findings"] == [], \
        f"suppression: expected no live findings: {doc['findings']}"
    assert doc["suppressed"] == 3, \
        f"suppression: expected 3 suppressed, got {doc['suppressed']}"


def case_clean_tree():
    code, doc = _run("clean")
    assert code == 0, f"clean: expected exit 0, got {code}"
    assert doc["findings"] == [], \
        f"clean tree produced findings: {doc['findings']}"
    assert doc["suppressed"] == 0, \
        f"clean tree needed suppressions: {doc['suppressed']}"
    assert doc["files_scanned"] == 2


def case_baseline():
    baseline = os.path.join(_FIXTURES, "baseline", "baseline.json")
    code, doc = _run("baseline", baseline=baseline)
    assert code == 0, f"baseline: expected exit 0, got {code}"
    assert doc["findings"] == []
    assert len(doc["baselined"]) == 1
    assert doc["baselined"][0]["rule"] == "granulock-determinism-time"


def case_json_report():
    code, doc = _run("fires/determinism_time")
    assert doc["tool"] == "granulock-lint"
    assert doc["meta"]["rules"], "meta.rules must list the active rules"
    for f in doc["findings"]:
        for key in ("rule", "path", "line", "col", "message"):
            assert key in f, f"finding missing '{key}': {f}"
    # Byte-identical re-run: the report is stable-sorted.
    _, doc2 = _run("fires/determinism_time")
    doc.pop("meta"), doc2.pop("meta")
    assert doc == doc2, "JSON report is not deterministic across runs"


def case_rules_filter():
    # --rules restricts the run to one rule; the other fixture findings
    # disappear without touching the files.
    root, files = _fixture_files("fires/determinism_time")
    cmd = [sys.executable, _LINT, "--root", root, "--format", "json",
           "--baseline", "", "--jobs", "1",
           "--rules", "granulock-status-unchecked"] + files
    proc = subprocess.run(cmd, capture_output=True, text=True)
    doc = json.loads(proc.stdout)
    assert proc.returncode == 0 and doc["findings"] == [], \
        f"--rules filter leaked findings: {doc['findings']}"


def case_rule_catalogue():
    """The ids --list-rules prints are exactly the ids documented in
    docs/STATIC_ANALYSIS.md's rule catalogue (less granulock-lint-usage,
    which is emitted by the suppression check, not a registered rule),
    and each one has a rule_* case proving it fires."""
    proc = subprocess.run([sys.executable, _LINT, "--list-rules"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed = {line for line in proc.stdout.splitlines()
              if line.startswith("granulock-")}
    with open(os.path.join(_REPO, "docs", "STATIC_ANALYSIS.md"),
              encoding="utf-8") as f:
        docs = f.read()
    catalogue = docs.split("### Rule catalogue", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `(granulock-[a-z-]+)` \|", catalogue,
                                re.MULTILINE))
    documented.discard("granulock-lint-usage")
    assert listed == documented, \
        f"--list-rules and the docs catalogue disagree: only listed " \
        f"{sorted(listed - documented)}, only documented " \
        f"{sorted(documented - listed)}"
    # A fire case names its rule id as a string constant.
    fired = {const for name, fn in CASES.items()
             if name.startswith("rule_") and fn is not case_rule_catalogue
             for const in fn.__code__.co_consts
             if isinstance(const, str) and const.startswith("granulock-")}
    assert listed <= fired, \
        f"rules without a rule_* fire case: {sorted(listed - fired)}"


def case_full_repo(build_dir: str):
    """The acceptance gate: the real tree is clean with an empty baseline."""
    cmd = [sys.executable, _LINT, "--root", _REPO, "--format", "json",
           "--build-dir", build_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode in (0, 1), \
        f"linter crashed (exit {proc.returncode}): {proc.stderr}"
    doc = json.loads(proc.stdout)
    assert doc["findings"] == [], \
        "the repository must lint clean; fix (do not baseline) these:\n" + \
        "\n".join(f"  {f['path']}:{f['line']}: {f['message']} [{f['rule']}]"
                  for f in doc["findings"])
    assert doc["baselined"] == [], \
        f"the shipped baseline must stay empty: {doc['baselined']}"
    assert doc["files_scanned"] > 100, \
        f"suspiciously few files scanned: {doc['files_scanned']}"
    assert proc.returncode == 0


CASES = {
    "rule_determinism_unordered": case_rule_determinism_unordered,
    "rule_determinism_time": case_rule_determinism_time,
    "rule_audit_side_effect": case_rule_audit_side_effect,
    "rule_status_unchecked": case_rule_status_unchecked,
    "rule_fault_point": case_rule_fault_point,
    "rule_usage": case_rule_usage,
    "rule_rng_stream": case_rule_rng_stream,
    "rule_status_path": case_rule_status_path,
    "sarif_report": case_sarif_report,
    "suppression": case_suppression,
    "clean_tree": case_clean_tree,
    "baseline": case_baseline,
    "json_report": case_json_report,
    "rules_filter": case_rules_filter,
    "rule_catalogue": case_rule_catalogue,
    "full_repo": case_full_repo,  # needs --build-dir
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", help="run a single case")
    parser.add_argument("--build-dir", default=None,
                        help="build dir with compile_commands.json "
                             "(full_repo case only)")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()

    if args.list:
        print("\n".join(CASES))
        return 0

    names = [args.case] if args.case else \
        [c for c in CASES if c != "full_repo"]
    for name in names:
        if name not in CASES:
            print(f"unknown case {name}; --list shows the catalogue",
                  file=sys.stderr)
            return 2
        fn = CASES[name]
        if name == "full_repo":
            if not args.build_dir:
                print("full_repo needs --build-dir", file=sys.stderr)
                return 2
            fn(args.build_dir)
        else:
            fn()
        print(f"[ OK ] {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
