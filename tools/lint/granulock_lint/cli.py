"""Command-line interface.

Exit codes follow tools/run_clang_tidy.sh: 0 clean, 1 findings, 2 the
environment is unusable (no compile database, bad arguments).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from . import __version__, baseline as baseline_mod, compile_db, engine, report
from .rules import Finding, all_rules


def _default_repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.realpath(os.path.join(here, "..", "..", ".."))


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="granulock-lint",
        description="AST-level semantic linter for the granulock codebase "
                    "(rule catalogue: docs/STATIC_ANALYSIS.md)")
    p.add_argument("paths", nargs="*",
                   help="repo-relative files to lint (default: every "
                        "translation unit in compile_commands.json plus "
                        "project headers)")
    p.add_argument("-p", "--build-dir", default=None,
                   help="directory containing compile_commands.json "
                        "(default: ./build, then newest ./build-*)")
    p.add_argument("--root", default=None,
                   help="repository root (default: the checkout containing "
                        "this script)")
    p.add_argument("--format", dest="fmt", default="text",
                   choices=["text", "json", "sarif"], help="report format")
    p.add_argument("--changed-only", action="store_true",
                   help="lint only files that differ from the base branch "
                        "(intersected with the compile-db lint set); fast "
                        "local iteration, not a substitute for the full "
                        "strict run")
    p.add_argument("--changed-base", default="main",
                   help="base ref for --changed-only (default: main)")
    p.add_argument("--baseline", default=None,
                   help="baseline file (default: tools/lint/baseline.json; "
                        "pass an empty string to disable)")
    p.add_argument("--write-baseline", action="store_true",
                   help="write current findings to the baseline file and "
                        "exit 0")
    p.add_argument("--jobs", "-j", type=int, default=0,
                   help="parallel workers (0 = one per CPU)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--version", action="version",
                   version=f"granulock-lint {__version__}")
    return p


def main(argv: List[str] = None) -> int:
    args = make_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.paths) if rule.paths else "all files"
            print(f"{rule.id}\n    scope: {scope}\n    {rule.rationale}")
        return 0

    repo_root = os.path.realpath(args.root) if args.root \
        else _default_repo_root()

    rules = all_rules()
    if args.rules is not None:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = {r.id for r in rules}
        unknown = wanted - known
        if unknown:
            print(f"granulock-lint: unknown rule(s): "
                  f"{', '.join(sorted(unknown))} (see --list-rules)",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.id in wanted]

    if args.paths:
        files = []
        for path in args.paths:
            rel = os.path.relpath(
                os.path.realpath(os.path.join(os.getcwd(), path))
                if not os.path.isabs(path) else path, repo_root)
            rel = rel.replace(os.sep, "/")
            if rel.startswith(".."):
                print(f"granulock-lint: {path} is outside the repo root "
                      f"{repo_root}", file=sys.stderr)
                return 2
            files.append(rel)
        db = None
    else:
        db, files = compile_db.lint_set(repo_root, args.build_dir)
        if db is None:
            print("granulock-lint: no compile_commands.json found "
                  "(configure first: cmake -B build -S .), or pass "
                  "explicit paths", file=sys.stderr)
            return 2

    if args.changed_only:
        try:
            changed = set(compile_db.changed_files(repo_root,
                                                   args.changed_base))
        except compile_db.ChangedFilesError as e:
            print(f"granulock-lint: --changed-only: {e}", file=sys.stderr)
            return 2
        files = [f for f in files if f in changed]
        if not files:
            print(f"granulock-lint: 0 files changed vs "
                  f"{args.changed_base}; nothing to lint")
            return 0

    missing = [f for f in files
               if not os.path.isfile(os.path.join(repo_root, f))]
    if missing:
        print(f"granulock-lint: missing files: {', '.join(missing[:5])}",
              file=sys.stderr)
        return 2

    results = engine.run(repo_root, files, rules=rules, jobs=args.jobs)

    errors = [r.error for r in results if r.error]
    for err in errors:
        print(f"granulock-lint: error: {err}", file=sys.stderr)

    findings: List[Finding] = []
    lines_by_path: Dict[str, List[str]] = {}
    suppressed = 0
    for r in results:
        findings.extend(r.findings)
        suppressed += r.suppressed
        lines_by_path[r.path] = r.lines

    baseline_path = args.baseline
    if baseline_path is None:
        default = os.path.join(repo_root, "tools", "lint", "baseline.json")
        baseline_path = default if os.path.isfile(default) else ""

    if args.write_baseline:
        if not baseline_path:
            baseline_path = os.path.join(repo_root, "tools", "lint",
                                         "baseline.json")
        baseline_mod.save(baseline_path, findings, lines_by_path)
        print(f"granulock-lint: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    base = baseline_mod.Baseline.empty()
    if baseline_path:
        try:
            base = baseline_mod.load(baseline_path)
        except (OSError, ValueError) as e:
            print(f"granulock-lint: bad baseline {baseline_path}: {e}",
                  file=sys.stderr)
            return 2

    live: List[Finding] = []
    baselined: List[Finding] = []
    for f in findings:
        entry = baseline_mod.entry_for(f, lines_by_path.get(f.path, []))
        (baselined if entry in base.entries else live).append(f)

    if args.fmt == "json":
        meta = {"version": __version__, "database": db or "",
                "rules": [r.id for r in rules]}
        sys.stdout.write(report.render_json(
            live, baselined, suppressed, len(results), meta))
    elif args.fmt == "sarif":
        sys.stdout.write(report.render_sarif(
            live, baselined, rules, __version__))
    else:
        report.render_text(live, baselined, suppressed, len(results))

    if errors:
        return 2
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
