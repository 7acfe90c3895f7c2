"""The lint engine: indexing and the parallel file-level runner.

Mirrors tools/run_clang_tidy.sh's shape — one worker per file, bounded
by ``--jobs`` — but in-process.  The project index is built serially
first (it is cheap: one lex of the tree), then files are linted in a
``multiprocessing`` pool; on POSIX the index is shared with workers via
fork, so nothing is re-parsed.  Output order is independent of worker
scheduling: findings are sorted before reporting.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import List, Optional

from . import cpp_model, lexer, suppress
from .index import ProjectIndex, index_file
from .rules import Finding, Rule, RuleContext


@dataclass
class FileResult:
    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    error: Optional[str] = None
    lines: List[str] = field(default_factory=list)


# Worker globals installed by _init_worker (inherited via fork).
_WORK_INDEX: Optional[ProjectIndex] = None
_WORK_RULES: Optional[List[Rule]] = None
_WORK_ROOT: str = ""


def _init_worker(index: ProjectIndex, rules: List[Rule],
                 repo_root: str) -> None:
    global _WORK_INDEX, _WORK_RULES, _WORK_ROOT
    _WORK_INDEX = index
    _WORK_RULES = rules
    _WORK_ROOT = repo_root


def lint_one_file(rel_path: str, repo_root: str, index: ProjectIndex,
                  rules: List[Rule]) -> FileResult:
    result = FileResult(path=rel_path)
    abspath = os.path.join(repo_root, rel_path)
    try:
        with open(abspath, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        result.error = f"{rel_path}: unreadable: {e}"
        return result
    result.lines = text.splitlines()
    try:
        lexed = lexer.lex(rel_path, text)
    except lexer.LexError as e:
        result.error = str(e)
        return result
    model = cpp_model.build_model(lexed)
    sup = suppress.parse_suppressions(lexed.comments)
    ctx = RuleContext(index)
    raw: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(rel_path):
            continue
        raw.extend(rule.check(rel_path, model, ctx))
    known = {rule.id for rule in rules}
    raw.extend(suppress.unknown_rule_findings(rel_path, sup, known))
    for finding in raw:
        if sup.suppresses(finding):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    return result


def _lint_worker(rel_path: str) -> FileResult:
    assert _WORK_INDEX is not None and _WORK_RULES is not None
    return lint_one_file(rel_path, _WORK_ROOT, _WORK_INDEX, _WORK_RULES)


def build_index(repo_root: str, files: List[str]) -> ProjectIndex:
    index = ProjectIndex()
    for rel in files:
        abspath = os.path.join(repo_root, rel)
        try:
            with open(abspath, "r", encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
            lexed = lexer.lex(rel, text)
        except (OSError, lexer.LexError):
            continue  # the per-file pass reports the error
        index_file(index, cpp_model.build_model(lexed))
    index.finalize()
    return index


def run(repo_root: str, files: List[str], rules: List[Rule],
        jobs: int = 0) -> List[FileResult]:
    index = build_index(repo_root, files)
    if jobs <= 0:
        jobs = os.cpu_count() or 4
    jobs = max(1, min(jobs, len(files) or 1))
    if jobs == 1 or len(files) <= 2:
        results = [lint_one_file(f, repo_root, index, rules) for f in files]
    else:
        with multiprocessing.Pool(
                processes=jobs, initializer=_init_worker,
                initargs=(index, rules, repo_root)) as pool:
            results = pool.map(_lint_worker, files, chunksize=4)
    results.sort(key=lambda r: r.path)
    return results
