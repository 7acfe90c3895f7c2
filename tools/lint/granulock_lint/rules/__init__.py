"""Rule registry and the shared rule interface.

Every rule is a subclass of :class:`Rule` registered via
:func:`register`.  A rule sees one file at a time (as a
:class:`~granulock_lint.cpp_model.FileModel`) plus the project-wide
:class:`~granulock_lint.index.ProjectIndex`, and yields
:class:`Finding` objects.  Path scoping is part of each rule: the rules
encode *where* an invariant applies (e.g. wall-clock reads are legal in
``src/util`` but nowhere else), so scope changes are reviewed like any
other rule change.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Dict, Iterable, List, Type

from ..cpp_model import FileModel
from ..index import ProjectIndex


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)


class RuleContext:
    """Per-run context handed to every rule."""

    def __init__(self, index: ProjectIndex):
        self.index = index


class Rule:
    """Base class. Subclasses set ``id``/``rationale`` and implement
    ``check``; ``paths``/``exclude_paths`` are fnmatch globs against the
    repo-relative path (empty ``paths`` means every linted file)."""

    id: str = ""
    rationale: str = ""
    paths: List[str] = []
    exclude_paths: List[str] = []

    def applies_to(self, rel_path: str) -> bool:
        if self.paths and not any(
                fnmatch.fnmatch(rel_path, g) for g in self.paths):
            return False
        if any(fnmatch.fnmatch(rel_path, g) for g in self.exclude_paths):
            return False
        return True

    def check(self, rel_path: str, model: FileModel,
              ctx: RuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, rel_path: str, line: int, col: int,
                message: str) -> Finding:
        return Finding(rule=self.id, path=rel_path, line=line, col=col,
                       message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    assert cls.id, f"rule {cls.__name__} has no id"
    assert cls.id not in _REGISTRY, f"duplicate rule id {cls.id}"
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    # Import the rule modules for their registration side effect.
    from . import (audit_purity, determinism,  # noqa: F401
                   fault_hygiene, rng_isolation, status_discipline)
    return [cls() for _, cls in sorted(_REGISTRY.items())]
