"""Status discipline.

The library reports failures by returning ``Status`` / ``Result<T>``
(no exceptions across public APIs), which only works if no caller drops
a return on the floor.  The rule flags calls to functions the project
index knows to return Status-like types when the call is a full
expression statement (result discarded).  Accepted disciplines:

  * use the value: assign, compare, branch, return, pass as argument;
  * propagate: ``GRANULOCK_RETURN_NOT_OK(expr)``;
  * explicitly void: ``(void)expr;`` with a comment explaining why.

Name-ambiguous functions (same name declared with a non-Status return
anywhere in the project) are skipped entirely — missed findings beat
false gates.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .. import dataflow
from ..cfg import Stmt, calls_in_range, functions_of
from ..cpp_model import FileModel, statement_discards_call
from . import Finding, Rule, RuleContext, register


@register
class UncheckedStatusRule(Rule):
    id = "granulock-status-unchecked"
    rationale = (
        "a discarded Status/Result silently swallows the only failure "
        "signal the library emits; check it, propagate it with "
        "GRANULOCK_RETURN_NOT_OK, or cast to (void) with a reason"
    )
    paths = ["src/*", "src/*/*", "bench/*", "examples/*"]

    def check(self, rel_path: str, model: FileModel,
              ctx: RuleContext) -> Iterable[Finding]:
        tokens = model.lexed.tokens
        for call in model.calls:
            if not ctx.index.returns_status(call.name):
                continue
            if not statement_discards_call(tokens, call):
                continue
            yield self.finding(
                rel_path, call.line, call.col,
                f"result of '{call.qualified()}()' is discarded but the "
                f"function returns Status/Result; check it, wrap it in "
                f"GRANULOCK_RETURN_NOT_OK, or write "
                f"'(void){call.name}(...);' with a justifying comment")


class _StoredStatuses(dataflow.Analysis):
    """Forward may-analysis: the set of local names holding a
    Status/Result that has not been consumed yet.  A name in the state
    at function exit was stored and then ignored on some path."""

    direction = "forward"

    def __init__(self, model: FileModel, status_names):
        self.model = model
        self.tokens = model.lexed.tokens
        self.status_names = status_names
        # (var, line, col) of each gen site, for the report.
        self.decl_sites = {}

    def boundary_state(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer_stmt(self, stmt: Stmt, state):
        gen = self._stored_status_var(stmt)
        # Any mention consumes: branching on it, returning it, passing
        # it (by value, reference, or address), calling .ok() on it.
        # The storing statement itself does not consume what it stores.
        mentioned = frozenset(
            name for name in state
            if name != gen and self._mentions(stmt, name))
        state = state - mentioned
        if gen is not None:
            state = state | {gen}
        return state

    def _mentions(self, stmt: Stmt, name: str) -> bool:
        for i in range(stmt.start, min(stmt.end + 1,
                                       len(self.tokens))):
            tok = self.tokens[i]
            if tok.kind == "ident" and tok.text == name:
                return True
        return False

    def _stored_status_var(self, stmt: Stmt) -> Optional[str]:
        """The plain local a Status-returning call is stored into, when
        the call is the entire initializer: ``Status s = F(...);`` /
        ``auto s = obj->G(...);``.  None otherwise."""
        if stmt.kind != "plain":
            return None
        for call in calls_in_range(self.model, stmt.start, stmt.end):
            if not self.status_names(call.name):
                continue
            j = call.expr_start - 1
            if j <= stmt.start or self.tokens[j].text != "=":
                continue
            # A store nested inside the statement (a lambda body, an
            # argument expression) is another scope whose consumption
            # this statement-flat view cannot see: skip it.
            if self._depth_at(stmt.start, j) != 0:
                continue
            if self.tokens[j - 1].kind != "ident":
                continue
            k = call.close_index + 1
            if k <= stmt.end and self.tokens[k].text != ";":
                continue  # `= F(...).ok()` already consumes it
            var = self.tokens[j - 1].text
            self.decl_sites.setdefault(
                var, (self.tokens[j - 1].line, self.tokens[j - 1].col))
            return var
        return None

    def _depth_at(self, start: int, at: int) -> int:
        depth = 0
        for i in range(start, at):
            tok = self.tokens[i]
            if tok.kind != "punct":
                continue
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
        return depth


@register
class StatusPathRule(Rule):
    id = "granulock-status-path"
    rationale = (
        "storing a Status silences the statement-level discard check, "
        "but a path that then exits without looking at the value drops "
        "the failure signal just the same — path-sensitively, every "
        "branch must consume it"
    )
    paths = ["src/*", "src/*/*", "bench/*", "examples/*"]

    def check(self, rel_path: str, model: FileModel,
              ctx: RuleContext) -> Iterable[Finding]:
        tokens = model.lexed.tokens
        for func in functions_of(model):
            cfg = func.cfg(tokens)
            if cfg is None:
                continue
            analysis = _StoredStatuses(model, ctx.index.returns_status)
            unconsumed = dataflow.exit_state(cfg, analysis)
            if not unconsumed:
                continue
            for var in sorted(unconsumed):
                line, col = analysis.decl_sites[var]
                yield self.finding(
                    rel_path, line, col,
                    f"'{var}' stores a Status/Result here, but some "
                    f"path through '{func.name}' reaches the end "
                    f"without consuming it; branch on it, return it, "
                    f"or pass it on along every path")
