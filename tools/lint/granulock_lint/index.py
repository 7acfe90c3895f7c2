"""Project-wide symbol index.

Three cross-file facts feed the semantic rules:

  * which function names return ``Status`` / ``Result<T>`` (the Status
    discipline rules flag discarded or unconsumed calls to them),
  * which method names are declared ``const`` vs non-``const`` (the audit
    purity rule flags non-const member calls inside ``GRANULOCK_DCHECK*``
    arguments), and
  * the callee summaries (``summaries.py``) that widen the RNG-stream
    isolation rule's sources to wrapper functions.

Both are name-keyed, not overload-resolved, so the index also tracks
*ambiguity*: a name that is ever declared with a non-Status return type
(or with both const and non-const declarations) is excluded from its
rule.  Ambiguity therefore produces missed findings, never false
positives — the right failure mode for a merge gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from . import summaries as summaries_mod
from .cpp_model import FileModel
from .lexer import Token, match_paren

# Tokens that may precede a declaration's return type.
_DECL_CONTEXT = {";", "{", "}", ":", ")", ">", ","}
_DECL_SPECIFIERS = {"virtual", "static", "inline", "constexpr", "explicit",
                    "friend", "extern", "public", "private", "protected",
                    "const", "mutable", "typename", "else", "do"}
# Identifier-like tokens that are never a user return type.
_NOT_A_TYPE = {"return", "new", "delete", "throw", "else", "do", "goto",
               "case", "break", "continue", "operator", "sizeof", "co_await",
               "co_return", "co_yield", "and", "or", "not"}
_AFTER_PARAMS_DECL = {";", "{", "const", "override", "final", "noexcept",
                      "->", "="}


@dataclass
class ProjectIndex:
    # Names declared at least once returning Status / Result<...>.
    status_names: Set[str] = field(default_factory=set)
    # Names also declared with some other return type (ambiguous).
    non_status_names: Set[str] = field(default_factory=set)
    # Method/function names with at least one const declaration.
    const_methods: Set[str] = field(default_factory=set)
    # Method/function names with at least one non-const
    # declaration/definition.
    nonconst_methods: Set[str] = field(default_factory=set)
    # Raw per-definition facts for the callee-summary pass, keyed by
    # unqualified name; fixpointed into ``summaries`` by finalize().
    fn_facts: Dict[str, List["summaries_mod.FnFact"]] = field(
        default_factory=dict)
    summaries: Optional["summaries_mod.Summaries"] = None

    def returns_status(self, name: str) -> bool:
        return name in self.status_names and name not in self.non_status_names

    def is_known_nonconst_method(self, name: str) -> bool:
        return name in self.nonconst_methods and name not in self.const_methods

    def finalize(self) -> None:
        """Closes the callee summaries; call once after all files are
        indexed (build_index does)."""
        self.summaries = summaries_mod.finalize(self.fn_facts)


def _is_declaration(tokens: List[Token], name_index: int) -> bool:
    """tokens[name_index] is an identifier followed by '('.  True when the
    construct reads as a function declaration/definition rather than a
    call: the parameter list is followed by a declaration tail."""
    close = match_paren(tokens, name_index + 1)
    if close is None or close + 1 >= len(tokens):
        return False
    after = tokens[close + 1].text
    if after not in _AFTER_PARAMS_DECL:
        return False
    if after == "=":
        # `= default` / `= delete` / `= 0` are declaration tails; anything
        # else (`Foo(x) = y`) is an expression.
        if close + 2 < len(tokens) and tokens[close + 2].text in (
                "default", "delete", "0"):
            return True
        return False
    return True


def _return_type_before(tokens: List[Token], name_index: int):
    """Classifies the return type written directly before the function name
    at ``name_index``.  Returns "status", "other", or None (no type there,
    e.g. a call or constructor)."""
    j = name_index - 1
    # Skip over qualification (Class::Name) back to the type.
    while j - 1 >= 0 and tokens[j].text == "::" and tokens[j - 1].kind == "ident":
        j -= 2
    if j < 0:
        return None
    # Reference/pointer returns: `JsonWriter& Value()` must register as a
    # non-Status declaration of "Value", or a same-named `Status Value()`
    # elsewhere would claim the name unambiguously. A reference/pointer to
    # Status is never flagged either way (discarding one is not dropping
    # an error), so any ref-returning declaration classifies as "other".
    saw_ref = False
    while j >= 0 and tokens[j].kind == "punct" and \
            tokens[j].text in ("&", "*", "&&"):
        saw_ref = True
        j -= 1
    if saw_ref:
        if j >= 0 and (tokens[j].kind == "ident"
                       and tokens[j].text not in _NOT_A_TYPE
                       or tokens[j].text == ">"):
            return "other"
        return None
    t = tokens[j]
    if t.kind == "punct" and t.text == ">":
        # Possibly Result<...> — walk to the matching '<'.
        depth = 0
        k = j
        while k >= 0:
            if tokens[k].text == ">":
                depth += 1
            elif tokens[k].text == "<":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        if k - 1 >= 0 and tokens[k - 1].kind == "ident":
            head = tokens[k - 1].text
            if head in ("Result", "StatusOr"):
                return "status"
            return "other"
        return None
    if t.kind != "ident":
        return None
    if t.text in _NOT_A_TYPE:
        return None
    # Reference/pointer returns (`Status& f()`) would put '&'/'*' here; the
    # project returns Status by value, and flagging discarded calls to
    # reference-returning accessors would be wrong anyway.
    prev = tokens[j - 1] if j - 1 >= 0 else None
    if prev is not None and prev.kind == "punct" and prev.text not in _DECL_CONTEXT:
        # e.g. `a + Foo(...)`: Foo's "type" is an operand, not a type.
        return None
    if prev is not None and prev.kind == "ident" and (
            prev.text not in _DECL_SPECIFIERS and prev.text not in _DECL_CONTEXT):
        # Two identifiers before the name (`T x Foo(`) — unlikely a decl we
        # understand; stay silent.
        return None
    if t.text == "Status":
        return "status"
    return "other"


def index_file(index: ProjectIndex, model: FileModel) -> None:
    tokens = model.lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "ident":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        if not _is_declaration(tokens, i):
            continue
        kind = _return_type_before(tokens, i)
        if kind == "status":
            index.status_names.add(tok.text)
        elif kind == "other":
            index.non_status_names.add(tok.text)
        # Constness of the declaration. A bare `;` tail is indistinguishable
        # from an expression statement (`x.Foo();`), so it only counts as a
        # non-const declaration when a return type was recognised too.
        close = match_paren(tokens, i + 1)
        if close is not None and close + 1 < len(tokens):
            tail = tokens[close + 1].text
            if tail == "const":
                index.const_methods.add(tok.text)
            elif tail in ("override", "final", "noexcept", "{"):
                index.nonconst_methods.add(tok.text)
            elif tail == ";" and kind is not None:
                index.nonconst_methods.add(tok.text)
    summaries_mod.collect(index.fn_facts, model)
