"""Lightweight C++ AST built on the token stream.

The frontend does not type-check C++; it recovers exactly the
program structure the rules reason about:

  * call expressions, with the full (possibly qualified / member) callee
    path and the token extent of each argument;
  * declarations of variables whose declared type names an unordered
    associative container (for the determinism rule);
  * range-for statements and classic iterator loops;
  * enough statement-boundary context to decide whether a call's result
    is discarded.

Everything is deliberately conservative: when the model cannot classify
a construct it stays silent, so ambiguity produces missed findings, not
false positives.  The fixtures in tests/lint_test pin down the constructs
each rule must recognise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .lexer import LexedFile, Token, match_paren

# Tokens that terminate a statement / begin a new one.  A call expression
# whose previous significant token is one of these starts a statement.
_STMT_BOUNDARY = {";", "{", "}"}
# Keywords that may directly precede an expression-statement.
_STMT_KEYWORDS = {"else", "do", "try"}

# Assignment-flavoured operators (NOT the comparison family).
MUTATING_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                "<<=", ">>=", "++", "--"}

_UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                    "unordered_multiset"}


@dataclass(frozen=True)
class CallSite:
    """One syntactic call: ``path ( args )``."""

    name: str  # last identifier of the callee: "ShouldFire"
    path: Tuple[str, ...]  # qualification chain: ("Injector", "Global", ...)
    # The punctuation that joined path elements, aligned with path[1:]:
    # "::", ".", or "->".
    joiners: Tuple[str, ...]
    name_index: int  # token index of `name`
    open_index: int  # token index of '('
    close_index: int  # token index of the matching ')'
    expr_start: int  # token index where the full postfix expression begins
    line: int
    col: int

    def qualified(self) -> str:
        if not self.joiners:
            return self.name
        out = [self.path[0]]
        for joiner, part in zip(self.joiners, self.path[1:]):
            out.append(joiner)
            out.append(part)
        return "".join(out)

    @property
    def is_member_call(self) -> bool:
        return bool(self.joiners) and self.joiners[-1] in (".", "->")


@dataclass(frozen=True)
class RangeFor:
    """``for ( decl : expr )`` — expr_base is the last identifier of the
    iterated expression (``states_`` for ``this->states_``)."""

    expr_base: str
    line: int
    col: int


@dataclass
class FileModel:
    lexed: LexedFile
    calls: List[CallSite] = field(default_factory=list)
    range_fors: List[RangeFor] = field(default_factory=list)
    # Names declared (anywhere in the file) with an unordered container
    # type: variable/member/parameter name -> declaration line.
    unordered_decls: Dict[str, int] = field(default_factory=dict)


def _is_call_head(tokens: List[Token], i: int) -> bool:
    """True when tokens[i] is an identifier directly followed by '(' and
    the identifier is not a declaration/definition head, keyword, or macro
    definition."""
    if tokens[i].kind != "ident":
        return False
    if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
        return False
    if tokens[i].text in ("if", "for", "while", "switch", "return", "sizeof",
                          "alignof", "decltype", "catch", "noexcept",
                          "static_assert", "alignas", "new", "delete",
                          "co_return", "co_await", "co_yield", "typeid",
                          "static_cast", "dynamic_cast", "const_cast",
                          "reinterpret_cast", "defined", "assert"):
        return False
    return True


def _walk_callee_prefix(tokens: List[Token], i: int) -> Tuple[int, Tuple[str, ...], Tuple[str, ...]]:
    """Walks left from the callee identifier at ``i`` through
    ``a::b``, ``a.b``, ``a->b``, and ``a(...).b`` chains.

    Returns (expr_start_index, path, joiners)."""
    path = [tokens[i].text]
    joiners: List[str] = []
    j = i
    while j - 1 >= 0:
        prev = tokens[j - 1]
        if prev.kind != "punct" or prev.text not in ("::", ".", "->"):
            break
        if j - 2 >= 0 and tokens[j - 2].kind == "ident":
            path.insert(0, tokens[j - 2].text)
            joiners.insert(0, prev.text)
            j -= 2
            continue
        if j - 2 >= 0 and tokens[j - 2].text == ")":
            # Chained off a call or parenthesised expression:
            # Global().ShouldFire(...). Walk to the matching '('.
            depth = 0
            k = j - 2
            while k >= 0:
                if tokens[k].text == ")":
                    depth += 1
                elif tokens[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                break
            # The '(' may itself be a call: include its callee.
            if k - 1 >= 0 and tokens[k - 1].kind == "ident":
                path.insert(0, tokens[k - 1].text + "()")
                joiners.insert(0, prev.text)
                j = k - 1
                continue
            path.insert(0, "()")
            joiners.insert(0, prev.text)
            j = k
            continue
        if prev.text == "::" and (j - 2 < 0
                                  or tokens[j - 2].kind != "ident"):
            # Global qualification: ::granulock::Foo(...)
            j -= 1
            continue
        break
    return j, tuple(path), tuple(joiners)


def _collect_calls(model: FileModel) -> None:
    tokens = model.lexed.tokens
    for i, tok in enumerate(tokens):
        if not _is_call_head(tokens, i):
            continue
        close = match_paren(tokens, i + 1)
        if close is None:
            continue
        expr_start, path, joiners = _walk_callee_prefix(tokens, i)
        model.calls.append(
            CallSite(name=tok.text, path=path, joiners=joiners,
                     name_index=i, open_index=i + 1, close_index=close,
                     expr_start=expr_start, line=tok.line, col=tok.col))


def _collect_range_fors(model: FileModel) -> None:
    tokens = model.lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or tok.text != "for":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        if close is None:
            continue
        # A range-for has a ':' at paren depth 1 that is not part of '::'
        # and not a ternary.
        depth = 0
        colon = None
        for j in range(i + 1, close):
            t = tokens[j]
            if t.kind != "punct":
                continue
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == ";":
                colon = None  # classic for loop
                break
            elif t.text == ":" and depth == 1:
                colon = j
                break
        if colon is None:
            continue
        expr_toks = tokens[colon + 1:close]
        base = None
        for t in reversed(expr_toks):
            if t.kind == "ident":
                base = t.text
                break
        if base is None:
            continue
        model.range_fors.append(
            RangeFor(expr_base=base, line=tok.line, col=tok.col))


def _collect_unordered_decls(model: FileModel) -> None:
    """Records names declared with std::unordered_{map,set,...} types.

    Handles locals, members, and parameters:
        std::unordered_map<K, V> name
        unordered_set<T>& name
    """
    tokens = model.lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or tok.text not in _UNORDERED_TYPES:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            continue
        # Skip over the template argument list.
        depth = 0
        j = i + 1
        while j < len(tokens):
            t = tokens[j]
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            elif t.text == ";":
                break
            j += 1
        j += 1
        # Reference/pointer/cv decorations before the declared name.
        while j < len(tokens) and tokens[j].text in ("&", "*", "const", "&&"):
            j += 1
        if j < len(tokens) and tokens[j].kind == "ident":
            model.unordered_decls.setdefault(tokens[j].text, tokens[j].line)


def build_model(lexed: LexedFile) -> FileModel:
    model = FileModel(lexed=lexed)
    _collect_calls(model)
    _collect_range_fors(model)
    _collect_unordered_decls(model)
    return model


def statement_discards_call(tokens: List[Token], call: CallSite) -> bool:
    """True when the call is a full expression statement whose result is
    discarded: the postfix expression starts at a statement boundary and
    the token after the closing ')' is ';'."""
    after = call.close_index + 1
    if after >= len(tokens) or tokens[after].text != ";":
        return False
    before = call.expr_start - 1
    if before < 0:
        return True
    prev = tokens[before]
    if prev.kind == "punct" and prev.text in _STMT_BOUNDARY:
        # `)` + `;` forms like `(void)Foo();` never reach here because the
        # cast makes expr_start walk stop at Foo, leaving prev == ')'.
        return True
    if prev.kind == "ident" and prev.text in _STMT_KEYWORDS:
        return True
    return False


_EXPR_KEYWORDS = {"return", "co_return", "throw", "case", "else", "do",
                  "goto", "and", "or", "not", "new", "delete", "co_await",
                  "co_yield"}


def preceded_by_type_ident(tokens: List[Token], call: CallSite) -> bool:
    """True when the unqualified call-shaped construct is directly preceded
    by a type-like identifier — i.e. it reads as a function *declaration*
    (``double time() const``), not a call.  Expression keywords (``return
    time(0)``) do not count as types."""
    if call.joiners:
        return False
    before = call.expr_start - 1
    if before < 0:
        return False
    prev = tokens[before]
    if prev.kind == "punct" and prev.text == "~":
        return True  # destructor
    return prev.kind == "ident" and prev.text not in _EXPR_KEYWORDS


def statement_end(tokens: List[Token], start: int) -> int:
    """Token index of the ';' ending the statement containing ``start``
    (or the last token index when unterminated)."""
    depth = 0
    for i in range(start, len(tokens)):
        t = tokens[i]
        if t.kind != "punct":
            continue
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == ";" and depth <= 0:
            return i
    return len(tokens) - 1
