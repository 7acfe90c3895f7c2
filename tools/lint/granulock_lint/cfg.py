"""Intraprocedural control-flow graphs over the lexer's token stream.

This is the structural layer granulock-lint adds on top of the
statement-level frontend: function bodies are recovered from the token
stream and compiled into a graph of basic blocks so the dataflow rules
(rng-stream-isolation, status-path) can reason about *paths* — early
returns, error branches, loop back edges — instead of statements in
isolation.

The builder understands goto-free structured C++: compound statements,
``if``/``else`` (including ``if constexpr`` and C++17 init-statements),
``while``/``do``/``for`` (classic and range), ``switch`` with
fall-through and ``break``, ``return``/``throw``, ``break``/``continue``.
Anything it cannot compile — ``goto``, ``try``, a construct that fails
to parse — marks the whole function unanalyzable (``Function.cfg is
None``), so every CFG consumer silently skips it.  Like the rest of the
frontend: ambiguity yields missed findings, never false positives.

A branch's edges carry its direction (:class:`Edge.branch`), and the
controlling condition is the source block's last statement, so an
analysis can refine its state along the true/false edges of a branch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cpp_model import CallSite, FileModel
from .lexer import Token, match_close, match_paren

# Keywords that can never head an extracted function definition.
_NOT_A_FUNCTION = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "noexcept", "static_assert", "alignas", "new",
    "delete", "co_return", "co_await", "co_yield", "typeid", "defined",
    "assert", "case", "goto", "throw", "else", "do", "operator",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

# Declaration-tail tokens that may sit between ')' and the body '{'.
_TAIL_SKIP = {"const", "override", "final", "mutable", "&", "&&"}


@dataclass(frozen=True)
class Stmt:
    """One statement: the inclusive token range [start, end].

    ``kind`` is "plain", "cond" (a branch/loop controlling expression),
    or "return" (return/co_return/throw).
    """

    start: int
    end: int
    kind: str


class Block:
    """A basic block: straight-line statements plus in/out edges."""

    __slots__ = ("id", "stmts", "succs", "preds")

    def __init__(self, block_id: int):
        self.id = block_id
        self.stmts: List[Stmt] = []
        self.succs: List["Edge"] = []
        self.preds: List["Edge"] = []


@dataclass
class Edge:
    """CFG edge.  When the edge leaves a branch (whose condition is the
    last statement of ``src``), ``branch`` tells which way: True for the
    condition-holds edge, False for the fall-through."""

    src: Block
    dst: Block
    branch: Optional[bool] = None


@dataclass
class CFG:
    entry: Block
    exit: Block
    blocks: List[Block]


@dataclass
class Function:
    """An extracted function definition with a lazily built CFG."""

    name: str
    body_open: int  # token index of the body '{'
    body_close: int  # token index of the matching '}'
    _cfg: Optional[CFG] = field(default=None, repr=False)
    _cfg_built: bool = field(default=False, repr=False)

    def cfg(self, tokens: List[Token]) -> Optional[CFG]:
        """The function's CFG, or None when the body is unanalyzable."""
        if not self._cfg_built:
            self._cfg_built = True
            try:
                self._cfg = _CfgBuilder(tokens, self.body_open,
                                        self.body_close).build()
            except _Unsupported:
                self._cfg = None
        return self._cfg


class _Unsupported(Exception):
    """Raised for constructs the builder refuses to model (goto, try)."""


# ---------------------------------------------------------------------------
# Function extraction


def _skip_ctor_init_list(tokens: List[Token], j: int,
                         limit: int) -> Optional[int]:
    """tokens[j] == ':' after a parameter list.  Walks the constructor
    initializer list and returns the index of the body '{', or None when
    the shape is not understood."""
    j += 1
    while j < limit:
        # Initializer head: a (possibly qualified / templated) name.
        if tokens[j].kind != "ident":
            return None
        j += 1
        while j < limit and tokens[j].text in ("::", "<"):
            if tokens[j].text == "::":
                j += 1
                if j >= limit or tokens[j].kind != "ident":
                    return None
                j += 1
            else:
                close = match_close(tokens, j, "<", ">")
                if close is None or close >= limit:
                    return None
                j = close + 1
        if j >= limit or tokens[j].text not in ("(", "{"):
            return None
        closer = ")" if tokens[j].text == "(" else "}"
        close = match_close(tokens, j, tokens[j].text, closer)
        if close is None or close >= limit:
            return None
        j = close + 1
        if j >= limit:
            return None
        if tokens[j].text == ",":
            j += 1
            continue
        if tokens[j].text == "{":
            return j
        return None
    return None


def _find_body_open(tokens: List[Token], j: int) -> Optional[int]:
    """Walks a declaration tail starting after the parameter ')' and
    returns the index of the body '{', or None when the construct is not
    a function definition (or not one the extractor understands)."""
    n = len(tokens)
    while j < n:
        t = tokens[j]
        if t.text == "{":
            return j
        if t.text == ";" or t.text == "=":
            return None  # declaration / `= default` / expression
        if t.text in _TAIL_SKIP:
            j += 1
            continue
        if t.text == "noexcept":
            j += 1
            if j < n and tokens[j].text == "(":
                close = match_paren(tokens, j)
                if close is None:
                    return None
                j = close + 1
            continue
        if t.text == "->":
            # Trailing return type: scan to the body '{' (the type itself
            # cannot contain braces at depth 0; decltype uses parens).
            depth = 0
            j += 1
            while j < n:
                text = tokens[j].text
                if text in ("(", "["):
                    depth += 1
                elif text in (")", "]"):
                    depth -= 1
                elif depth == 0 and text == "{":
                    return j
                elif depth == 0 and (text == ";" or text == "="):
                    return None
                j += 1
            return None
        if t.text == ":":
            return _skip_ctor_init_list(tokens, j, n)
        return None  # anything else: not a definition we understand
    return None


def extract_functions(model: FileModel) -> List[Function]:
    """All function definitions in the file, in token order.

    A definition is an identifier directly followed by a parameter list
    whose declaration tail reaches a body ``{``.  Operator overloads are
    skipped (their name is not a single identifier); so is anything whose
    tail the walker does not understand — skipped functions are simply
    invisible to the CFG rules.
    """
    tokens = model.lexed.tokens
    out: List[Function] = []
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or tok.text in _NOT_A_FUNCTION:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        if close is None:
            continue
        body_open = _find_body_open(tokens, close + 1)
        if body_open is None:
            continue
        body_close = match_close(tokens, body_open, "{", "}")
        if body_close is None:
            continue
        out.append(Function(name=tok.text, body_open=body_open,
                            body_close=body_close))
    return out


def functions_of(model: FileModel) -> List[Function]:
    """`extract_functions` memoized on the model instance."""
    cached = getattr(model, "_granulock_functions", None)
    if cached is None:
        cached = extract_functions(model)
        setattr(model, "_granulock_functions", cached)
    return cached


def calls_in_range(model: FileModel, start: int, end: int) -> List[CallSite]:
    """Call sites whose callee name token lies in [start, end].

    ``model.calls`` is built in token order, so bisection applies.
    """
    keys = getattr(model, "_granulock_call_keys", None)
    if keys is None:
        keys = [c.name_index for c in model.calls]
        setattr(model, "_granulock_call_keys", keys)
    lo = bisect_left(keys, start)
    hi = bisect_right(keys, end)
    return model.calls[lo:hi]


# ---------------------------------------------------------------------------
# CFG construction


class _CfgBuilder:
    def __init__(self, tokens: List[Token], body_open: int, body_close: int):
        self.tokens = tokens
        self.body_open = body_open
        self.body_close = body_close
        self.blocks: List[Block] = []
        self.entry = self._block()
        self.exit = self._block()
        # (break_target, continue_target) stack; continue may be None
        # inside a switch nested in no loop.
        self.loop_stack: List[Tuple[Block, Optional[Block]]] = []

    def _block(self) -> Block:
        b = Block(len(self.blocks))
        self.blocks.append(b)
        return b

    @staticmethod
    def _edge(src: Block, dst: Block,
              branch: Optional[bool] = None) -> None:
        e = Edge(src=src, dst=dst, branch=branch)
        src.succs.append(e)
        dst.preds.append(e)

    def build(self) -> CFG:
        first = self._block()
        self._edge(self.entry, first)
        last = self._stmts(self.body_open + 1, self.body_close, first)
        if last is not None:
            self._edge(last, self.exit)
        return CFG(entry=self.entry, exit=self.exit, blocks=self.blocks)

    # -- statement parsing --------------------------------------------------

    def _stmts(self, i: int, end: int,
               cur: Optional[Block]) -> Optional[Block]:
        while i < end:
            if cur is None:
                cur = self._block()  # unreachable tail after return/break
            i, cur = self._stmt(i, end, cur)
        return cur

    def _cond_stmt(self, open_index: int) -> Tuple[Stmt, int]:
        """(condition Stmt, index of the matching ')')."""
        close = match_paren(self.tokens, open_index)
        if close is None:
            raise _Unsupported("unbalanced condition")
        return Stmt(start=open_index + 1, end=close - 1, kind="cond"), close

    def _simple_stmt(self, i: int, end: int) -> Tuple[Stmt, int]:
        """Scans a plain statement to its terminating ';' at depth 0
        (lambda bodies and brace initializers stay inside the statement).
        Returns (Stmt, index past the ';')."""
        depth = 0
        j = i
        while j < end:
            text = self.tokens[j].text
            if self.tokens[j].kind == "punct":
                if text in ("(", "[", "{"):
                    depth += 1
                elif text in (")", "]", "}"):
                    depth -= 1
                elif text == ";" and depth == 0:
                    return Stmt(start=i, end=j, kind="plain"), j + 1
            j += 1
        return Stmt(start=i, end=end - 1, kind="plain"), end

    def _stmt(self, i: int, end: int,
              cur: Block) -> Tuple[int, Optional[Block]]:
        """Parses one statement starting at token ``i`` into ``cur``.
        Returns (index past the statement, block control falls out of —
        None when the statement never falls through)."""
        t = self.tokens[i]
        text = t.text

        if text == "{":
            close = match_close(self.tokens, i, "{", "}")
            if close is None or close > end:
                raise _Unsupported("unbalanced block")
            return close + 1, self._stmts(i + 1, close, cur)

        if text == ";":
            return i + 1, cur

        if t.kind == "ident":
            if text == "if":
                return self._if_stmt(i, end, cur)
            if text == "while":
                return self._while_stmt(i, end, cur)
            if text == "do":
                return self._do_stmt(i, end, cur)
            if text == "for":
                return self._for_stmt(i, end, cur)
            if text == "switch":
                return self._switch_stmt(i, end, cur)
            if text in ("return", "co_return", "throw"):
                stmt, after = self._simple_stmt(i, end)
                cur.stmts.append(Stmt(start=stmt.start, end=stmt.end,
                                      kind="return"))
                self._edge(cur, self.exit)
                return after, None
            if text == "break":
                if not self.loop_stack:
                    raise _Unsupported("break outside loop/switch")
                self._edge(cur, self.loop_stack[-1][0])
                return i + 2, None  # past `break ;`
            if text == "continue":
                target = next((c for _, c in reversed(self.loop_stack)
                               if c is not None), None)
                if target is None:
                    raise _Unsupported("continue outside loop")
                self._edge(cur, target)
                return i + 2, None
            if text in ("goto", "try", "catch"):
                raise _Unsupported(text)

        stmt, after = self._simple_stmt(i, end)
        cur.stmts.append(stmt)
        return after, cur

    def _if_stmt(self, i: int, end: int,
                 cur: Block) -> Tuple[int, Optional[Block]]:
        j = i + 1
        if j < end and self.tokens[j].text == "constexpr":
            j += 1
        if j >= end or self.tokens[j].text != "(":
            raise _Unsupported("if without condition")
        cond, close = self._cond_stmt(j)
        cur.stmts.append(cond)
        then_entry = self._block()
        self._edge(cur, then_entry, True)
        j, then_exit = self._stmt(close + 1, end, then_entry)
        if j < end and self.tokens[j].kind == "ident" \
                and self.tokens[j].text == "else":
            else_entry = self._block()
            self._edge(cur, else_entry, False)
            j, else_exit = self._stmt(j + 1, end, else_entry)
            if then_exit is None and else_exit is None:
                return j, None
            join = self._block()
            if then_exit is not None:
                self._edge(then_exit, join)
            if else_exit is not None:
                self._edge(else_exit, join)
            return j, join
        join = self._block()
        self._edge(cur, join, False)
        if then_exit is not None:
            self._edge(then_exit, join)
        return j, join

    def _while_stmt(self, i: int, end: int,
                    cur: Block) -> Tuple[int, Optional[Block]]:
        if i + 1 >= end or self.tokens[i + 1].text != "(":
            raise _Unsupported("while without condition")
        cond, close = self._cond_stmt(i + 1)
        head = self._block()
        self._edge(cur, head)
        head.stmts.append(cond)
        body_entry = self._block()
        after = self._block()
        self._edge(head, body_entry, True)
        self._edge(head, after, False)
        self.loop_stack.append((after, head))
        j, body_exit = self._stmt(close + 1, end, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self._edge(body_exit, head)
        return j, after

    def _do_stmt(self, i: int, end: int,
                 cur: Block) -> Tuple[int, Optional[Block]]:
        body_entry = self._block()
        self._edge(cur, body_entry)
        cond_block = self._block()
        after = self._block()
        self.loop_stack.append((after, cond_block))
        j, body_exit = self._stmt(i + 1, end, body_entry)
        self.loop_stack.pop()
        if j >= end or self.tokens[j].text != "while" \
                or self.tokens[j + 1].text != "(":
            raise _Unsupported("malformed do-while")
        cond, close = self._cond_stmt(j + 1)
        cond_block.stmts.append(cond)
        if body_exit is not None:
            self._edge(body_exit, cond_block)
        self._edge(cond_block, body_entry, True)
        self._edge(cond_block, after, False)
        j = close + 1
        if j < end and self.tokens[j].text == ";":
            j += 1
        return j, after

    def _range_for_colon(self, open_index: int,
                         close: int) -> Optional[int]:
        """Index of a range-for ':' at paren depth 1, else None."""
        depth = 0
        for j in range(open_index, close):
            tok = self.tokens[j]
            if tok.kind != "punct":
                continue
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == ";":
                return None
            elif tok.text == ":" and depth == 1:
                return j
        return None

    def _for_stmt(self, i: int, end: int,
                  cur: Block) -> Tuple[int, Optional[Block]]:
        if i + 1 >= end or self.tokens[i + 1].text != "(":
            raise _Unsupported("for without header")
        open_index = i + 1
        close = match_paren(self.tokens, open_index)
        if close is None or close > end:
            raise _Unsupported("unbalanced for header")

        colon = self._range_for_colon(open_index, close)
        if colon is not None:
            # Range-for: the header binds per iteration; model it as a
            # head block whose condition covers the whole header.
            cond = Stmt(start=open_index + 1, end=close - 1, kind="cond")
            head = self._block()
            self._edge(cur, head)
            head.stmts.append(cond)
            body_entry = self._block()
            after = self._block()
            self._edge(head, body_entry, True)
            self._edge(head, after, False)
            self.loop_stack.append((after, head))
            j, body_exit = self._stmt(close + 1, end, body_entry)
            self.loop_stack.pop()
            if body_exit is not None:
                self._edge(body_exit, head)
            return j, after

        # Classic for: locate the two top-level ';' in the header.
        semis = []
        depth = 0
        for j in range(open_index + 1, close):
            tok = self.tokens[j]
            if tok.kind != "punct":
                continue
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == ";" and depth == 0:
                semis.append(j)
        if len(semis) != 2:
            raise _Unsupported("for header without two ';'")
        init_rng = (open_index + 1, semis[0] - 1)
        cond_rng = (semis[0] + 1, semis[1] - 1)
        inc_rng = (semis[1] + 1, close - 1)

        if init_rng[1] >= init_rng[0]:
            cur.stmts.append(Stmt(start=init_rng[0], end=init_rng[1],
                                  kind="plain"))
        head = self._block()
        self._edge(cur, head)
        cond: Optional[Stmt] = None
        if cond_rng[1] >= cond_rng[0]:
            cond = Stmt(start=cond_rng[0], end=cond_rng[1], kind="cond")
            head.stmts.append(cond)
        body_entry = self._block()
        after = self._block()
        self._edge(head, body_entry, True if cond else None)
        if cond is not None:
            self._edge(head, after, False)
        inc_block = self._block()
        if inc_rng[1] >= inc_rng[0]:
            inc_block.stmts.append(Stmt(start=inc_rng[0], end=inc_rng[1],
                                        kind="plain"))
        self.loop_stack.append((after, inc_block))
        j, body_exit = self._stmt(close + 1, end, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self._edge(body_exit, inc_block)
        self._edge(inc_block, head)
        return j, after

    def _switch_stmt(self, i: int, end: int,
                     cur: Block) -> Tuple[int, Optional[Block]]:
        if i + 1 >= end or self.tokens[i + 1].text != "(":
            raise _Unsupported("switch without selector")
        cond, close = self._cond_stmt(i + 1)
        cur.stmts.append(cond)
        if close + 1 >= end or self.tokens[close + 1].text != "{":
            raise _Unsupported("switch body is not a block")
        body_open = close + 1
        body_close = match_close(self.tokens, body_open, "{", "}")
        if body_close is None or body_close > end:
            raise _Unsupported("unbalanced switch body")

        after = self._block()
        self.loop_stack.append((after, None))
        j = body_open + 1
        arm: Optional[Block] = None
        has_default = False
        try:
            while j < body_close:
                tok = self.tokens[j]
                if tok.kind == "ident" and tok.text == "case":
                    k = j + 1
                    while k < body_close and self.tokens[k].text != ":":
                        k += 1
                    if k >= body_close:
                        raise _Unsupported("case label without ':'")
                    new = self._block()
                    if arm is not None:
                        self._edge(arm, new)  # fall-through
                    self._edge(cur, new)
                    arm = new
                    j = k + 1
                    continue
                if tok.kind == "ident" and tok.text == "default" \
                        and j + 1 < body_close \
                        and self.tokens[j + 1].text == ":":
                    new = self._block()
                    if arm is not None:
                        self._edge(arm, new)
                    self._edge(cur, new)
                    arm = new
                    has_default = True
                    j = j + 2
                    continue
                if arm is None:
                    arm = self._block()  # unreachable pre-label code
                j, arm = self._stmt(j, body_close, arm)
                if arm is None and j < body_close:
                    nxt = self.tokens[j]
                    if not (nxt.kind == "ident"
                            and nxt.text in ("case", "default")):
                        arm = self._block()
        finally:
            self.loop_stack.pop()
        if arm is not None:
            self._edge(arm, after)
        if not has_default:
            self._edge(cur, after)
        return body_close + 1, after
