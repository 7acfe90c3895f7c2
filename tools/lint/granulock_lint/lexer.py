"""A C++ lexer producing a position-annotated token stream.

This is the bottom layer of the frontend.  It understands the
lexical constructs that matter for semantic linting — identifiers,
numbers (including digit separators), string/char literals, raw strings,
multi-character operators, line/block comments, and preprocessor
directives (with line continuations) — and deliberately nothing more.
Comments and preprocessor directives are kept out of the main token
stream; comments are preserved on the side for the suppression layer
(``// granulock-lint: allow(...)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "string" | "char" | "punct"
    text: str
    line: int  # 1-based
    col: int  # 1-based


@dataclass(frozen=True)
class Comment:
    text: str  # without the // or /* */ markers, stripped
    line: int  # line the comment starts on
    end_line: int


@dataclass
class LexedFile:
    path: str
    tokens: List[Token]
    comments: List[Comment]


# Longest-match-first C++ punctuation and operators.
_PUNCTUATORS = [
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "##",
    "{", "}", "[", "]", "(", ")", ";", ":", ",", ".", "?", "~", "!", "+",
    "-", "*", "/", "%", "<", ">", "=", "&", "|", "^", "#",
]
_PUNCT_RE = re.compile("|".join(re.escape(p) for p in _PUNCTUATORS))

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A pp-number ([lex.ppnumber]): optional dot, a digit, then any run of
# digit/letter/underscore/separator/dot, where e/E/p/P may carry a sign.
# This single shape covers hex (0xFF), binary (0b1010), C++14 digit
# separators (1'000'000), hex floats (0x1.8p3), exponents (1e-5), and
# user-defined literal suffixes (42ms, 123_granules) without splitting —
# precise classification is irrelevant; not splitting is what matters.
_NUMBER_RE = re.compile(r"\.?\d(?:[eEpP][+-]|[0-9a-zA-Z_']|\.)*")
# A user-defined literal suffix after a string/char literal's closing
# quote ("..."_sv, 'x'_c): part of the same preprocessing token.
_UDL_SUFFIX_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RAW_STRING_START_RE = re.compile(r'(?:u8|[uUL])?R"([^()\\ \t\n]*)\(')
_STRING_START_RE = re.compile(r'(?:u8|[uUL])?"')
_CHAR_START_RE = re.compile(r"(?:u8|[uUL])?'")


class LexError(Exception):
    pass


def lex(path: str, text: str) -> LexedFile:
    tokens: List[Token] = []
    comments: List[Comment] = []

    i = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    n = len(text)
    at_line_start = True  # only whitespace seen since the last newline

    def col(offset: int) -> int:
        return offset - line_start + 1

    while i < n:
        ch = text[i]

        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch == "\\" and i + 1 < n and text[i + 1] == "\n":
            i += 2
            line += 1
            line_start = i
            continue

        # Comments.
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end == -1:
                end = n
            comments.append(
                Comment(text=text[i + 2:end].strip(), line=line, end_line=line)
            )
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise LexError(f"{path}:{line}: unterminated block comment")
            body = text[i + 2:end]
            start_line = line
            line += body.count("\n")
            comments.append(
                Comment(text=body.strip(), line=start_line, end_line=line)
            )
            i = end + 2
            nl = text.rfind("\n", 0, i)
            if nl != -1 and nl >= line_start:
                line_start = nl + 1
            continue

        # Preprocessor directive: '#' as the first non-whitespace character
        # of a line, continuation lines included.  Skipped whole.
        if ch == "#" and at_line_start:
            j = i + 1
            while True:
                end = text.find("\n", j)
                if end == -1:
                    end = n
                if text[j:end].endswith("\\"):
                    j = end + 1
                    line += 1
                else:
                    break
            i = end  # leave the newline for the main loop
            at_line_start = False
            continue

        at_line_start = False

        # Raw string literal.
        m = _RAW_STRING_START_RE.match(text, i)
        if m:
            delim = ")" + m.group(1) + '"'
            end = text.find(delim, m.end())
            if end == -1:
                raise LexError(f"{path}:{line}: unterminated raw string")
            j = end + len(delim)
            sfx = _UDL_SUFFIX_RE.match(text, j)
            if sfx:
                j = sfx.end()
            lit = text[i:j]
            tokens.append(Token("string", lit, line, col(i)))
            line += lit.count("\n")
            i = j
            nl = text.rfind("\n", 0, i)
            if nl != -1 and nl >= line_start:
                line_start = nl + 1
            continue

        # Ordinary string / char literal.
        for start_re, kind, quote in ((_STRING_START_RE, "string", '"'),
                                      (_CHAR_START_RE, "char", "'")):
            m = start_re.match(text, i)
            if not m:
                continue
            j = m.end()
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    raise LexError(
                        f"{path}:{line}: newline in {kind} literal")
                j += 1
            if j >= n:
                raise LexError(f"{path}:{line}: unterminated {kind} literal")
            end = j + 1
            sfx = _UDL_SUFFIX_RE.match(text, end)
            if sfx:
                end = sfx.end()
            tokens.append(Token(kind, text[i:end], line, col(i)))
            i = end
            break
        else:
            m = _IDENT_RE.match(text, i)
            if m:
                tokens.append(Token("ident", m.group(0), line, col(i)))
                i = m.end()
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n
                                and text[i + 1].isdigit()):
                m = _NUMBER_RE.match(text, i)
                tokens.append(Token("number", m.group(0), line, col(i)))
                i = m.end()
                continue
            m = _PUNCT_RE.match(text, i)
            if m:
                tokens.append(Token("punct", m.group(0), line, col(i)))
                i = m.end()
                continue
            raise LexError(
                f"{path}:{line}:{col(i)}: unexpected character {ch!r}")

    return LexedFile(path=path, tokens=tokens, comments=comments)


def match_paren(tokens: List[Token], open_index: int) -> Optional[int]:
    """Index of the ')' matching tokens[open_index] == '(', else None."""
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i]
        if t.kind != "punct":
            continue
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def match_close(tokens: List[Token], open_index: int, open_text: str,
                close_text: str) -> Optional[int]:
    """Generic bracket matcher for (), [], {}, or <> (best effort)."""
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i]
        if t.kind != "punct":
            continue
        if t.text == open_text:
            depth += 1
        elif t.text == close_text:
            depth -= 1
            if depth == 0:
                return i
    return None
