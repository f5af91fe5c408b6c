"""SQL tokenizer.

Splits SQL text into a list of :class:`Token` objects.  Keywords are
case-insensitive; string literals use single quotes with ``''`` escaping;
identifiers may be double-quoted to preserve case or include spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "as", "and", "or", "not", "in", "like", "is", "null", "join",
    "inner", "left", "on", "union", "all", "asc", "desc", "between", "exists",
    "count", "sum", "avg", "min", "max", "case", "when", "then", "else", "end",
}

OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%",
             "(", ")", ",", ".", ";")


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'keyword' | 'identifier' | 'string' | 'number' | 'operator'
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_operator(self, *symbols: str) -> bool:
        return self.kind == "operator" and self.value in symbols


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`~repro.errors.SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    length = len(text)
    while i < length:
        char = text[i]

        if char.isspace():
            i += 1
            continue

        # comments: -- to end of line
        if char == "-" and i + 1 < length and text[i + 1] == "-":
            newline = text.find("\n", i)
            i = length if newline < 0 else newline + 1
            continue

        # string literal
        if char == "'":
            value, end = _read_string(text, i)
            tokens.append(Token("string", value, i))
            i = end
            continue

        # quoted identifier
        if char == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise SQLSyntaxError("unterminated quoted identifier", i)
            tokens.append(Token("identifier", text[i + 1:end], i))
            i = end + 1
            continue

        # number
        if char.isdigit() or (char == "." and i + 1 < length and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < length and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
            tokens.append(Token("number", text[start:i], start))
            continue

        # identifier or keyword
        if char.isalpha() or char == "_":
            start = i
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, start))
            else:
                tokens.append(Token("identifier", word, start))
            continue

        # operator
        matched = False
        for operator in OPERATORS:
            if text.startswith(operator, i):
                tokens.append(Token("operator", operator, i))
                i += len(operator)
                matched = True
                break
        if matched:
            continue

        raise SQLSyntaxError(f"unexpected character {char!r} at position {i}", i)
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at *start*; returns (value, next_index)."""
    parts: list[str] = []
    i = start + 1
    length = len(text)
    while i < length:
        char = text[i]
        if char == "'":
            if i + 1 < length and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(char)
        i += 1
    raise SQLSyntaxError("unterminated string literal", start)
