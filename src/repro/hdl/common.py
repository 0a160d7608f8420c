"""Shared HDL frontend infrastructure: tokens, source locations, errors."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Loc:
    """Source location for diagnostics."""

    line: int
    col: int
    filename: str = "<hdl>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Token:
    """A lexical token.

    ``kind`` is one of: ``ID``, ``NUMBER``, ``BASED`` (Verilog sized
    literal), ``STRING``, ``BITSTRING`` (VHDL "0101"), ``CHAR`` (VHDL '0'),
    ``OP``, ``KW``, ``EOF``.  ``text`` is the raw lexeme.
    """

    kind: str
    text: str
    loc: Loc

    def is_kw(self, *names: str) -> bool:
        return self.kind == "KW" and self.text in names

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.text in ops

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.kind}({self.text!r})@{self.loc.line}"


class HDLError(Exception):
    """Base class for all frontend errors.

    ``message`` holds the bare diagnostic text (no location prefix) and
    ``loc`` the source position, so tools can re-render the error in
    their own format (e.g. ``repro verify lint`` turns syntax errors
    into findings instead of tracebacks).
    """

    def __init__(self, message: str, loc: Loc | None = None) -> None:
        self.message = message
        self.loc = loc
        super().__init__(f"{loc}: {message}" if loc else message)


class HDLSyntaxError(HDLError):
    """A malformed-source error (lexing or parsing), for either frontend.

    Both the Verilog and VHDL frontends raise subclasses of this one
    shape: ``.message`` plus a ``.loc`` carrying file/line/column.
    """


class LexError(HDLSyntaxError):
    pass


class ParseError(HDLSyntaxError):
    pass


class ElabError(HDLError):
    """Raised during elaboration (unknown names, bad widths, etc.)."""


@dataclass(frozen=True)
class CoverageOptions:
    """What to instrument/collect when compiling a design for coverage.

    ``statement`` affects elaboration (hidden per-statement hit counters
    are compiled into the generated process code, so both execution
    backends run identical instrumentation); ``fsm`` enables FSM
    detection on sync ``case`` registers at elaboration time; ``toggle``
    is observation-only (the collector samples settled values each
    cycle) but is carried here so one options object configures a whole
    coverage run.
    """

    statement: bool = True
    toggle: bool = True
    fsm: bool = True

    def cache_token(self) -> tuple:
        """Hashable identity for the elaboration cache key."""
        return tuple(getattr(self, f.name) for f in fields(self))


class TokenStream:
    """Cursor over a token list with lookahead and expectation helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def at_eof(self) -> bool:
        return self.peek().kind == "EOF"

    def accept_op(self, *ops: str) -> Token | None:
        if self.peek().is_op(*ops):
            return self.next()
        return None

    def accept_kw(self, *kws: str) -> Token | None:
        if self.peek().is_kw(*kws):
            return self.next()
        return None

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if not tok.is_op(op):
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.loc)
        return self.next()

    def expect_kw(self, kw: str) -> Token:
        tok = self.peek()
        if not tok.is_kw(kw):
            raise ParseError(f"expected keyword {kw!r}, found {tok.text!r}", tok.loc)
        return self.next()

    def expect_id(self) -> Token:
        tok = self.peek()
        if tok.kind != "ID":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self.next()
