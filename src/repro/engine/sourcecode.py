"""The paper's running example: indexing program source code.

Section 2.2 describes files of programs with headers, bodies, nested
procedures and variable definitions, structured by the Figure 1 RIG.
This module defines a small concrete language realizing that structure::

    program Main {
        var x;
        proc Foo {
            var y;
            proc Bar { var x; }
        }
    }

and a recursive-descent indexer mapping parses onto the Figure 1 region
names:

==============  ====================================================
Region          Span
==============  ====================================================
``Program``     ``program`` keyword through the closing ``}``
``Prog_header`` the whitespace-padded program name
``Prog_body``   the braced block
``Proc``        ``proc`` keyword through its closing ``}``
``Proc_header`` the whitespace-padded procedure name
``Proc_body``   the braced block
``Name``        the bare identifier inside a header
``Var``         ``var`` keyword through the ``;``
==============  ====================================================

Header regions start at the whitespace after the keyword so that they
*strictly* include their ``Name`` region, as the hierarchy requires.
Every token (keywords, identifiers, punctuation) feeds the word index,
so ``σ_"x"(Var)`` selects the definitions of ``x`` exactly as in the
paper's Section 5.1 example.  :func:`generate_program_source` synthesizes
random programs for workloads and benchmarks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import ParseError

__all__ = ["SourceDocument", "parse_source", "generate_program_source", "SOURCE_REGION_NAMES"]

SOURCE_REGION_NAMES = (
    "Program",
    "Prog_header",
    "Prog_body",
    "Proc",
    "Proc_header",
    "Proc_body",
    "Name",
    "Var",
)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[{};]")


@dataclass(frozen=True)
class SourceDocument:
    """A parsed source file: raw text plus its region index."""

    text: str
    instance: Instance

    def extract(self, region: Region) -> str:
        return self.text[region.left : region.right + 1]


@dataclass(frozen=True, slots=True)
class _Tok:
    text: str
    left: int
    right: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [
            _Tok(m.group(), m.start(), m.end() - 1) for m in _TOKEN_RE.finditer(text)
        ]
        self.index = 0
        self.regions: dict[str, list[Region]] = {name: [] for name in SOURCE_REGION_NAMES}

    def _peek(self) -> _Tok | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self, expected: str | None = None) -> _Tok:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of source", len(self.text))
        if expected is not None and token.text != expected:
            raise ParseError(
                f"expected {expected!r}, found {token.text!r}", token.left
            )
        self.index += 1
        return token

    def _identifier(self) -> _Tok:
        token = self._next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token.text) or token.text in (
            "program",
            "proc",
            "var",
        ):
            raise ParseError(f"expected an identifier, found {token.text!r}", token.left)
        return token

    def parse(self) -> Instance:
        while self._peek() is not None:
            self._program()
        return Instance(
            {name: RegionSet(rs) for name, rs in self.regions.items()},
            TextWordIndex(
                (t.text, t.left, t.right) for t in self.tokens
            ),
        )

    def _program(self) -> None:
        keyword = self._next("program")
        self._header(keyword, "Prog_header")
        close = self._body("Prog_body")
        self.regions["Program"].append(Region(keyword.left, close.right))

    def _proc(self) -> None:
        keyword = self._next("proc")
        self._header(keyword, "Proc_header")
        close = self._body("Proc_body")
        self.regions["Proc"].append(Region(keyword.left, close.right))

    def _header(self, keyword: _Tok, region_name: str) -> None:
        name = self._identifier()
        if keyword.right + 1 >= name.left:
            raise ParseError("missing whitespace before name", name.left)
        # Start at the padding so the header strictly includes the Name.
        self.regions[region_name].append(Region(keyword.right + 1, name.right))
        self.regions["Name"].append(Region(name.left, name.right))

    def _body(self, region_name: str) -> _Tok:
        open_brace = self._next("{")
        while True:
            token = self._peek()
            if token is None:
                raise ParseError("unclosed block", open_brace.left)
            if token.text == "}":
                close = self._next()
                self.regions[region_name].append(Region(open_brace.left, close.right))
                return close
            if token.text == "var":
                self._var()
            elif token.text == "proc":
                self._proc()
            else:
                raise ParseError(
                    f"expected 'var', 'proc' or '}}', found {token.text!r}",
                    token.left,
                )

    def _var(self) -> None:
        keyword = self._next("var")
        self._identifier()
        semicolon = self._next(";")
        self.regions["Var"].append(Region(keyword.left, semicolon.right))


def parse_source(text: str) -> SourceDocument:
    """Parse toy source code into a :class:`SourceDocument`."""
    return SourceDocument(text, _Parser(text).parse())


def generate_program_source(
    rng: random.Random,
    procedures: int = 5,
    max_nesting: int = 3,
    max_vars: int = 3,
    name_pool: tuple[str, ...] = ("x", "y", "z", "count", "total", "flag"),
) -> str:
    """Synthesize a random program in the toy language.

    ``procedures`` bounds the total number of procedures; nesting depth
    is bounded by ``max_nesting`` — deep nesting exercises the layer
    loops of the Section 6 programs.
    """
    remaining = procedures
    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        counter += 1
        return f"P{counter}"

    def block(depth: int, indent: str) -> list[str]:
        nonlocal remaining
        lines: list[str] = []
        for _ in range(rng.randint(0, max_vars)):
            lines.append(f"{indent}var {rng.choice(name_pool)};")
        # The top-level block consumes whatever budget its descendants
        # left over, so `procedures` is the exact count (nesting depth
        # permitting); nested blocks take a geometric share.
        while remaining > 0 and depth < max_nesting and (
            depth == 0 or rng.random() < 0.6
        ):
            remaining -= 1
            inner = block(depth + 1, indent + "    ")
            lines.append(f"{indent}proc {fresh_name()} {{")
            lines.extend(inner)
            lines.append(f"{indent}}}")
        return lines

    body = block(0, "    ")
    return "program Main {\n" + "\n".join(body) + "\n}\n"
