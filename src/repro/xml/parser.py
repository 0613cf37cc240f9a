"""A from-scratch, event-based XML parser and tree builder.

The parser handles the XML constructs that real documents in the paper's
experimental setting use:

* elements with attributes (quoted with ``"`` or ``'``),
* character data with the five predefined entities and numeric character
  references (``&#10;``, ``&#x0A;``),
* CDATA sections, comments, processing instructions,
* an optional XML declaration and an (ignored) DOCTYPE declaration.

It is deliberately not a validating parser and does not resolve external
entities (there is no network in this environment, and the paper's storage
layer only needs well-formed trees).

Two entry points:

* :func:`iterparse` — a generator of :mod:`repro.xml.events` events; this is
  the streaming interface (experiment E9 runs NoK matching directly on it).
* :func:`parse` — builds a :class:`repro.xml.model.Document`.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xml import model
from repro.xml.events import (
    Characters,
    CommentEvent,
    EndDocument,
    EndElement,
    Event,
    PIEvent,
    StartDocument,
    StartElement,
)

__all__ = ["iterparse", "filter_events", "parse", "parse_file"]

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Character-level cursor over the input with line/column tracking."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """(line, column), 1-based, of ``pos`` (default: current)."""
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        column = pos - last_nl
        return line, column

    def error(self, message: str, pos: int | None = None) -> XMLSyntaxError:
        line, column = self.location(pos)
        return XMLSyntaxError(message, line=line, column=column)

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {literal!r}")
        self.advance(len(literal))

    def skip_whitespace(self) -> None:
        text, pos, length = self.text, self.pos, self.length
        while pos < length and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a name")
        pos = self.pos + 1
        text, length = self.text, self.length
        while pos < length and text[pos] in _NAME_CHARS:
            pos += 1
        self.pos = pos
        return text[start:pos]

    def read_until(self, terminator: str, construct: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise self.error(f"unterminated {construct}")
        value = self.text[self.pos:end]
        self.pos = end + len(terminator)
        return value


def _expand_references(raw: str, scanner: _Scanner, at: int) -> str:
    """Expand entity and character references in ``raw``."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            break
        parts.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise scanner.error("unterminated entity reference", pos=at + amp)
        entity = raw[amp + 1:semi]
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                parts.append(chr(int(entity[2:], 16)))
            except ValueError:
                raise scanner.error(
                    f"bad character reference &{entity};", pos=at + amp)
        elif entity.startswith("#"):
            try:
                parts.append(chr(int(entity[1:])))
            except ValueError:
                raise scanner.error(
                    f"bad character reference &{entity};", pos=at + amp)
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise scanner.error(
                f"undefined entity &{entity};", pos=at + amp)
        index = semi + 1
    return "".join(parts)


def _read_attributes(scanner: _Scanner) -> tuple[tuple[str, str], ...]:
    attributes: list[tuple[str, str]] = []
    seen: set[str] = set()
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return tuple(attributes)
        name = scanner.read_name()
        if name in seen:
            raise scanner.error(f"duplicate attribute {name!r}")
        seen.add(name)
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        at = scanner.pos
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' not allowed in attribute value", pos=at)
        attributes.append((name, _expand_references(raw, scanner, at)))


def iterparse(text: str, uri: str = "") -> Iterator[Event]:
    """Parse ``text`` into a stream of events.

    Raises :class:`~repro.errors.XMLSyntaxError` on ill-formed input.  The
    stream is validated for tag balance as it is produced, so consuming it
    fully is equivalent to a well-formedness check.
    """
    scanner = _Scanner(text)
    yield StartDocument(uri=uri)
    open_tags: list[str] = []
    seen_root = False

    # Prolog: declaration, misc, doctype.
    scanner.skip_whitespace()
    if scanner.startswith("<?xml"):
        scanner.advance(5)
        scanner.read_until("?>", "XML declaration")

    while not scanner.at_end():
        if not open_tags:
            scanner.skip_whitespace()
        if scanner.at_end():
            break
        if scanner.peek() != "<":
            # Character data.
            at = scanner.pos
            end = scanner.text.find("<", at)
            if end < 0:
                end = scanner.length
            raw = scanner.text[at:end]
            scanner.pos = end
            if not open_tags:
                if raw.strip():
                    raise scanner.error("character data outside document element",
                                        pos=at)
                continue
            yield Characters(_expand_references(raw, scanner, at))
            continue

        if scanner.startswith("<!--"):
            scanner.advance(4)
            value = scanner.read_until("-->", "comment")
            if "--" in value:
                raise scanner.error("'--' not allowed inside comment")
            yield CommentEvent(value)
        elif scanner.startswith("<![CDATA["):
            if not open_tags:
                raise scanner.error("CDATA outside document element")
            scanner.advance(9)
            yield Characters(scanner.read_until("]]>", "CDATA section"))
        elif scanner.startswith("<!DOCTYPE"):
            if seen_root:
                raise scanner.error("DOCTYPE after document element")
            # Skip to the matching '>' (allowing an internal subset).
            depth = 0
            while not scanner.at_end():
                ch = scanner.peek()
                scanner.advance()
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth <= 0:
                    break
            else:
                raise scanner.error("unterminated DOCTYPE")
        elif scanner.startswith("<?"):
            scanner.advance(2)
            target = scanner.read_name()
            if target.lower() == "xml":
                raise scanner.error("XML declaration not at document start")
            scanner.skip_whitespace()
            data = scanner.read_until("?>", "processing instruction")
            yield PIEvent(target, data.rstrip())
        elif scanner.startswith("</"):
            scanner.advance(2)
            tag = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect(">")
            if not open_tags:
                raise scanner.error(f"unmatched end tag </{tag}>")
            expected = open_tags.pop()
            if tag != expected:
                raise scanner.error(
                    f"mismatched end tag: expected </{expected}>, got </{tag}>")
            yield EndElement(tag)
        else:
            # Start tag.
            scanner.expect("<")
            if seen_root and not open_tags:
                raise scanner.error("multiple document elements")
            tag = scanner.read_name()
            attributes = _read_attributes(scanner)
            scanner.skip_whitespace()
            if scanner.startswith("/>"):
                scanner.advance(2)
                yield StartElement(tag, attributes)
                yield EndElement(tag)
            else:
                scanner.expect(">")
                yield StartElement(tag, attributes)
                open_tags.append(tag)
            seen_root = True

    if open_tags:
        raise scanner.error(f"unexpected end of input: <{open_tags[-1]}> "
                            f"is not closed")
    if not seen_root:
        raise scanner.error("no document element")
    yield EndDocument()


def filter_events(events: Iterator[Event],
                  keep_whitespace: bool = False) -> Iterator[Event]:
    """``events`` as a document is built from them: empty character
    data (an empty CDATA section) is dropped — the data model has no
    empty text nodes, and serialization could not write one back — and
    with ``keep_whitespace=False`` (the default) so is whitespace-only
    character data, the usual "ignorable whitespace" of pretty-printed
    documents.  The one filter both :func:`build_tree` and the
    database's shredder apply, so a parsed tree and a loaded version
    hold the same nodes."""
    if keep_whitespace:
        return (event for event in events
                if not isinstance(event, Characters) or event.value)
    return (event for event in events
            if not isinstance(event, Characters) or event.value.strip())


def build_tree(events: Iterator[Event], keep_whitespace: bool = False,
               uri: str = "") -> model.Document:
    """Assemble an event stream into a :class:`~repro.xml.model.Document`
    (whitespace handled by :func:`filter_events`)."""
    document = model.Document(uri=uri)
    stack: list[model._ParentNode] = [document]
    for event in filter_events(events, keep_whitespace):
        if isinstance(event, StartElement):
            element = model.Element(event.tag)
            for name, value in event.attributes:
                element.set_attribute(name, value)
            stack[-1].append(element)
            stack.append(element)
        elif isinstance(event, EndElement):
            stack.pop()
        elif isinstance(event, Characters):
            parent = stack[-1]
            if isinstance(parent, model.Element):
                parent.append_text(event.value)
        elif isinstance(event, CommentEvent):
            stack[-1].append(model.Comment(event.value))
        elif isinstance(event, PIEvent):
            stack[-1].append(model.ProcessingInstruction(event.target,
                                                         event.data))
        elif isinstance(event, StartDocument):
            document.uri = event.uri or document.uri
        elif isinstance(event, EndDocument):
            break
    return document


def parse(text: str, keep_whitespace: bool = False,
          uri: str = "") -> model.Document:
    """Parse XML ``text`` into a document tree."""
    return build_tree(iterparse(text, uri=uri),
                      keep_whitespace=keep_whitespace, uri=uri)


def parse_file(path, keep_whitespace: bool = False) -> model.Document:
    """Parse the XML file at ``path`` into a document tree."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), keep_whitespace=keep_whitespace,
                     uri=str(path))
