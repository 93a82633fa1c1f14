"""Propositions, predicates, object references and finite worlds.

A proposition is a signed 1-ary atom: a polarity, a predicate code and an
object reference.  The object can be a concrete object number, the
all-objects marker (written ``*`` in the text grammar) or a nested
proposition, which is valid like any other.  A world is a finite domain
of object numbers plus a consistent set of signed literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

BUILTIN_NAMES = frozenset({"NT", "Tr", "Err"})

MAX_NAME_LEN = 64
MAX_PREDICATE_BYTES = 255  # a wire predicate field's one-byte PLEN
MAX_OBJECT_NUMBER = 2**64 - 1
MAX_NESTING_DEPTH = 8

_NAME_RE = re.compile(r"[A-Za-z0-9-]+")
_DIGITS_RE = re.compile(r"[0-9]+")  # ASCII only: \d takes any script's digits
_COMMENT_RE = re.compile(r"#(?![0-9])")


class PropositionSyntaxError(ValueError):
    """Raised when proposition text does not match the grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class InconsistentWorldError(ValueError):
    """Raised when a literal set asserts both polarities of an atom."""


@dataclass(frozen=True, slots=True)
class PredicateCode:
    """Predicate identifier: either a printable name or a positive index.

    ``value`` is a ``str`` for the name form and an ``int`` (not a ``bool``)
    for the numeric-index form, below 2^2040 so that its minimal bytes fit
    the wire's predicate field.  The names NT, Tr and Err are reserved builtins
    (recognized case-sensitively).
    """

    value: str | int

    def __post_init__(self):
        v = self.value
        if isinstance(v, str):
            if not v or len(v) > MAX_NAME_LEN or not _NAME_RE.fullmatch(v):
                raise ValueError(f"invalid predicate name: {v!r}")
        elif type(v) is int:  # not a bool: True == 1 but renders '#True'
            if v < 1:
                raise ValueError(f"predicate index must be >= 1, got {v}")
            if v.bit_length() > 8 * MAX_PREDICATE_BYTES:
                raise ValueError(
                    f"predicate index must be < 2^{8 * MAX_PREDICATE_BYTES}")
        else:
            raise TypeError(f"predicate value must be str or int, got {type(v)}")

    @property
    def is_name(self) -> bool:
        return isinstance(self.value, str)

    @property
    def is_builtin(self) -> bool:
        return isinstance(self.value, str) and self.value in BUILTIN_NAMES

    def __str__(self) -> str:
        return self.value if isinstance(self.value, str) else f"P_{self.value}"


@dataclass(frozen=True, slots=True)
class ObjectRef:
    """Object of an atom: a number, all-objects, or a nested proposition."""

    kind: str  # "number" | "all" | "nested"
    number: int = 0
    inner: "Proposition | None" = None

    def __post_init__(self):
        if self.kind == "number":
            if type(self.number) is not int:  # a bool or 5.0 renders otherwise
                raise TypeError(
                    f"object number must be an int, got {type(self.number)}")
            if not (1 <= self.number <= MAX_OBJECT_NUMBER):
                raise ValueError(
                    f"object number out of range 1..2^64-1: {self.number}"
                )
            if self.inner is not None:
                raise ValueError("number object cannot nest a proposition")
        elif self.kind == "all":
            if self.number or self.inner is not None:
                raise ValueError("all-objects marker carries no payload")
        elif self.kind == "nested":
            if not isinstance(self.inner, Proposition):
                raise TypeError("nested object requires a Proposition")
            if self.depth > MAX_NESTING_DEPTH:
                raise ValueError(
                    f"nesting depth exceeds {MAX_NESTING_DEPTH}"
                )
        else:
            raise ValueError(f"unknown object kind: {self.kind!r}")

    @property
    def depth(self) -> int:
        """0 unless nested, else one more than the inner object's depth."""
        return 1 + self.inner.object.depth if self.kind == "nested" else 0

    @staticmethod
    def num(m: int) -> "ObjectRef":
        return ObjectRef("number", m)

    @staticmethod
    def all_objects() -> "ObjectRef":
        return ObjectRef("all")

    @staticmethod
    def nested(frame: "Frame") -> "ObjectRef":
        """The object naming a frame's proposition.  The one place a nested
        frame is decoded; raises FrameDecodeError if it does not decode."""
        if frame.depth >= MAX_NESTING_DEPTH:
            raise FrameDecodeError("nesting depth exceeded")
        try:
            inner = decode_frame(frame)
        except FrameDecodeError as e:
            raise FrameDecodeError(f"nested frame does not decode: {e}") from None
        return ObjectRef("nested", 0, inner)


@dataclass(frozen=True, slots=True)
class Proposition:
    """A signed 1-ary atom: polarity, predicate, object."""

    polarity: bool
    predicate: PredicateCode
    object: ObjectRef

    def __hash__(self) -> int:
        # the fields == compares, in one call, not three generated __hash__es
        o = self.object
        return hash((self.polarity, self.predicate.value, o.kind, o.number, o.inner))

    def __str__(self) -> str:
        return render_proposition(self)


def negate(p: Proposition) -> Proposition:
    """Flip the polarity; involution."""
    return Proposition(not p.polarity, p.predicate, p.object)


def equivalent(p: Proposition, q: Proposition) -> bool:
    """Logical equivalence of atoms, read structurally.

    Nested objects compare by their propositions; the all-objects atom is
    its own atom and is never expanded into a conjunction here.  The
    identity test comes first: a stream that arrives untouched hands back
    the sent object itself, and a frozen value is equal to itself.
    """
    return p is q or p == q


def _spelling(pred: PredicateCode) -> str:  # NAME or '#' INDEX, as parsed
    return pred.value if pred.is_name else f"#{pred.value}"


def render_proposition(p: Proposition) -> str:
    """Text surface: ``['~'] (NAME | '#' INDEX) '(' (NUMBER | '*' | '<hex>') ')'``.

    Named predicates are the canonical form; the ``#n`` spelling exists so
    numeric-index predicates are renderable in transcripts.
    """
    sign = "" if p.polarity else "~"
    name = _spelling(p.predicate)
    if p.object.kind == "number":
        obj = str(p.object.number)
    elif p.object.kind == "all":
        obj = "*"
    else:
        obj = "<" + body_bytes(frame_fields(p.object.inner)).hex() + ">"
    return f"{sign}{name}({obj})"


def parse_proposition(text: str) -> Proposition:
    """Parse the text grammar back into a structured atom.

    ``~`` sets polarity false, ``*`` is the all-objects marker, and
    ``<hex>`` is a nested frame given as the hex of a wire body that decodes.
    A literal ``0`` object is rejected: all-objects must be written ``*``.
    NUMBER and INDEX are ASCII digits; any other digit is a syntax error.
    """
    s = text.strip()
    pos = 0
    polarity = True
    if s.startswith("~"):
        polarity = False
        pos = 1
    pred: PredicateCode
    if pos < len(s) and s[pos] == "#":
        m = _DIGITS_RE.match(s, pos + 1)
        if not m:
            raise PropositionSyntaxError("expected predicate index after '#'", pos)
        pred = PredicateCode(int(m.group(0)))
        pos = m.end()
    else:
        m = _NAME_RE.match(s, pos)
        if not m:
            raise PropositionSyntaxError("expected predicate name", pos)
        pred = PredicateCode(m.group(0))
        pos = m.end()
    if pos >= len(s) or s[pos] != "(":
        raise PropositionSyntaxError("expected '('", pos)
    pos += 1
    close = s.rfind(")")
    if close != len(s) - 1 or close < pos:
        raise PropositionSyntaxError("expected ')' at end", len(s))
    inner = s[pos:close]
    if inner == "*":
        obj = ObjectRef.all_objects()
    elif inner.startswith("<") and inner.endswith(">"):
        try:
            raw = bytes.fromhex(inner[1:-1])
        except ValueError as e:
            raise PropositionSyntaxError(f"bad nested hex: {e}", pos) from e
        try:
            frame, consumed = parse_body(raw)
            if consumed != len(raw):
                raise BodyError("trailing bytes in nested frame")
            obj = ObjectRef.nested(frame)
        except (BodyError, FrameDecodeError) as e:
            raise PropositionSyntaxError(str(e), pos) from None
    elif _DIGITS_RE.fullmatch(inner):
        n = int(inner)
        if n == 0:
            raise PropositionSyntaxError(
                "object 0 must be written '*' (all objects)", pos
            )
        obj = ObjectRef.num(n)
    else:
        raise PropositionSyntaxError(f"bad object: {inner!r}", pos)
    return Proposition(polarity, pred, obj)


@dataclass(frozen=True)
class World:
    """Finite situation: object domain plus a consistent signed-literal set.

    ``literals`` holds (predicate, object number, polarity) triples.  An
    atom is true only if its exact signed literal is listed; absence means
    false for both polarities' assertions.  Construction indexes the literals
    as predicate value -> object -> polarity, and ``holds`` reads that index.

    Every domain object is an object number, an int in 1..2^64-1, as in
    ``ObjectRef``.

    A world also keeps two private memos over its own atoms (``_owns``): a
    non-builtin predicate of its literals with ``*`` or a domain object, in
    both polarities, so each memo stays within 2 * |predicates| *
    (|domain| + 1) entries with no size option.  ``_evaluated`` maps
    received bytes -> ``holds`` value for the truth predicates over the world
    (see ``truth_from_channel``); ``_codes`` maps an atom -> its wire code for
    the bridges over the world, and a bridge seeds ``_evaluated`` with each
    code as it first encodes the atom (see ``verify_bridge``).  Neither memo
    is a field, so equality, hashing and repr ignore them; the memos and the
    index are set with ``object.__setattr__``, which is why ``World``, unlike
    the other value records, keeps its ``__dict__`` and has no slots.
    """

    domain: FrozenSet[int]
    literals: FrozenSet[Tuple[PredicateCode, int, bool]]

    def __post_init__(self):
        bad = [m for m in self.domain
               if type(m) is not int or not 1 <= m <= MAX_OBJECT_NUMBER]
        if bad:  # raise ObjectRef's error, for a non-int if any, else the smallest
            wrong = [m for m in bad if type(m) is not int]
            ObjectRef.num(wrong[0] if wrong else min(bad))
        index: dict[str | int, dict[int, bool]] = {}
        for pred, obj, pol in self.literals:
            row = index.get(pred.value)
            if row is None:
                row = index[pred.value] = {}
            if obj not in self.domain or row.setdefault(obj, pol) != pol:
                # some literal is bad: raise for the first, in set order
                for q, m, s in self.literals:
                    if m not in self.domain:
                        raise ValueError(f"literal object {m} not in domain")
                    if (q, m, not s) in self.literals:
                        raise InconsistentWorldError(
                            f"both polarities asserted for {_spelling(q)}({m})"
                        )
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_evaluated", {})
        object.__setattr__(self, "_codes", {})

    @staticmethod
    def build(
        domain: Iterable[int],
        literals: Iterable[Tuple[PredicateCode, int, bool]],
    ) -> "World":
        return World(frozenset(domain), frozenset(literals))

    def _owns(self, p: Proposition) -> bool:
        """Whether p is one of the world's own atoms, the only keys its memos
        keep: a non-builtin predicate of its literals with '*' or a domain
        object (the kind is tested: a nested object carries number 0)."""
        value, obj = p.predicate.value, p.object
        return value in self._index and value not in BUILTIN_NAMES and (
            obj.kind == "all" or obj.kind == "number" and obj.number in self.domain)

    def predicates(self) -> list[PredicateCode]:
        """Distinct predicates mentioned by the literal set, sorted by str;
        read from the index's keys, so the literals are not rescanned."""
        return sorted(map(PredicateCode, self._index), key=str)


def _not_evaluable(pred: PredicateCode) -> ValueError:
    return ValueError(
        f"builtin predicate {pred} is channel-relative, not world-evaluable")


def holds(w: World, p: Proposition) -> bool:
    """Evaluate a ground atom against a world.

    All-objects atoms are conjunctions over the domain: with polarity
    true every object must carry the positive literal, with polarity
    false every object must carry the negative one.
    """
    value = p.predicate.value
    if value in BUILTIN_NAMES:
        raise _not_evaluable(p.predicate)
    obj = p.object
    if obj.kind == "number":
        row = w._index.get(value)
        return row is not None and row.get(obj.number) == p.polarity
    if obj.kind == "nested":
        raise ValueError("nested-frame objects have no world semantics")
    row = w._index.get(value, {})
    return all(row.get(m) == p.polarity for m in w.domain)


def load_world(path: str) -> World:
    """Read the line-oriented world file format.

    First non-comment line is ``domain: 1 2 3 ...``, whose objects are
    ASCII-digit NUMBERs as in the grammar; each following line is one
    literal in the proposition grammar, over a predicate other than the
    builtins NT, Tr and Err.  A ``#`` starts a comment unless an
    ASCII digit follows it, as in the index predicate ``#5(1)``.
    A bad line raises a ValueError that starts ``path:line:``.
    """
    domain: set[int] | None = None
    literals: set[Tuple[PredicateCode, int, bool]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _COMMENT_RE.split(raw, 1)[0].strip()
            if not line:
                continue
            try:
                if domain is None:
                    if not line.startswith("domain:"):
                        raise ValueError("expected 'domain:' header")
                    domain = set()
                    for tok in line[len("domain:"):].split():
                        if not _DIGITS_RE.fullmatch(tok):  # int() takes '+5', '1_0'
                            raise ValueError(
                                f"invalid literal for int() with base 10: {tok!r}")
                        domain.add(ObjectRef.num(int(tok)).number)
                    continue
                p = parse_proposition(line)
                if p.predicate.is_builtin:  # holds would refuse its rows
                    raise _not_evaluable(p.predicate)
                if p.object.kind != "number":
                    raise ValueError("world literals must use object numbers")
                m = p.object.number
                if m not in domain:
                    raise ValueError(f"literal object {m} not in domain")
                if (p.predicate, m, not p.polarity) in literals:
                    raise InconsistentWorldError(
                        f"both polarities asserted for {_spelling(p.predicate)}({m})")
                literals.add((p.predicate, m, p.polarity))
            except InconsistentWorldError as e:
                raise InconsistentWorldError(f"{path}:{lineno}: {e}") from None
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if domain is None:
        raise ValueError(f"{path}: missing 'domain:' header")
    return World.build(domain, literals)


# the wire encoding builds on the types above
from .wire import (BodyError, FrameDecodeError, body_bytes, decode_frame,
                   frame_fields, parse_body)
