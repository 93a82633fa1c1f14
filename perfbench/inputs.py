"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data (proposition
trees as in ``oracle``, byte strings, literal tuples); ``to_proposition``
turns a tree into the program's type.  The proposition distribution is the
one of ``tests/genprops.py`` (depth <= 3, about 15% nested, about 10%
all-objects, mean wire frame about 27 bytes), copied here so that the
benchmark's inputs do not move when a test helper changes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from semchan import ObjectRef, PredicateCode, Proposition, encode_frame

from . import oracle

NAME_CHARS = string.ascii_letters + string.digits + "-"
# 0xA5 never occurs in garbage, so garbage cannot start a SYNC candidate.
GARBAGE_BYTES = bytes(b for b in range(256) if b != 0xA5)


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def gen_predicate(rng: random.Random):
    if rng.random() < 0.15:
        return rng.randint(1, 10**6)
    n = rng.randint(1, 10)
    return "".join(rng.choice(NAME_CHARS) for _ in range(n))


def gen_tree(rng: random.Random, max_depth: int = 3):
    pol = rng.random() < 0.5
    pred = gen_predicate(rng)
    roll = rng.random()
    if roll < 0.15 and max_depth > 0:
        obj = gen_tree(rng, max_depth - 1)
    elif roll < 0.25:
        obj = "*"
    else:
        obj = rng.randint(1, 2**64 - 1)
    return (pol, pred, obj)


def to_proposition(tree):
    pol, pred, obj = tree
    if obj == "*":
        ref = ObjectRef.all_objects()
    elif isinstance(obj, tuple):
        ref = ObjectRef.nested(encode_frame(to_proposition(obj)))
    else:
        ref = ObjectRef.num(obj)
    return Proposition(pol, PredicateCode(pred), ref)


def substitute_map(rng: random.Random) -> dict[int, int]:
    """A seeded byte bijection that moves 0xA5, so no SYNC word survives it."""
    table = list(range(256))
    while table[0xA5] == 0xA5:
        rng.shuffle(table)
    return dict(enumerate(table))


@dataclass(frozen=True)
class WorldSpec:
    names: tuple[str, ...]
    objects: tuple[int, ...]
    literals: frozenset  # (name, object, polarity)

    def rows(self):
        """Ground rows in the order of ``semchan.ground_corpus``."""
        return [(pol, name, m) for name in self.names for m in self.objects
                for pol in (True, False)]


def gen_world(rng: random.Random, n_preds: int = 20, n_objects: int = 200,
              density: float = 0.8) -> WorldSpec:
    names: set[str] = set()
    while len(names) < n_preds:
        name = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(3, 10)))
        if name not in oracle.BUILTINS:
            names.add(name)
    objects = sorted(rng.sample(range(1, 1 << 32), n_objects))
    literals = frozenset(
        (name, m, rng.random() < 0.5)
        for name in sorted(names) for m in objects if rng.random() < density)
    return WorldSpec(tuple(sorted(names)), tuple(objects), literals)


@dataclass(frozen=True)
class Connection:
    """One client connection's byte stream and what the receiver must report."""

    payload: bytes
    n_frames: int
    clean_texts: tuple[str, ...]
    clean_spans: tuple[tuple[int, int], ...]  # (offset, length) of clean frames
    impaired_offsets: tuple[int, ...]
    undecodable_offsets: tuple[int, ...]
    garbage_runs: int
    depths: tuple[int, ...]


def gen_connection(rng: random.Random, impaired: float = 0.05,
                   undecodable: float = 0.01, garbage: float = 0.1) -> Connection:
    out = bytearray()
    texts, spans, bad, undec, depths = [], [], [], [], []
    runs = 0
    n_frames = rng.randint(56, 72)
    for _ in range(n_frames):
        if rng.random() < garbage:
            runs += 1
            out += bytes(rng.choice(GARBAGE_BYTES) for _ in range(rng.randint(1, 8)))
        offset = len(out)
        roll = rng.random()
        if roll < undecodable:
            name = bytes(rng.randint(0x80, 0xFF) for _ in range(rng.randint(1, 6)))
            number = oracle.min_be(rng.randint(1, 2**32))
            frame = oracle.wire(oracle.raw_body(rng.random() < 0.5, 0, name, 0, number))
            undec.append(offset)
        else:
            tree = gen_tree(rng)
            depths.append(oracle.depth(tree))
            frame = bytearray(oracle.wire(oracle.body(tree)))
            if roll < undecodable + impaired:
                # One bit of VER, BODY or CRC.  LEN is left alone: a damaged
                # length can, with odds 2**-16, frame a CRC-valid false frame.
                byte = rng.choice([2, *range(5, len(frame))])
                frame[byte] ^= 0x80 >> rng.randrange(8)
                bad.append(offset)
            else:
                texts.append(oracle.render(tree))
                spans.append((offset, len(frame)))
        out += frame
    return Connection(bytes(out), n_frames, tuple(texts), tuple(spans),
                      tuple(bad), tuple(undec), runs, tuple(depths))
