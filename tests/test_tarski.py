import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from semchan import (
    BridgeReport,
    ObjectRef,
    PredicateCode,
    Proposition,
    TruthPredicate,
    World,
    build_enumeration,
    decode_frame,
    decoder_from_truth,
    encode_frame,
    find_fixed_point,
    frame_to_wire,
    ground_corpus,
    holds,
    make_channel,
    negate,
    parse_proposition,
    receive,
    render_proposition,
    truth_from_channel,
    verify_activeness,
    verify_bridge,
)
from semchan.channel import (ActivenessReport, BitFlipTS, PerfectTS, SubstituteTS,
                             TransmissionSystem, TruncateTS)
from semchan.tarski import BridgeRow, ChannelNotActiveError, NotInvertibleError
from semchan.wire import encode, receive_one

from test_wire import outcome

ON = PredicateCode("ON")
P = PredicateCode("P")


def wire_code(p):
    return frame_to_wire(encode_frame(p))


def small_worlds(max_preds=3, max_objs=4, seed=1):
    """Worlds covering every (predicate count, domain size) combination.

    Exhaustive over literal assignments where that is small; seeded
    sampling otherwise.  Each pred/obj pair is positive, negative or
    absent.
    """
    rng = random.Random(seed)
    pred_pool = [PredicateCode(name) for name in ("P", "Q", "R")]
    for npred in range(1, max_preds + 1):
        preds = pred_pool[:npred]
        for nobj in range(1, max_objs + 1):
            domain = set(range(1, nobj + 1))
            cells = [(pr, m) for pr in preds for m in sorted(domain)]
            total = 3 ** len(cells)
            if total <= 81:
                assignments = range(total)
            else:
                assignments = [rng.randrange(total) for _ in range(50)]
            for a in assignments:
                lits = set()
                v = a
                for pr, m in cells:
                    state = v % 3
                    v //= 3
                    if state == 1:
                        lits.add((pr, m, True))
                    elif state == 2:
                        lits.add((pr, m, False))
                yield World.build(domain, lits)


def test_truth_from_channel_matches_holds_exhaustively():
    for w in small_worlds():
        c = make_channel({"kind": "perfect"})
        T = truth_from_channel(c, w)
        for p in ground_corpus(w):
            assert T(wire_code(p)) == holds(w, p), str(p)


def test_truth_from_channel_point_examples():
    w = World.build({7, 112}, {(ON, 112, True)})
    c = make_channel({"kind": "perfect"})
    T = truth_from_channel(c, w)
    assert T(wire_code(parse_proposition("ON(112)"))) is True
    assert T(wire_code(parse_proposition("ON(7)"))) is False


def test_undecodable_code_maps_to_false_with_note():
    w = World.build({1}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    T = truth_from_channel(c, w)
    assert T(b"\x00\x01\x02") is False
    assert T.notes


def test_crc_valid_undecodable_code_maps_to_false_with_note():
    from semchan.wire import SYNC, crc16

    body = b"\x01\x00\x02\xff\xfe\x00\x00\x01\x01"  # name bytes ff fe
    header = b"\x01" + len(body).to_bytes(2, "big")
    code = SYNC + header + body + crc16(header + body).to_bytes(2, "big")
    T = truth_from_channel(make_channel({}), World.build({1}, {(P, 1, True)}))
    assert T(code) is False
    assert T.notes == [f"code {code.hex()} undecodable or not world-evaluable; "
                       "mapped to False"]


def test_builtin_code_maps_to_false_with_note():
    w = World.build({1}, {(P, 1, True)})
    T = truth_from_channel(make_channel({}), w)
    assert T(wire_code(parse_proposition("NT(*)"))) is False
    assert any("not world-evaluable" in n for n in T.notes)


def test_truth_requires_active_channel():
    w = World.build({1, 2}, {(P, 1, True)})

    class ZeroTS(TruncateTS):
        def __init__(self):
            super().__init__(0)

    c = make_channel({"kind": "perfect"})
    c.ts = ZeroTS()
    with pytest.raises(ChannelNotActiveError):
        truth_from_channel(c, w)


class ProbeBuilt(Exception):
    pass


@pytest.mark.parametrize("config", [
    {"kind": "perfect"},
    {"kind": "substitute", "map": {"1": 2, "2": 1}},
    {"kind": "bitflip", "p": 0.0, "seed": 3},
])
def test_analytic_channel_builds_no_probe(monkeypatch, config):
    def no_probe(w):
        raise ProbeBuilt

    monkeypatch.setattr("semchan.tarski.ground_corpus", no_probe)
    w = World.build({1, 2}, {(P, 1, True)})
    c = make_channel(config)
    T = truth_from_channel(c, w)
    # the substitute swaps the version byte 0x01 away, so nothing arrives
    assert T(wire_code(parse_proposition("P(1)"))) is (config["kind"] != "substitute")


def test_sampled_channel_builds_the_probe(monkeypatch):
    def no_probe(w):
        raise ProbeBuilt

    monkeypatch.setattr("semchan.tarski.ground_corpus", no_probe)
    with pytest.raises(ProbeBuilt):
        truth_from_channel(make_channel({"kind": "truncate", "max_bits": 512}),
                           World.build({1, 2}, {(P, 1, True)}))


def test_ground_corpus_matches_triple_loop():
    for w in small_worlds():
        expected = [Proposition(pol, pred, ObjectRef.num(m))
                    for pred in w.predicates()
                    for m in sorted(w.domain)
                    for pol in (True, False)]
        assert ground_corpus(w) == expected


def test_decoder_from_truth_perfect_identity():
    w = World.build({1, 2}, {(P, 1, True), (P, 2, False)})
    c = make_channel({"kind": "perfect"})
    T = truth_from_channel(c, w)
    d = decoder_from_truth(T, PerfectTS())
    for p in ground_corpus(w):
        assert d(wire_code(p)) == holds(w, p)


def test_decoder_from_truth_substitute_inverts_byte_map():
    w = World.build({1, 2}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    T = truth_from_channel(c, w)
    ts = SubstituteTS({i: (i + 1) % 256 for i in range(256)})
    d = decoder_from_truth(T, ts)
    for p in ground_corpus(w):
        assert d(ts.apply(wire_code(p), 0)) == T(wire_code(p))


@pytest.mark.parametrize("p", [0.2, 1.0])
def test_decoder_from_truth_inverts_bitflip_at_each_use(p):
    w = World.build({1, 2}, {(P, 1, True), (P, 2, False)})
    T = truth_from_channel(make_channel({}), w)
    ts = BitFlipTS(p, seed=9)
    d = decoder_from_truth(T, ts)
    flipped = 0
    for n in range(6):
        for q in ground_corpus(w):
            code = wire_code(q)
            received = ts.apply(code, n)
            flipped += received != code
            assert d(received, n) == T(code) == holds(w, q)
    assert flipped == 6 * 4 if p == 1.0 else flipped > 0


@pytest.mark.parametrize("ts", [PerfectTS(), SubstituteTS({1: 2, 2: 1})])
def test_decoder_from_truth_ignores_use_for_fixed_systems(ts):
    w = World.build({1, 2}, {(P, 1, True)})
    T = truth_from_channel(make_channel({}), w)
    d = decoder_from_truth(T, ts)
    for q in ground_corpus(w):
        received = ts.apply(wire_code(q), 0)
        assert d(received) == d(received, 5) == T(wire_code(q))


def test_decoder_from_truth_rejects_truncate():
    w = World.build({1}, {(P, 1, True)})
    T = truth_from_channel(make_channel({}), w)
    with pytest.raises(NotInvertibleError):
        decoder_from_truth(T, TruncateTS(4))


class XorTS(TransmissionSystem):
    """A system defined outside the library that brings its own inverse."""

    kind = "xor"

    def apply(self, data, n):
        return bytes(b ^ 0xFF for b in data)

    invert = apply


def test_decoder_from_truth_inverts_any_system_with_invert():
    w = World.build({1, 2}, {(P, 1, True), (P, 2, False)})
    T = truth_from_channel(make_channel({}), w)
    ts = XorTS()
    assert ts.analytic_injective
    d = decoder_from_truth(T, ts)
    for q in ground_corpus(w):
        received = ts.apply(wire_code(q), 0)
        assert received != wire_code(q)
        assert d(received) == holds(w, q)


def test_direction_a_composition_exhaustive():
    # decoder built from the channel-derived truth predicate agrees with holds
    for w in itertools.islice(small_worlds(seed=5), 40):
        c = make_channel({"kind": "perfect"})
        T = truth_from_channel(c, w)
        d = decoder_from_truth(T, PerfectTS())
        for p in ground_corpus(w):
            assert d(wire_code(p)) == holds(w, p)


def test_bridge_perfect_agrees():
    w = World.build({1, 2, 3}, {(P, 1, True), (P, 2, False), (ON, 3, True)})
    c = make_channel({"kind": "perfect"})
    report = verify_bridge(c, w, ground_corpus(w))
    assert report.agree
    assert report.failures == ()
    assert report.corpus_size == 2 * 2 * 3  # 2 preds x 3 objects x 2 polarities


def test_bridge_bitflip_fails_some_row():
    w = World.build({1, 2}, {(P, 1, True), (P, 2, True)})
    c = make_channel({"kind": "bitflip", "p": 1.0, "seed": 5})
    report = verify_bridge(c, w, ground_corpus(w))
    assert not report.agree
    assert report.failures


def test_bridge_empty_corpus_vacuously_true():
    w = World.build({1}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    report = verify_bridge(c, w, [])
    assert report.agree and report.corpus_size == 0


def test_bridge_includes_flagged_diagonal_row():
    w = World.build({1, 2}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    report = verify_bridge(c, w, ground_corpus(w))
    diag_rows = [r for r in report.rows if r.diagonal]
    assert len(diag_rows) == 1
    assert diag_rows[0].agree is None  # excluded from the agreement flag
    assert report.agree  # ground rows all agree despite the paradox row
    assert diag_rows[0].proposition.startswith("NT(<")


def test_bridge_over_a_world_without_literals_reads_the_corpus_predicates():
    # the world names no predicate, so the diagonal row is built over the
    # corpus' ones; an empty corpus gives no diagonal row, and a builtin row
    # is refused before the diagonal row is built
    w = World.build({1, 2}, set())
    q = PredicateCode("Q")
    corpus = [parse_proposition(t) for t in ("Q(1)", "~P(*)", "Q(2)")]
    report = verify_bridge(make_channel({}), w, corpus)
    star = find_fixed_point(build_enumeration([P, q], 2)).frame_star
    assert [r.diagonal for r in report.rows] == [False] * 3 + [True]
    assert report.rows[-1].atom == decode_frame(star)
    assert report.rows[-1].code == frame_to_wire(star)
    assert report.to_json() == reference_verify_bridge(
        make_channel({}), World.build({1, 2}, set()), corpus).to_json()
    assert verify_bridge(make_channel({}), w, []).rows == ()
    with pytest.raises(ValueError, match="builtin predicate NT"):
        verify_bridge(make_channel({}), w, corpus + [parse_proposition("NT(1)")])


def test_bridge_renderings():
    w = World.build({1}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    report = verify_bridge(c, w, ground_corpus(w))
    table = report.to_table()
    assert "proposition" in table and "agree" in table
    doc = report.to_json()
    assert doc["agree"] is True
    assert any(r["diagonal"] for r in doc["rows"])


@pytest.mark.parametrize("config", ["perfect", "bitflip-1.0", "truncate-112-cuts"])
def test_bridge_rows_keep_facts_and_render_on_read(config):
    w = bridge_world()
    corpus = ground_corpus(w) + [parse_proposition("Q(1)")]
    report = verify_bridge(make_channel(BRIDGE_CHANNELS[config]), w, corpus)
    assert [r.atom for r in report.rows[:-1]] == corpus
    assert report.rows[-1].diagonal
    for row in report.rows:
        assert row.proposition == render_proposition(row.atom)
        assert row.code_hex == row.code.hex()
        assert type(row.code) is bytes
    assert [r.code for r in report.rows[:-1]] == [encode(p) for p in corpus]


@pytest.mark.parametrize("p", [0.2, 1.0])
def test_bitflip_channel_builds_no_probe(monkeypatch, p):
    def no_probe(w):
        raise ProbeBuilt

    monkeypatch.setattr("semchan.tarski.ground_corpus", no_probe)
    c = make_channel({"kind": "bitflip", "p": p, "seed": 7})
    T = truth_from_channel(c, World.build({1, 2}, {(P, 1, True)}))
    assert c.uses == 0
    assert T(wire_code(parse_proposition("P(1)"))) in (True, False)
    assert c.uses == 1


# Reference copies of the activeness probe, the truth predicate and the
# bridge as they were when a sampled system's probe encoded the world's
# ground corpus on its own and the row loop encoded every row again; the
# tests below pin the current functions to them report for report and use
# for use.


def reference_verify_activeness(ts, corpus):
    corpus = list(corpus)
    if not corpus:
        raise ValueError("activeness corpus must be nonempty")
    if ts.analytic_injective:
        return ActivenessReport(injective=True, analytic=True)
    seen = {}
    for p in corpus:
        out = ts.apply(encode(p), 0)
        if out in seen and seen[out] != p:
            return ActivenessReport(
                injective=False,
                collision=(render_proposition(seen[out]), render_proposition(p)),
            )
        seen[out] = p
    return ActivenessReport(injective=True)


class ReferenceTruth:
    """T as a memo of its own: each code is evaluated once, and a code that
    evaluates to None reads False, with a note."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.memo = {}
        self.notes = []

    def __call__(self, code):
        if code not in self.memo:
            value = self.evaluate(code)
            if value is None:
                self.notes.append(f"code {code.hex()} undecodable or not "
                                  "world-evaluable; mapped to False")
                value = False
            self.memo[code] = value
        return self.memo[code]


def reference_truth_from_channel(c, w):
    probe = [] if c.ts.analytic_injective else ground_corpus(w)
    if probe:
        report = reference_verify_activeness(c.ts, probe)
        if not report.injective:
            raise ChannelNotActiveError(
                f"transmission system not one-to-one: collision {report.collision}")

    def evaluate(code):
        n = c.uses
        c.uses += 1
        props, diags = receive(c.ts.apply(code, n))
        if len(props) != 1 or diags:
            return None
        try:
            return holds(w, props[0])
        except ValueError:
            return None

    return ReferenceTruth(evaluate)


def reference_verify_bridge(c, w, corpus):
    corpus = list(corpus)
    truth = reference_truth_from_channel(c, w)
    rows = []
    failures = []
    for p in corpus:
        code = encode(p)
        t_val = truth(code)
        h_val = holds(w, p)
        if t_val != h_val:
            failures.append(render_proposition(p))
        rows.append(BridgeRow(p, code, t_val, h_val, t_val == h_val))

    preds = w.predicates() or sorted(
        {p.predicate for p in corpus if not p.predicate.is_builtin}, key=str)
    if preds:
        table = build_enumeration(preds, max(len(preds), 1))
        star = find_fixed_point(table).frame_star
        star_code = frame_to_wire(star)
        rows.append(BridgeRow(
            decode_frame(star), star_code,
            truth(star_code), None, None, diagonal=True))

    return BridgeReport(
        corpus_size=len(corpus),
        rows=tuple(rows),
        agree=all(r.agree for r in rows if not r.diagonal),
        failures=tuple(failures),
        notes=tuple(truth.notes),
    )


BRIDGE_CHANNELS = {
    "perfect": {"kind": "perfect"},
    "substitute": {"kind": "substitute", "map": {"165": 90, "90": 165, "1": 2, "2": 1}},
    "bitflip-0.2": {"kind": "bitflip", "p": 0.2, "seed": 11},
    "bitflip-1.0": {"kind": "bitflip", "p": 1.0, "seed": 11},
    "truncate-512-fits": {"kind": "truncate", "max_bits": 512},
    # this world's frames are 120 and 128 bits: 112 cuts every frame and keeps
    # them apart, 100 cuts into the object numbers, so 5(1) meets 5(2)
    "truncate-112-cuts": {"kind": "truncate", "max_bits": 112},
    "truncate-100-collides": {"kind": "truncate", "max_bits": 100},
    "truncate-0-collides": {"kind": "truncate", "max_bits": 0},
}


def bridge_world():
    """Names and indices side by side, both polarities and absent cells."""
    p5, i5 = PredicateCode("5"), PredicateCode(5)
    return World.build({1, 2, 14, 112}, {
        (ON, 112, True), (ON, 14, False), (P, 1, True), (P, 2, True),
        (p5, 1, False), (p5, 2, True), (i5, 1, True), (i5, 14, True),
    })


def bridge_outcome(verify, config, corpus_of):
    """The report's JSON and the channel's uses, or what the bridge raised."""
    c = make_channel(config)
    w = bridge_world()
    try:
        report = verify(c, w, corpus_of(w))
    except Exception as e:
        return type(e), str(e), c.uses
    return report.to_json(), c.uses


@pytest.mark.parametrize("corpus_of", [ground_corpus, lambda w: []],
                         ids=["ground", "empty"])
@pytest.mark.parametrize("name", list(BRIDGE_CHANNELS))
def test_verify_bridge_matches_reference(name, corpus_of):
    config = BRIDGE_CHANNELS[name]
    got = bridge_outcome(verify_bridge, config, corpus_of)
    assert got == bridge_outcome(reference_verify_bridge, config, corpus_of)
    collisions = {"truncate-0-collides": "('5(1)', '~5(1)')",
                  "truncate-100-collides": "('5(1)', '5(2)')"}
    if name in collisions:
        assert got[:2] == (ChannelNotActiveError, "transmission system not "
                           f"one-to-one: collision {collisions[name]}")
    else:
        assert isinstance(got[0], dict)


@pytest.mark.parametrize("name", list(BRIDGE_CHANNELS))
def test_truth_from_channel_matches_reference(name):
    config = BRIDGE_CHANNELS[name]
    w = bridge_world()
    codes = [encode(p) for p in ground_corpus(w)] + [b"", b"\xa5\x5a\x01"]

    def values(make):
        c = make_channel(config)
        try:
            truth = make(c, w)
        except ChannelNotActiveError as e:
            return str(e), c.uses
        return [truth(code) for code in codes + codes], truth.notes, c.uses

    assert values(truth_from_channel) == values(reference_truth_from_channel)


@pytest.mark.parametrize("name", list(BRIDGE_CHANNELS))
def test_verify_activeness_matches_reference(name):
    ts = make_channel(BRIDGE_CHANNELS[name]).ts
    corpus = ground_corpus(bridge_world())
    # equal rows that are distinct objects are one row, not a collision
    copies = [parse_proposition(render_proposition(p)) for p in corpus[:3]]
    for rows in (corpus, corpus[1:], corpus[::3], corpus[:1] * 2, corpus + copies, []):
        assert (outcome(verify_activeness, ts, rows)
                == outcome(reference_verify_activeness, ts, rows))


@pytest.mark.parametrize("name", list(BRIDGE_CHANNELS))
def test_verify_bridge_encodes_each_row_once(monkeypatch, name):
    w = bridge_world()
    corpus = ground_corpus(w)
    encoded = []

    def counting_encode(p):
        encoded.append(p)
        return encode(p)

    def no_probe(w):
        raise ProbeBuilt

    for module in ("semchan.tarski", "semchan.channel"):
        monkeypatch.setattr(f"{module}.encode", counting_encode)
    monkeypatch.setattr("semchan.tarski.ground_corpus", no_probe)
    try:
        verify_bridge(make_channel(BRIDGE_CHANNELS[name]), w, corpus)
    except ChannelNotActiveError:
        assert name.endswith("collides")
    assert encoded == corpus


def test_sampled_bridge_probes_the_rows_it_checks():
    # the ground corpus collides over truncate 0 at ('5(1)', '~5(1)'); a
    # corpus of other rows is probed over those rows alone
    w = bridge_world()
    rows = [parse_proposition(t) for t in ("P(1)", "~P(1)", "ON(112)")]
    with pytest.raises(ChannelNotActiveError,
                       match=re.escape("collision ('P(1)', '~P(1)')")):
        verify_bridge(make_channel({"kind": "truncate", "max_bits": 0}), w, rows)
    c = make_channel({"kind": "truncate", "max_bits": 0})
    report = verify_bridge(c, w, rows[2:])
    assert [(r.proposition, r.truth, r.world_holds) for r in report.rows[:1]] == [
        ("ON(112)", False, True)]
    assert not report.agree and report.failures == ("ON(112)",)
    assert c.uses == 2  # the row and the diagonal row



# A world remembers the received streams it has judged.  The tests below share
# one world between channels and pin every answer to the reference copies run
# on a fresh world each time.

def truth_answers(truth_of, config, w, codes):
    """Each code's truth value, asked twice over, and the notes, or what the
    truth predicate raised; then the channel's uses."""
    c = make_channel(config)
    truth = outcome(truth_of, c, w)
    if isinstance(truth, (TruthPredicate, ReferenceTruth)):
        truth = [truth(code) for code in codes + codes], truth.notes
    return truth, c.uses


def channel_outcomes(names, verify, truth_of, world_of):
    """For each channel in turn: the bridge over the ground and the empty
    corpus, each with the channel's uses after it, or what it raised, then
    the truth predicate's answers on every ground code and two streams that
    do not decode.  world_of() gives the world of each call."""
    codes = [encode(p) for p in ground_corpus(world_of())] + [b"", b"\xa5\x5a\x01"]
    got = []
    for name in names:
        config = BRIDGE_CHANNELS[name]
        for corpus_of in (ground_corpus, lambda w: []):
            c, w = make_channel(config), world_of()
            got.append((outcome(lambda: verify(c, w, corpus_of(w)).to_json()), c.uses))
        got.append(truth_answers(truth_of, config, world_of(), codes))
    return got


def memo_bound(w):
    return 2 * len(w.predicates()) * (len(w.domain) + 1)


# bridge_world() and a sample of small_worlds(), the first of them with no
# literal, so no predicate
FRESH_WORLDS = [bridge_world()] + list(itertools.islice(small_worlds(seed=3), 0, None, 40))


@pytest.mark.parametrize("order", ["forward", "reversed", "twice"])
def test_shared_world_matches_reference_on_fresh_worlds(order):
    names = list(BRIDGE_CHANNELS)
    names = {"forward": names, "reversed": names[::-1], "twice": names + names}[order]
    for world in FRESH_WORLDS:
        w = World(world.domain, world.literals)
        fresh = lambda: World(world.domain, world.literals)
        assert (channel_outcomes(names, verify_bridge, truth_from_channel, lambda: w)
                == channel_outcomes(names, reference_verify_bridge,
                                    reference_truth_from_channel, fresh))
        assert len(w._evaluated) <= memo_bound(w) and len(w._codes) <= memo_bound(w)
        assert bool(w._evaluated) is bool(w.literals)


def test_world_memo_spares_the_second_decode(monkeypatch):
    w = bridge_world()
    codes = [encode(p) for p in ground_corpus(w)]
    received = []

    def counting_receive(stream):
        received.append(stream)
        return receive_one(stream)

    monkeypatch.setattr("semchan.tarski.receive_one", counting_receive)
    first = truth_from_channel(make_channel({}), w)
    assert [first(code) for code in codes] == [holds(w, p) for p in ground_corpus(w)]
    assert received == codes
    c = make_channel({})
    second = truth_from_channel(c, w)
    assert [second(code) for code in codes] == [first(code) for code in codes]
    assert received == codes and c.uses == len(codes)


def test_world_memo_is_bounded_by_its_atoms():
    # every atom of the world's vocabulary, both polarities, '*' included
    w = bridge_world()
    objects = [ObjectRef.num(m) for m in sorted(w.domain)] + [ObjectRef.all_objects()]
    corpus = [Proposition(pol, pred, obj)
              for pred in w.predicates() for obj in objects for pol in (True, False)]
    for name in ("perfect", "substitute", "bitflip-0.2", "truncate-512-fits"):
        verify_bridge(make_channel(BRIDGE_CHANNELS[name]), w, corpus * 2)
    assert len(w._evaluated) == memo_bound(w)


def test_world_memo_keeps_no_foreign_atom():
    w = bridge_world()
    inner = parse_proposition("P(1)")
    corpus = [parse_proposition(t) for t in (
        "Q(1)", "~Q(*)", "#6(1)", "P(3)", "~ON(7)", "NT(*)", "~Tr(1)", "Err(*)",
        "NT(14)")]
    corpus += [Proposition(True, P, ObjectRef("nested", 0, inner)),
               Proposition(False, ON, ObjectRef("nested", 0, negate(inner)))]
    codes = [encode(p) for p in corpus]
    for config in BRIDGE_CHANNELS.values():
        assert (truth_answers(truth_from_channel, config, w, codes)
                == truth_answers(reference_truth_from_channel, config, bridge_world(),
                                 codes))
    assert w._evaluated == {}


class BytearrayTS(PerfectTS):
    """A perfect system that hands back a mutable copy."""

    def apply(self, data, n):
        return bytearray(data)


def test_bytearray_system_matches_reference():
    def answers(verify, truth_of):
        c, w = make_channel({}), bridge_world()
        c.ts = BytearrayTS()
        codes = [encode(p) for p in ground_corpus(w)]
        report = verify(c, w, ground_corpus(w)).to_json()
        truth = truth_of(c, w)
        return report, [truth(code) for code in codes], truth.notes, c.uses

    assert (answers(verify_bridge, truth_from_channel)
            == answers(reference_verify_bridge, reference_truth_from_channel))


# The bridges over one world share each own atom's code through w._codes.
# The tests below pin what it stores, what it spares and what a world's first
# bridge still decodes.

def bridge_reports(w, names, corpus):
    """The bridge over each channel that is one-to-one on the corpus."""
    reports = []
    for name in names:
        try:
            reports.append(verify_bridge(make_channel(BRIDGE_CHANNELS[name]), w, corpus))
        except ChannelNotActiveError:
            assert name.endswith("collides")
    return reports


def test_second_bridge_encodes_and_renders_no_stored_row(monkeypatch):
    w = bridge_world()
    ground = ground_corpus(w)
    foreign = [parse_proposition(t) for t in ("Q(1)", "P(3)", "~ON(*)")]
    corpus = ground + foreign
    verify_bridge(make_channel({}), w, corpus)
    encoded, rendered = [], []

    def counting_encode(p):
        encoded.append(p)
        return encode(p)

    def counting_render(p):
        rendered.append(p)
        return render_proposition(p)

    monkeypatch.setattr("semchan.tarski.encode", counting_encode)
    monkeypatch.setattr("semchan.tarski.render_proposition", counting_render)
    c = make_channel(BRIDGE_CHANNELS["truncate-512-fits"])
    report = verify_bridge(c, w, corpus)
    assert encoded == foreign[:2]  # ~ON(*) is the world's own atom
    assert rendered == []  # rows render their text only when read
    monkeypatch.undo()
    assert report.to_json() == reference_verify_bridge(
        make_channel(BRIDGE_CHANNELS["truncate-512-fits"]), bridge_world(),
        corpus).to_json()


def test_first_bridge_over_a_fresh_world_receives_only_unseeded_streams(monkeypatch):
    # as it encodes each own atom, the bridge seeds w._evaluated with that
    # code's holds value, so T decodes only the received streams that are no
    # row's code: over perfect, the diagonal row's alone
    received = []

    def counting_receive(stream):
        received.append(bytes(stream))
        return receive_one(stream)

    monkeypatch.setattr("semchan.tarski.receive_one", counting_receive)
    configs = {name: BRIDGE_CHANNELS[name] for name in ("perfect", "bitflip-0.2")}
    # about one frame in three arrives intact, so both kinds of row occur
    configs["bitflip-0.01"] = {"kind": "bitflip", "p": 0.01, "seed": 11}
    for name, config in configs.items():
        w = bridge_world()
        corpus = ground_corpus(w)
        codes = [encode(p) for p in corpus]
        report = verify_bridge(make_channel(config), w, corpus)
        ts = make_channel(config).ts
        arrived = [bytes(ts.apply(code, n))
                   for n, code in enumerate(codes + [report.rows[-1].code])]
        assert received == [r for r in arrived if r not in codes], name
        if name == "bitflip-0.01":
            assert 1 < len(received) < len(arrived)
        del received[:]
    verify_bridge(make_channel({}), w, corpus)
    assert len(received) == 1  # the diagonal row, a builtin: never remembered


OWN_PREDICATES = st.one_of(
    st.from_regex(r"[A-Za-z0-9-]{1,64}", fullmatch=True)
    .filter(lambda name: not PredicateCode(name).is_builtin),
    st.integers(1, 2**64)).map(PredicateCode)
OWN_OBJECTS = st.one_of(st.integers(1, 2**64 - 1).map(ObjectRef.num),
                        st.just(ObjectRef.all_objects()))


@given(st.builds(Proposition, st.booleans(), OWN_PREDICATES, OWN_OBJECTS))
def test_an_own_atom_code_receives_as_that_atom(p):
    # why the bridge's seeded memo entries are exact: T would store holds(w, p)
    # under exactly these bytes once they arrive intact
    assert receive(encode(p)) == ([p], [])


@pytest.mark.parametrize("name", list(BRIDGE_CHANNELS))
def test_first_bridge_seeds_the_truth_memo_with_each_own_atom(name):
    w = bridge_world()
    objects = [ObjectRef.num(m) for m in sorted(w.domain)] + [ObjectRef.all_objects()]
    own = [Proposition(pol, pred, obj)
           for pred in w.predicates() for obj in objects for pol in (True, False)]
    # the builtin rows raise in holds, and a colliding system in its probe,
    # only after every row is encoded
    outcome(verify_bridge, make_channel(BRIDGE_CHANNELS[name]), w, own + foreign_rows())
    assert w._evaluated == {encode(p): holds(w, p) for p in own}


def test_row_memo_is_bounded_by_its_atoms():
    w = bridge_world()
    objects = [ObjectRef.num(m) for m in sorted(w.domain)] + [ObjectRef.all_objects()]
    corpus = [Proposition(pol, pred, obj)
              for pred in w.predicates() for obj in objects for pol in (True, False)]
    for _ in range(2):
        bridge_reports(w, BRIDGE_CHANNELS, corpus * 2)
    assert len(w._codes) == memo_bound(w)
    assert all(encode(p) == code for p, code in w._codes.items())


def foreign_rows():
    """The corpus of test_world_memo_keeps_no_foreign_atom."""
    inner = parse_proposition("P(1)")
    corpus = [parse_proposition(t) for t in (
        "Q(1)", "~Q(*)", "#6(1)", "P(3)", "~ON(7)", "NT(*)", "~Tr(1)", "Err(*)",
        "NT(14)")]
    return corpus + [Proposition(True, P, ObjectRef("nested", 0, inner)),
                     Proposition(False, ON, ObjectRef("nested", 0, negate(inner)))]


def test_row_memo_keeps_no_foreign_atom():
    # each row alone, as on a fresh world: a sampled system is probed over
    # the rows checked, so a one-row corpus never collides
    w = bridge_world()
    # a builtin literal is in the world's index, yet not world-evaluable
    nt_world = lambda: World.build({1}, {(PredicateCode("NT"), 1, True), (P, 1, True)})
    nt = nt_world()
    for config in BRIDGE_CHANNELS.values():
        for p in foreign_rows():
            assert (outcome(lambda: verify_bridge(make_channel(config), w, [p]).to_json())
                    == outcome(lambda: verify_bridge(
                        make_channel(config), bridge_world(), [p]).to_json()))
        assert (outcome(verify_bridge, make_channel(config), nt, ground_corpus(nt))
                == outcome(reference_verify_bridge, make_channel(config), nt_world(),
                           ground_corpus(nt)))
    assert w._codes == {} and w._evaluated == {}
    assert set(nt._codes) == {parse_proposition("P(1)"), parse_proposition("~P(1)")}
