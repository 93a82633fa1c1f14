import itertools
import random

import pytest

from semchan import (
    ObjectRef,
    PredicateCode,
    Proposition,
    World,
    decoder_from_truth,
    encode_frame,
    frame_to_wire,
    ground_corpus,
    holds,
    make_channel,
    parse_proposition,
    truth_from_channel,
    verify_bridge,
)
from semchan.channel import PerfectTS, SubstituteTS, TruncateTS
from semchan.tarski import ChannelNotActiveError, NotInvertibleError

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


def test_decoder_from_truth_rejects_truncate():
    w = World.build({1}, {(P, 1, True)})
    T = truth_from_channel(make_channel({}), w)
    with pytest.raises(NotInvertibleError):
        decoder_from_truth(T, TruncateTS(4))


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


def test_bridge_renderings():
    w = World.build({1}, {(P, 1, True)})
    c = make_channel({"kind": "perfect"})
    report = verify_bridge(c, w, ground_corpus(w))
    table = report.to_table()
    assert "proposition" in table and "agree" in table
    doc = report.to_json()
    assert doc["agree"] is True
    assert any(r["diagonal"] for r in doc["rows"])


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
