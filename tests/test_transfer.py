import copy
import dataclasses
import hashlib
import json
import pickle

import pytest

from semchan import (
    PerfectTS,
    World,
    analyze_self_reference,
    build_enumeration,
    build_NT_all,
    check_transferable,
    encode_frame,
    eval_NT,
    eval_Tr,
    find_fixed_point,
    ground_corpus,
    make_channel,
    parse_proposition,
    receive,
    transmit,
    verify_activeness,
    verify_bridge,
)
from semchan.transfer import NON_TRANSFERABLE, TRANSFERABLE

from genprops import corpus

ON112 = parse_proposition("ON(112)")


def test_perfect_is_transferable():
    c = make_channel({"kind": "perfect"})
    v = check_transferable(c, ON112)
    assert v.kind == TRANSFERABLE
    assert v.evidence.recv == "ON(112)"


def test_perfect_transferable_bulk():
    c = make_channel({"kind": "perfect"})
    for p in corpus(seed=111, count=10_000):
        assert check_transferable(c, p).kind == TRANSFERABLE


def test_full_inversion_is_non_transferable():
    c = make_channel({"kind": "bitflip", "p": 1.0, "seed": 7})
    assert check_transferable(c, ON112).kind == NON_TRANSFERABLE


def test_negated_literal_transferable():
    c = make_channel({"kind": "perfect"})
    assert check_transferable(c, parse_proposition("~AC-Fail(14)")).kind == TRANSFERABLE


def test_eval_NT_perfect_false():
    c = make_channel({"kind": "perfect"})
    assert eval_NT(c, encode_frame(ON112)) is False
    assert eval_NT(c, encode_frame(parse_proposition("~P(3)"))) is False


def test_eval_NT_bitflip_true():
    c = make_channel({"kind": "bitflip", "p": 1.0, "seed": 7})
    assert eval_NT(c, encode_frame(ON112)) is True


def test_eval_Tr_is_complement():
    configs = [
        {"kind": "perfect"},
        {"kind": "bitflip", "p": 1.0, "seed": 3},
        {"kind": "bitflip", "p": 0.4, "seed": 8},
        {"kind": "truncate", "max_bits": 16},
    ]
    props = corpus(seed=222, count=40)
    for cfg in configs:
        c_nt = make_channel(cfg)
        c_tr = make_channel(cfg)
        for p in props:
            f = encode_frame(p)
            assert eval_Tr(c_tr, f) ^ eval_NT(c_nt, f)


def test_verdict_json_shape():
    c = make_channel({"kind": "perfect"})
    doc = check_transferable(c, ON112).to_json()
    assert set(doc) == {"verdict", "sent", "recv", "trace"}
    assert doc["verdict"] == TRANSFERABLE


def test_replay_determinism_verdicts():
    cfg = {"kind": "bitflip", "p": 0.5, "seed": 77}
    props = corpus(seed=333, count=30)
    kinds = []
    for _ in range(2):
        c = make_channel(cfg)
        kinds.append([check_transferable(c, p).kind for p in props])
    assert kinds[0] == kinds[1]


def test_verdict_json_digest_pinned():
    h = hashlib.sha256()
    props = corpus(seed=2024, count=200)
    for cfg in ({"kind": "perfect"},
                {"kind": "bitflip", "p": 0.05, "seed": 5},
                {"kind": "truncate", "max_bits": 150}):
        c = make_channel(cfg)
        for p in props:
            h.update(json.dumps(check_transferable(c, p).to_json()).encode())
    assert h.hexdigest() == (
        "9e119d19368309a53b4ca19d51ec26128b0b617e1ff3b95402da816152e94cfc")


def _paradox():
    return analyze_self_reference(make_channel({}), build_NT_all())


def _table():
    return build_enumeration([ON112.predicate], 2)


def _world():
    return World.build({1, 2}, {(ON112.predicate, 1, True)})


def _bridge():
    w = _world()
    return verify_bridge(make_channel({}), w, ground_corpus(w))


# reports: each call builds one, returns it and never keeps it
REPORTS = {
    "Transcript": lambda: transmit(make_channel({}), ON112),
    "ActivenessReport": lambda: verify_activeness(PerfectTS(), [ON112]),
    "Verdict": lambda: check_transferable(make_channel({}), ON112),
    "Diagnostic": lambda: receive(b"xy")[1][0],
    "TraceStep": lambda: _paradox().case_trace[0],
    "ParadoxReport": _paradox,
    "FixedPointReport": lambda: find_fixed_point(_table()),
    "BridgeReport": _bridge,
    "BridgeRow": lambda: _bridge().rows[0],
}

# values: hashed, used as dict keys, or shared between frames and reports
VALUES = {
    "PredicateCode": lambda: ON112.predicate,
    "ObjectRef": lambda: ON112.object,
    "Proposition": lambda: ON112,
    "World": _world,
    "EnumerationTable": _table,
}


@pytest.mark.parametrize("name", REPORTS)
def test_reports_are_plain_slotted_records(name):
    r = REPORTS[name]()
    assert type(r).__name__ == name
    assert not hasattr(r, "__dict__")
    copy = dataclasses.replace(r)
    assert copy == r and copy is not r
    with pytest.raises(TypeError):
        hash(r)


@pytest.mark.parametrize("name", VALUES)
def test_values_stay_frozen_and_hashable(name):
    v = VALUES[name]()
    assert type(v).__name__ == name
    field = dataclasses.fields(v)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(v, field, getattr(v, field))
    assert hash(v) == hash(VALUES[name]())
    # slotted, except World, whose index and memos are not fields
    assert hasattr(v, "__dict__") is (name == "World")
    assert pickle.loads(pickle.dumps(v)) == v
    assert copy.copy(v) == v


def test_frame_is_an_immutable_field_tuple():
    # a Frame is a value too, but a NamedTuple, not a frozen dataclass
    f = encode_frame(ON112)
    with pytest.raises(AttributeError):
        setattr(f, "polarity", f.polarity)
    assert hash(f) == hash(encode_frame(ON112))
    assert not hasattr(f, "__dict__")
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.copy(f) == f
    assert f == (True, "name", b"ON", "number", 112, None)
