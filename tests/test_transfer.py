import hashlib
import json

from semchan import (
    check_transferable,
    encode_frame,
    eval_NT,
    eval_Tr,
    make_channel,
    parse_proposition,
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
