import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from semchan import (
    BitFlipTS,
    Channel,
    ObjectRef,
    PerfectTS,
    PredicateCode,
    Proposition,
    SubstituteTS,
    TruncateTS,
    encode_frame,
    equivalent,
    frame_to_wire,
    make_channel,
    parse_proposition,
    transmit,
    verify_activeness,
)
from semchan.channel import (ChannelConfigError, Transcript, TransmissionSystem,
                             _bytes_to_bits, append_transcript)
from semchan.wire import SYNC, crc16, encode, receive

from genprops import corpus, gen_proposition

ON112 = parse_proposition("ON(112)")


def test_perfect_transmit_identity():
    c = make_channel({"kind": "perfect"})
    out = transmit(c, ON112)
    assert out.ok and equivalent(out.recv_proposition, ON112)
    assert out.sent_bits == out.recv_bits


def test_perfect_transmit_identity_bulk():
    c = make_channel({"kind": "perfect"})
    for p in corpus(seed=606, count=10_000):
        out = transmit(c, p)
        assert out.ok and equivalent(out.recv_proposition, p)


def test_default_channel_is_perfect():
    assert make_channel({}).ts.kind == "perfect"


def test_bitflip_deterministic_per_counter():
    a = make_channel({"kind": "bitflip", "p": 0.5, "seed": 42})
    b = make_channel({"kind": "bitflip", "p": 0.5, "seed": 42})
    out_a = transmit(a, ON112)
    out_b = transmit(b, ON112)
    assert out_a.recv_bits == out_b.recv_bits
    # second use differs in counter, so usually in output
    out_a2 = transmit(a, ON112)
    assert out_a2.n == 1


def test_bitflip_p0_equals_perfect():
    flip = make_channel({"kind": "bitflip", "p": 0.0, "seed": 9})
    perf = make_channel({"kind": "perfect"})
    for p in corpus(seed=707, count=50):
        ta = transmit(flip, p)
        tb = transmit(perf, p)
        assert ta.recv_bits == tb.recv_bits == ta.sent_bits


def test_bitflip_p1_inverts_every_bit():
    c = make_channel({"kind": "bitflip", "p": 1.0, "seed": 1})
    out = transmit(c, ON112)
    sent, recv = out.sent_bits, out.recv_bits
    assert all(s != r for s, r in zip(sent, recv))
    assert not out.ok  # sync word destroyed


def test_truncate_shorter_than_header_is_decode_error():
    c = make_channel({"kind": "truncate", "max_bits": 8})
    out = transmit(c, ON112)
    assert not out.ok
    assert "no frame recovered" in out.error


def test_truncate_zero_drops_everything():
    c = make_channel({"kind": "truncate", "max_bits": 0})
    out = transmit(c, ON112)
    assert not out.ok
    assert out.recv_bits == ""


def test_truncate_long_enough_passes():
    wire_len = len(frame_to_wire(encode_frame(ON112))) * 8
    c = make_channel({"kind": "truncate", "max_bits": wire_len})
    out = transmit(c, ON112)
    assert out.ok and equivalent(out.recv_proposition, ON112)


def test_truncate_can_leave_one_frame_among_diagnostics():
    # an index predicate whose bytes hold ON(112)'s whole wire frame: cut
    # inside the outer frame, the stream still carries the inner one
    index = int.from_bytes(b"\x01" + frame_to_wire(encode_frame(ON112)), "big")
    p = Proposition(True, PredicateCode(index), ObjectRef.num(1))
    c = make_channel({"kind": "truncate", "max_bits": 240})
    out = transmit(c, p)
    assert out.recv_proposition is None and not out.ok
    assert out.error == "expected one clean frame, got 1 with 3 diagnostics"


def test_substitute_bijection_roundtrip_fails_decode_but_is_injective():
    # swap two byte values; wire bytes change, so decode diverges
    c = make_channel({"kind": "substitute", "map": {0xA5: 0x5A, 0x5A: 0xA5}})
    out = transmit(c, ON112)
    assert not out.ok
    report = verify_activeness(c.ts, [ON112])
    assert report.injective


def test_substitute_rejects_non_bijection():
    with pytest.raises(ChannelConfigError):
        make_channel({"kind": "substitute", "map": {1: 0, 2: 0}})


def test_substitute_reads_ints_and_ascii_digit_strings_alike():
    table = SubstituteTS({65: 66, 66: 65}).table
    for mapping in ({"65": 66, "66": 65}, {"65": "66", 66: "065"}):
        assert SubstituteTS(mapping).table == table
    shuffled = list(range(256))
    random.Random(5).shuffle(shuffled)
    as_json = json.loads(json.dumps(dict(enumerate(shuffled))))
    assert SubstituteTS(as_json).table == bytes(shuffled)


@pytest.mark.parametrize("p", [0, 1, 0.25])
def test_bitflip_p_is_a_json_number(p):
    assert make_channel({"kind": "bitflip", "p": p}).ts.p == float(p)


def test_unknown_kind_rejected():
    with pytest.raises(ChannelConfigError):
        make_channel({"kind": "wormhole"})


def test_bad_probability_rejected():
    with pytest.raises(ChannelConfigError):
        make_channel({"kind": "bitflip", "p": 1.5})


def test_activeness_perfect_analytic():
    report = verify_activeness(PerfectTS(), corpus(seed=808, count=20))
    assert report.injective and report.analytic


def test_activeness_substitute_analytic():
    ts = SubstituteTS({0: 1, 1: 0})
    assert verify_activeness(ts, [ON112]).injective


@pytest.mark.parametrize("config, invertible", [
    ({"kind": "perfect"}, True),
    ({"kind": "bitflip", "p": 0.1, "seed": 3}, True),
    ({"kind": "substitute", "map": {"65": 66, "66": 65}}, True),
    ({"kind": "truncate", "max_bits": 8}, False),
])
def test_analytic_injective_means_invertible(config, invertible):
    ts = make_channel(config).ts
    assert ts.analytic_injective is (ts.invert is not None)
    assert ts.analytic_injective is invertible


class ConstantTS(TransmissionSystem):
    kind = "constant"

    def apply(self, data, n):
        return b"\x00" * 4


def test_activeness_constant_ts_collision():
    report = verify_activeness(
        ConstantTS(), [parse_proposition("ON(1)"), parse_proposition("ON(2)")])
    assert not report.injective
    assert report.collision == ("ON(1)", "ON(2)")


def test_activeness_empty_corpus_rejected():
    with pytest.raises(ValueError):
        verify_activeness(PerfectTS(), [])


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SEMCHAN_SEED", "99")
    c = make_channel({"kind": "bitflip", "p": 0.5, "seed": 1})
    assert c.ts.seed == 99


def test_seed_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("SEMCHAN_SEED", "abc")
    with pytest.raises(ChannelConfigError,
                       match="SEMCHAN_SEED must be an integer, got 'abc'"):
        make_channel({"kind": "bitflip", "p": 0.5, "seed": 1})


@pytest.mark.parametrize("seed", ["+5", "1_0", "\u0663", " 7", "7\n", ""])
def test_seed_env_takes_ascii_digits_only(monkeypatch, seed):
    monkeypatch.setenv("SEMCHAN_SEED", seed)
    with pytest.raises(ChannelConfigError,
                       match=f"SEMCHAN_SEED must be an integer, got {re.escape(repr(seed))}"):
        make_channel({"kind": "bitflip", "p": 0.5, "seed": 1})


@pytest.mark.parametrize("max_bits", [-1, "-1", -2**70])
def test_truncate_rejects_negative_max_bits(max_bits):
    with pytest.raises(ChannelConfigError,
                       match=f"^max_bits must be >= 0: {int(max_bits)}$"):
        make_channel({"kind": "truncate", "max_bits": max_bits})


def test_integer_strings_still_load(monkeypatch):
    monkeypatch.setenv("SEMCHAN_SEED", "-12")
    assert make_channel({"kind": "bitflip", "p": 0.5}).ts.seed == -12
    monkeypatch.delenv("SEMCHAN_SEED")
    assert make_channel({"kind": "bitflip", "p": 0.5, "seed": "0042"}).ts.seed == 42
    assert make_channel({"kind": "truncate", "max_bits": "512"}).ts.max_bits == 512


def test_transcript_jsonl_fields(tmp_path):
    c = make_channel({"kind": "perfect"})
    out = transmit(c, ON112)
    path = tmp_path / "t.jsonl"
    append_transcript(str(path), out)
    append_transcript(str(path), out)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"sent", "sent_bits", "recv_bits", "recv", "ts", "seed", "n"}
    assert rec["sent"] == "ON(112)" and rec["recv"] == "ON(112)"
    assert rec["ts"] == "perfect" and rec["n"] == 0


def test_replay_determinism_full_transcripts():
    cfgs = [
        {"kind": "perfect"},
        {"kind": "bitflip", "p": 0.3, "seed": 1234},
        {"kind": "truncate", "max_bits": 40},
    ]
    props = corpus(seed=909, count=30)
    for cfg in cfgs:
        runs = []
        for _ in range(2):
            c = make_channel(cfg)
            runs.append([transmit(c, p).to_json() for p in props])
        assert runs[0] == runs[1]


# Noise pinned to the `bitflip:<seed>:<use>` RNG stream: a faster
# implementation must reproduce these received bytes exactly, so every
# recorded transcript stays replayable.
GOLDEN_PROPS = [
    ON112,
    parse_proposition("~NT(*)"),
    parse_proposition("#77(5)"),
    Proposition(True, PredicateCode("Tr"),
                ObjectRef.nested(encode_frame(parse_proposition("~P(3)")))),
]

GOLDEN_BITFLIP = {
    (0.01, 0): [('a55a0100090100024f4e010001311537', 'a55a0100090100024f4e000001703533', 'a55a0100090100224f4e000001701537', 'a55a0100090100024f6e000441701537'), ('a55a0100080000024e54030000e093', 'a55a0100080000024e54020000a1b3', 'a55a0100080000224e54020000a193', 'a55a0100080000024e74020440a193'), ('a55a0100080101014d000101058d2d', 'a55a0100080101014d00000105cc0d', 'a55a0100080101214d00000105cc2d', 'a55a0100080101014d20000545cc2d'), ('a55a01001001000254720000084100015000000103447c', 'a55a010010010002547201000800200550000001034478', 'a55a01001001002254720100080000015000000103447c', 'a55a01001001000254520104480000015000000103447c')],
    (0.01, 7): [('a55a0100090100024f4e020001741537', 'a55a0100090100024f4e000001701537', 'a55a0100090100024f6e000001701437', 'a55a0100090140024f4e000001701537'), ('a55a0100080000024e54000000a593', 'a55a0100080000024e54020000a193', 'a55a0100080000024e74020000a192', 'a55a0100080040024e54020000a193'), ('a55a0100080101014d00020105c82d', 'a55a0100080101014d00000105cc2d', 'a55a0100080101014d20000105cc2c', 'a55a0100080141014d00000105cc2d'), ('a55a01001001000254720300080400015000000983447c', 'a55a01001001000254720100080000015000000103447c', 'a55a01001001000254520100080001015000000103447c', 'a55a01001001400254720100080000015000008103447c')],
    (0.01, 42): [('a55a0100090100024f4a000001701537', 'e55a0100010100024f4e000001701537', 'a15a0100090100024f4e000001701537', 'ad5a0100090100024f4e008001701577'), ('a55a0100080000024e50020000a193', 'e55a0100000000024e54020000a193', 'a15a0100080000024e54020000a193', 'ad5a0100080000024e54028000a193'), ('a55a0100080101014d04000105cc2d', 'e55a0100000101014d00000105cc2d', 'a15a0100080101014d00000105cc2d', 'ad5a0100080101014d00008105cc2d'), ('a55a01001001000254760100080000015000000103447c', 'e55a01001801000254720100080000015020000103447c', 'a15a01001001000254720100080000015000000103447c', 'ad5a01001001000254720180080000415000000103447c')],
    (0.3, 0): [('39d909ca0a286020648c078609037503', 'a31f8d4429451d45dbfe804a96323fb1', 'e95203a24e2d01225d5c504383035dd3', '0dd91da04b9a82635366400e4169066d'), ('39d909ca0b2960206596058608d2f3', 'a31f8d4428441d45dae4824a97e3b9', 'e95203a24f2c01225c46524382d2db', '0dd91da04a9b8263527c420e40b880'), ('39d909ca0b28612366c207870dbf4d', 'a31f8d4428451c46d9b0804b928e07', 'e95203a24f2d00215f12504287bf65', '0dd91da04a9a83605128400f45d53e'), ('39d909ca132860207fb00686007360355c498013858476', 'a31f8d4430451d45c0c2814a9f422a87c1094083434e90', 'e95203a2572d0122466051438a7348e575020c9512876c', '0dd91da0529a8263485a410e4819135b5e0d69454acc0f')],
    (0.3, 7): [('ad5a410819078a38cd0436021394313f', '857a05a008031108cc0e076225781d2e', 'a71b48594928c60b7f3e0900783004bb', '65c30b002011c8804d576d010e709d0d'), ('ad5a410818068a38cc1e34021245b7', '857a05a009021108cd14056224a99b', 'a71b48594829c60b7e240b0079e182', '65c30b002110c8804c4d6f010fa11b'), ('ad5a410818078b3bcf4a3603172809', '857a05a00903100bce40076321c425', 'a71b48594828c7087d7009017c8c3c', '65c30b002111c9834f196d000acca5'), ('ad5a410800078a38d63837021ae424097959008dd35438', '857a05a011031108d73206622c08081872040015918c1a', 'a71b48595028c60b640208007140118dd51c01c34b78be', '65c30b003911c880566b6c010700883bf8840287d34676')],
    (0.3, 42): [('a6c60d49011480c10dcaa08b051e5447', 'f19b0504030d49a25f4e40003175c472', 'b1ba8d420f422282cf085242089a9546', 'ff5f41804dd1500a476c7ee82d420071'), ('a6c60d49001580c10cd0a28b04cfd2', 'f19b0504020c49a25e54420030a442', 'b1ba8d420e432282ce125042094b13', 'ff5f41804cd0500a46767ce82c9386'), ('a6c60d49001481c20f84a08a01a26c', 'f19b0504020d48a15d00400135c9fc', 'b1ba8d420e422381cd4652430c26ad', 'ff5f41804cd1510945227ee929fe38'), ('a6c60d49181480c116f6a18b0c6e41714944a1631bc47c', 'f19b05041a0d49a2447241003805d14448a6400300543c', 'b1ba8d4216422282d434534201ea8070780048012f4574', 'ff5f418054d1500a5c507fe8243215473e5cd0451b047e')],
}


@pytest.mark.parametrize("p,seed", sorted(GOLDEN_BITFLIP))
def test_bitflip_golden_recv_bytes(p, seed):
    got = []
    for prop in GOLDEN_PROPS:
        c = make_channel({"kind": "bitflip", "p": p, "seed": seed})
        got.append(tuple(transmit(c, prop).recv_bytes.hex()
                         for _ in range(4)))
    assert got == GOLDEN_BITFLIP[(p, seed)]


def bitflip_reference(data: bytes, p: float, seed: int, n: int) -> bytes:
    """The original per-bit loop: one draw per bit, in bit order."""
    if p == 0.0:
        return data
    rng = random.Random(f"bitflip:{seed}:{n}")
    out = bytearray(data)
    for i in range(len(out) * 8):
        if rng.random() < p:
            out[i // 8] ^= 0x80 >> (i % 8)
    return bytes(out)


def truncate_reference(data: bytes, max_bits: int) -> bytes:
    """The original bit-string truncation, zero-padding a partial byte."""
    bits = "".join(format(b, "08b") for b in data)
    if len(bits) <= max_bits:
        return data
    kept = bits[:max_bits]
    padded = kept + "0" * (-len(kept) % 8)
    return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64),
       p=st.one_of(st.sampled_from([0.0, 1.0, 0.01, 0.5]),
                   st.floats(min_value=0.0, max_value=1.0)),
       seed=st.integers(min_value=-2**63, max_value=2**63),
       n=st.integers(min_value=0, max_value=10**9))
def test_bitflip_matches_per_bit_reference(data, p, seed, n):
    assert BitFlipTS(p, seed).apply(data, n) == bitflip_reference(data, p, seed, n)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=40))
def test_truncate_matches_bit_string_reference(data):
    for max_bits in range(len(data) * 8 + 10):
        assert TruncateTS(max_bits).apply(data, 0) == truncate_reference(data, max_bits)


@settings(max_examples=200)
@given(st.binary(max_size=300))
@example(b"")
@example(b"\x01")
@example(bytes(range(256)))
def test_bytes_to_bits_matches_per_byte_form(data):
    assert _bytes_to_bits(data) == "".join(format(b, "08b") for b in data)


TRANSCRIPT_CFGS = [
    {"kind": "perfect"},
    {"kind": "bitflip", "p": 0.05, "seed": 5},
    {"kind": "truncate", "max_bits": 150},
]


def test_transcript_json_digest_pinned():
    h = hashlib.sha256()
    props = corpus(seed=2024, count=200)
    for cfg in TRANSCRIPT_CFGS:
        c = make_channel(cfg)
        for p in props:
            h.update(json.dumps(transmit(c, p).to_json()).encode())
    assert h.hexdigest() == (
        "8c4bd1b3946b2830ba29dbd4c9865f66ec5b0f46545621a91a61bdfcc20bd7db")


def test_activeness_bitflip_analytic():
    report = verify_activeness(BitFlipTS(0.2, 7), corpus(seed=809, count=20))
    assert report.injective and report.analytic


@settings(max_examples=200)
@given(st.sampled_from([0.01, 0.2, 0.5, 1.0]), st.integers(0, 2**32),
       st.integers(0, 50), st.binary(min_size=1, max_size=32), st.data())
def test_bitflip_mask_does_not_depend_on_data(p, seed, n, data, draw):
    # what makes every bit-flip use a bijection: one fixed XOR mask per
    # (seed, use, length)
    other = draw.draw(st.binary(min_size=len(data), max_size=len(data)))
    ts = BitFlipTS(p, seed)
    mask = bytes(a ^ b for a, b in zip(data, ts.apply(data, n)))
    assert bytes(a ^ b for a, b in zip(other, ts.apply(other, n))) == mask


# Reference transmit: transmit as it was before the untouched-stream
# shortcut, scanning every stream it receives.  The property below requires
# transmit to match it transcript for transcript, so the shortcut changes
# nothing a caller can see.

def reference_transmit(c: Channel, p: Proposition) -> Transcript:
    n = c.uses
    c.uses += 1
    sent_bytes = encode(p)
    recv_bytes = c.ts.apply(sent_bytes, n)
    props, diags = receive(recv_bytes)
    recv_prop = error = None
    if len(props) == 1 and not diags:
        recv_prop = props[0]
    elif props:
        error = f"expected one clean frame, got {len(props)} with {len(diags)} diagnostics"
    else:
        detail = "; ".join(map(str, diags))
        error = f"no frame recovered ({detail or 'empty stream'})"
    return Transcript(p, recv_prop, sent_bytes, recv_bytes, error, c.ts.kind,
                      c.ts.seed, n)


class NegatingTS(TransmissionSystem):
    """Returns a different frame of the same length: the polarity byte
    flipped under a recomputed CRC, so the stream still scans clean."""

    kind = "negating"

    def apply(self, data, n):
        if len(data) < 8:
            return data
        framed = data[2:5] + bytes([data[5] ^ 1]) + data[6:-2]
        return SYNC + framed + crc16(framed).to_bytes(2, "big")


def untouched_shortcut_channels(first: bytes) -> list:
    """Every TS kind, with parameters that return the sent bytes on some
    uses and not on others; truncation is set against the first frame."""
    configs = [{"kind": "perfect"}]
    configs += [{"kind": "bitflip", "p": p, "seed": seed}
                for p in (0, 0.01, 0.5) for seed in (0, 1, 7, 42)]
    configs += [{"kind": "truncate", "max_bits": bits}
                for bits in (0, 192, 8 * len(first), 8 * len(first) - 1)]
    configs += [{"kind": "substitute", "map": m}
                for m in ({65: 65}, {65: 66, 66: 65}, {0xA5: 0x5A, 0x5A: 0xA5})]
    return [make_channel(cfg) for cfg in configs] + [Channel(NegatingTS())]


GENPROPS = st.integers(0, 2**32).map(lambda s: gen_proposition(random.Random(s)))


@settings(max_examples=60, deadline=None)
@example([ON112, parse_proposition("AB(1)"), parse_proposition("~NT(*)")])
@given(st.lists(GENPROPS, min_size=1, max_size=4))
def test_transmit_matches_reference_that_always_scans(props):
    for c in untouched_shortcut_channels(encode(props[0])):
        ref = Channel(c.ts)
        for p in props:
            got, want = transmit(c, p), reference_transmit(ref, p)
            assert got == want
            assert got.to_json() == want.to_json()
        assert c.uses == ref.uses == len(props)


@settings(max_examples=60, deadline=None)
@example([ON112, parse_proposition("AB(1)"), parse_proposition("~NT(*)")])
@given(st.lists(GENPROPS, min_size=1, max_size=4))
def test_transmit_hands_back_the_sent_object_exactly_when_untouched(props):
    # the untouched stream's early return passes p itself; a scanned stream
    # builds a new proposition, even one equal to p (the negating system
    # returns a frame of the same length)
    for c in untouched_shortcut_channels(encode(props[0])):
        for p in props:
            t = transmit(c, p)
            assert (t.recv_proposition is p) == (t.recv_bytes == t.sent_bytes)
