import hashlib
import json

import pytest

from semchan import (
    ObjectRef,
    PredicateCode,
    Proposition,
    analyze_self_reference,
    build_B,
    build_Bprime,
    build_Err_all,
    build_NT_all,
    build_enumeration,
    decode_frame,
    encode_frame,
    eval_NT,
    find_fixed_point,
    make_channel,
    parse_proposition,
    payload_bits,
)
from semchan.transfer import NON_TRANSFERABLE, PARADOXICAL, TRANSFERABLE
from semchan.wire import body_bytes

P = PredicateCode("P")
Q = PredicateCode("Q")
NT = PredicateCode("NT")
TR = PredicateCode("Tr")


def test_enumeration_appends_builtins():
    t = build_enumeration([P], 2)
    assert t.predicates == (P, NT, TR)
    assert (t.k_nt, t.k_tr) == (2, 3)


def test_enumeration_rows_cover_both_polarities_once():
    t = build_enumeration([P], 2)
    rows = list(t.rows())
    assert len(rows) == len(set(rows)) == 3 * 2 * 2
    assert Proposition(True, P, ObjectRef.num(1)) in rows
    assert Proposition(False, P, ObjectRef.num(2)) in rows


def test_enumeration_cell_count_two_predicates():
    t = build_enumeration([P, Q], 3)
    # brute count: (2 user + NT + Tr) predicates x 2 polarities x 3 objects
    assert len(list(t.rows())) == 4 * 2 * 3


def test_enumeration_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        build_enumeration([], 1)
    with pytest.raises(ValueError):
        build_enumeration([P, P], 1)
    with pytest.raises(ValueError):
        build_enumeration([P], 0)


def test_build_B_structure():
    t = build_enumeration([P], 2)
    b1 = build_B(t, 1)
    p = decode_frame(b1)
    assert p.polarity and p.predicate == NT
    assert decode_frame(p.object.frame) == Proposition(True, P, ObjectRef.num(1))


def test_build_Bprime_structure():
    t = build_enumeration([P], 2)
    bp1 = build_Bprime(t, 1)
    p = decode_frame(bp1)
    assert not p.polarity and p.predicate == TR
    assert decode_frame(p.object.frame) == Proposition(False, P, ObjectRef.num(1))


def test_build_Bprime_nt_form_is_distinct():
    t = build_enumeration([P], 2)
    canonical = build_Bprime(t, 1)
    alt = build_Bprime(t, 1, nt_form=True)
    assert decode_frame(alt).predicate == NT
    assert body_bytes(canonical) != body_bytes(alt)


def test_build_B_index_range():
    t = build_enumeration([P], 2)
    with pytest.raises(IndexError):
        build_B(t, 0)
    with pytest.raises(IndexError):
        build_B(t, 4)


def test_fixed_point_indices_by_brute_scan():
    t = build_enumeration([P, NT, TR], 3)
    report = find_fixed_point(t)
    assert report.k == [i + 1 for i, pr in enumerate(t.predicates) if pr == NT][0] == 2
    assert report.k_prime == 3


def test_fixed_point_byte_identity():
    for preds in ([P], [P, Q], [P, NT, TR]):
        report = find_fixed_point(build_enumeration(preds, 2))
        assert report.identity_holds
        assert report.identity_prime_holds


def test_fixed_point_frame_shape():
    t = build_enumeration([P], 2)
    report = find_fixed_point(t)
    star = decode_frame(report.frame_star)
    assert star.predicate == NT
    inner = decode_frame(star.object.frame)
    assert inner.predicate == NT and inner.object.number == report.k


def test_fixed_point_requires_builtins():
    from semchan.diagonal import EnumerationTable

    broken = EnumerationTable((P,), 1, 0, 0)
    with pytest.raises(ValueError):
        find_fixed_point(broken)


def test_build_all_frames():
    assert str(decode_frame(build_NT_all())) == "NT(*)"
    assert str(decode_frame(build_Err_all())) == "Err(*)"
    assert payload_bits(build_NT_all()) == "1" + "0100111001010100" + "0"


def test_liar_paradox_on_perfect_channel():
    c = make_channel({"kind": "perfect"})
    report = analyze_self_reference(c, build_NT_all())
    assert report.verdict.kind == PARADOXICAL
    assert report.structural_fidelity is True
    assert report.asserted_self_instance is True
    assert report.observed_self_instance is False
    assert len(report.case_trace) == 2
    assert report.case_trace[0].contradiction is True  # branch (i)
    assert report.case_trace[1].contradiction is True  # branch (ii)


def test_error_paradox_on_perfect_channel():
    c = make_channel({"kind": "perfect"})
    report = analyze_self_reference(c, build_Err_all())
    assert report.verdict.kind == PARADOXICAL
    assert all(s.contradiction for s in report.case_trace)


@pytest.mark.parametrize("name", ["NT", "Tr", "Err"])
def test_undecodable_nested_frame_is_value_error_before_transmit(name):
    from semchan.codec import Frame

    bad = Frame(True, "name", b"\xff\xfe", "number", 112)
    f = Frame(True, "name", name.encode(), "nested", object_frame=bad)
    c = make_channel({"kind": "perfect"})
    with pytest.raises(ValueError, match="^nested frame does not decode: "
                                         "bad predicate name bytes"):
        analyze_self_reference(c, f)
    assert c.uses == 0


def test_dropping_channel_yields_non_transferable_not_paradox():
    c = make_channel({"kind": "truncate", "max_bits": 0})
    report = analyze_self_reference(c, build_NT_all())
    assert report.verdict.kind == NON_TRANSFERABLE
    assert report.structural_fidelity is False
    assert "unreachable" in report.case_trace[0].consequence
    assert report.case_trace[1].contradiction is False


def test_tr_all_on_perfect_channel_is_consistent():
    c = make_channel({"kind": "perfect"})
    f = encode_frame(parse_proposition("Tr(*)"))
    report = analyze_self_reference(c, f)
    assert report.verdict.kind == TRANSFERABLE


def test_diagonal_frame_asserted_vs_actual_mismatch():
    c = make_channel({"kind": "perfect"})
    t = build_enumeration([P], 2)
    star = find_fixed_point(t).frame_star
    report = analyze_self_reference(c, star)
    assert report.structural_fidelity is True
    assert eval_NT(make_channel({"kind": "perfect"}), star.object_frame) is False
    assert report.observed_self_instance is False
    assert report.verdict.kind == PARADOXICAL


def test_non_builtin_frames_rejected():
    c = make_channel({"kind": "perfect"})
    with pytest.raises(ValueError):
        analyze_self_reference(c, encode_frame(parse_proposition("ON(112)")))
    with pytest.raises(ValueError):
        analyze_self_reference(c, encode_frame(parse_proposition("NT(3)")))


def test_paradox_report_json_has_trace():
    c = make_channel({"kind": "perfect"})
    doc = analyze_self_reference(c, build_NT_all()).to_json()
    assert doc["verdict"]["verdict"] == PARADOXICAL
    assert len(doc["case_trace"]) == 2
    assert all({"assumption", "consequence", "contradiction"} == set(s)
               for s in doc["case_trace"])


ERR_NESTED = encode_frame(Proposition(
    True, PredicateCode("Err"),
    ObjectRef.nested(encode_frame(parse_proposition("~P(3)")))))


@pytest.mark.parametrize("frame,kinds,digest", [
    (build_Err_all(), "NPNNPNPNNNNNPNPPNNNNNNPNNPPNNN",
     "0314d30db93e2116fecd1a1133b747244d6e5e3626a70e9eac7361119e681f75"),
    (ERR_NESTED, "NTNNNTNNNNNNNTNNNNNTNNNNNNNNNT",
     "ecd2e818a2d467d2ac354dbdf65b764dbbd095023f9f38b4d0747e9c11fbc3d1"),
])
def test_err_analyses_pinned_over_noisy_channel(frame, kinds, digest):
    # Err compares sent and received bytes; a low flip rate gives a mix
    # of all three verdicts across uses of one channel.
    c = make_channel({"kind": "bitflip", "p": 0.01, "seed": 3})
    reports = [analyze_self_reference(c, frame) for _ in range(30)]
    letter = {PARADOXICAL: "P", NON_TRANSFERABLE: "N", TRANSFERABLE: "T"}
    assert "".join(letter[r.verdict.kind] for r in reports) == kinds
    doc = json.dumps([r.to_json() for r in reports]).encode()
    assert hashlib.sha256(doc).hexdigest() == digest
