import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from semchan import (
    Frame,
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
    eval_Tr,
    find_fixed_point,
    make_channel,
    parse_proposition,
    payload_bits,
    transmit,
)
from semchan.diagonal import (
    ERR,
    EnumerationTable,
    FixedPointReport,
    ParadoxReport,
    TraceStep,
)
from semchan.transfer import NON_TRANSFERABLE, PARADOXICAL, TRANSFERABLE, Verdict
from semchan.wire import body_bytes

from test_wire import outcome

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


def reference_build_enumeration(preds, max_n):
    """build_enumeration over PredicateCode comparisons: the codes' own
    __eq__ and __hash__, not their values."""
    if not preds:
        raise ValueError("predicate list must be nonempty")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if len(set(preds)) != len(preds):
        raise ValueError("duplicate predicate in enumeration")
    full = list(preds)
    for builtin in (NT, TR):
        if builtin not in full:
            full.append(builtin)
    return EnumerationTable(tuple(full), max_n, full.index(NT) + 1,
                            full.index(TR) + 1)


# fresh codes on every draw, so no comparison is settled by identity; the
# index 5 sits beside the name "5", and NT/Tr beside other-case spellings
ENUM_PREDICATES = st.sampled_from(
    ["P", "Q", "5", "NT", "Tr", "Err", "nt", "TR", 5, 1, 2**64]).map(PredicateCode)


@settings(max_examples=300)
@example([PredicateCode(5), PredicateCode("5")], 1)
@example([PredicateCode("Tr"), PredicateCode(5), PredicateCode("NT")], 2)
@example([PredicateCode("5"), PredicateCode(5), PredicateCode("5")], 2)
@given(st.one_of(st.lists(ENUM_PREDICATES, max_size=8, unique=True),
                 st.lists(ENUM_PREDICATES, max_size=8)),
       st.integers(-1, 4))
def test_build_enumeration_matches_reference(preds, max_n):
    assert (outcome(build_enumeration, preds, max_n)
            == outcome(reference_build_enumeration, preds, max_n))


def test_build_B_structure():
    t = build_enumeration([P], 2)
    b1 = build_B(t, 1)
    p = decode_frame(b1)
    assert p.polarity and p.predicate == NT
    assert decode_frame(encode_frame(p.object.inner)) == Proposition(True, P, ObjectRef.num(1))


def test_build_Bprime_structure():
    t = build_enumeration([P], 2)
    bp1 = build_Bprime(t, 1)
    p = decode_frame(bp1)
    assert not p.polarity and p.predicate == TR
    assert decode_frame(encode_frame(p.object.inner)) == Proposition(False, P, ObjectRef.num(1))


def test_build_Bprime_nt_form_is_distinct():
    t = build_enumeration([P], 2)
    canonical = build_Bprime(t, 1)
    # the alternative (0, NT, nested (1, P_1, 1)) reading of B'(1)
    inner = encode_frame(Proposition(True, P, ObjectRef.num(1)))
    alt = encode_frame(Proposition(False, NT, ObjectRef.nested(inner)))
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
    inner = decode_frame(encode_frame(star.object.inner))
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


# Reference copies of the builders and the analyzer as they were when each
# nested row was built by encoding its inner proposition to a Frame and
# decoding it back through ObjectRef.nested; the properties below pin the
# current functions to them outcome for outcome and use for use.


def reference_build_B(t, n):
    if not 1 <= n <= len(t.predicates):
        raise IndexError(f"n out of range 1..{len(t.predicates)}: {n}")
    inner = encode_frame(Proposition(True, t.predicates[n - 1], ObjectRef.num(n)))
    return encode_frame(Proposition(True, NT, ObjectRef.nested(inner)))


def reference_build_Bprime(t, n):
    if not 1 <= n <= len(t.predicates):
        raise IndexError(f"n out of range 1..{len(t.predicates)}: {n}")
    inner = encode_frame(Proposition(False, t.predicates[n - 1], ObjectRef.num(n)))
    return encode_frame(Proposition(False, TR, ObjectRef.nested(inner)))


def reference_find_fixed_point(t):
    k, k_prime = t.k_nt, t.k_tr
    npred = len(t.predicates)
    if not (1 <= k <= npred and 1 <= k_prime <= npred):
        raise ValueError("NT/Tr missing from enumeration")
    left = reference_build_B(t, k)
    inner = encode_frame(Proposition(True, t.predicates[k - 1], ObjectRef.num(k)))
    right = encode_frame(Proposition(True, NT, ObjectRef.nested(inner)))

    left_p = reference_build_Bprime(t, k_prime)
    inner_p = encode_frame(
        Proposition(False, t.predicates[k_prime - 1], ObjectRef.num(k_prime)))
    right_p = encode_frame(Proposition(False, TR, ObjectRef.nested(inner_p)))

    return FixedPointReport(
        k=k,
        k_prime=k_prime,
        frame_star=left,
        frame_star_prime=left_p,
        identity_holds=body_bytes(left) == body_bytes(right),
        identity_prime_holds=body_bytes(left_p) == body_bytes(right_p),
    )


def reference_analyze_self_reference(c, f):
    p = decode_frame(f)
    if not p.predicate.is_builtin:
        raise ValueError(f"not a builtin self-referential frame: {p.predicate}")
    if p.object.kind == "number":
        raise ValueError("self-reference analysis needs object '*' or a nested frame")

    transcript = transmit(c, p)
    fidelity = transcript.transferred
    name = p.predicate.value
    asserted = p.polarity
    self_desc = "its own code" if p.object.kind == "all" else "the nested frame"

    observed = None
    trace = []
    if not fidelity:
        trace.append(TraceStep(
            "(i) received content is true",
            "no equivalent content was received; branch unreachable",
            True,
        ))
    else:
        target = f if p.object.kind == "all" else f.object_frame
        if name == "NT":
            observed = eval_NT(c, target)
        elif name == "Tr":
            observed = eval_Tr(c, target)
        else:
            if p.object.kind == "all":
                t = transcript
            else:
                t = transmit(c, p.object.inner)
            observed = t.sent_bytes != t.recv_bytes
        claim = f"{name} holds of {self_desc}" if asserted \
            else f"{name} fails of {self_desc}"
        trace.append(TraceStep(
            "(i) received content is true",
            f"content implies {claim}: asserted {name}={asserted}, "
            f"channel execution gives {name}={observed}",
            asserted != observed,
        ))
    branch_i_ok = trace[-1].contradiction is False

    if fidelity:
        trace.append(TraceStep(
            "(ii) frame was not transferred",
            "round trip reproduced the frame (structural fidelity holds)",
            True,
        ))
    else:
        trace.append(TraceStep(
            "(ii) frame was not transferred",
            "round trip failed to reproduce the frame; assumption consistent",
            False,
        ))
    branch_ii_ok = trace[-1].contradiction is False

    if not branch_i_ok and not branch_ii_ok:
        kind = PARADOXICAL
    elif branch_i_ok:
        kind = TRANSFERABLE
    else:
        kind = NON_TRANSFERABLE
    verdict = Verdict(
        kind,
        transcript,
        tuple(f"{s.assumption} -> {s.consequence}" for s in trace),
    )
    return ParadoxReport(
        frame=f,
        structural_fidelity=fidelity,
        asserted_self_instance=asserted,
        observed_self_instance=observed,
        case_trace=tuple(trace),
        verdict=verdict,
    )


def enumeration_tables(size):
    """Tables over size name and index predicates, with NT and Tr each
    absent or at every position."""
    rng = random.Random(size)
    for nt_at in (None, *range(size)):
        for tr_at in (None, *range(size)):
            if nt_at is not None and nt_at == tr_at:
                continue
            preds = []
            for i in range(size):
                if i == nt_at:
                    preds.append(NT)
                elif i == tr_at:
                    preds.append(TR)
                elif rng.random() < 0.3:
                    preds.append(PredicateCode(rng.choice((1, 2**64, 2**300)) + i))
                else:
                    preds.append(PredicateCode(f"P{i}"))
            yield build_enumeration(preds, 1 + size % 3)


def assert_builders_match_reference(t):
    assert outcome(find_fixed_point, t) == outcome(reference_find_fixed_point, t)
    for n in range(-1, len(t.predicates) + 2):
        assert outcome(build_B, t, n) == outcome(reference_build_B, t, n)
        assert outcome(build_Bprime, t, n) == outcome(reference_build_Bprime, t, n)


@pytest.mark.parametrize("size", range(1, 11))
def test_builders_match_reference(size):
    for t in enumeration_tables(size):
        assert_builders_match_reference(t)


@pytest.mark.parametrize("k_nt, k_tr", [
    (0, 0), (0, 2), (2, 0), (3, 2), (2, 4), (4, 3), (1, 1), (2, 3)])
def test_builders_match_reference_off_indices(k_nt, k_tr):
    assert_builders_match_reference(EnumerationTable((P, NT, TR), 1, k_nt, k_tr))


def nested_objects():
    """Inner propositions at nesting depths 1-3 of the outer object."""
    leaves = [parse_proposition(s) for s in ("P(3)", "~#7(*)", "NT(*)", "~Err(1)")]
    for leaf in leaves:
        yield leaf
        mid = Proposition(False, TR, ObjectRef.nested(encode_frame(leaf)))
        yield mid
        yield Proposition(True, Q, ObjectRef.nested(encode_frame(mid)))


BAD_NESTED = Frame(True, "name", b"\xff\xfe", "number", 112)

ANALYZED_FRAMES = [
    encode_frame(Proposition(pol, pred, obj))
    for pred in (NT, TR, ERR)
    for pol in (True, False)
    for obj in (ObjectRef.all_objects(),
                *(ObjectRef.nested(encode_frame(q)) for q in nested_objects()))
] + [
    encode_frame(parse_proposition("ON(112)")),
    encode_frame(parse_proposition("NT(3)")),
    encode_frame(parse_proposition("~#9(*)")),
    Frame(True, "name", b"Err", "nested", object_frame=BAD_NESTED),
    Frame(True, "name", b"NT", "nested", object_frame=Frame(
        False, "name", b"Tr", "nested", object_frame=BAD_NESTED)),
    Frame(True, "bogus", b"NT", "all"),
]

ANALYSIS_CHANNELS = [
    {"kind": "perfect"},
    {"kind": "bitflip", "p": 0.01, "seed": 5},
    {"kind": "bitflip", "p": 0.5, "seed": 5},
    {"kind": "bitflip", "p": 1.0, "seed": 5},
    {"kind": "truncate", "max_bits": 0},
    {"kind": "truncate", "max_bits": 40},
    {"kind": "truncate", "max_bits": 512},
    {"kind": "substitute", "map": {"78": 77, "77": 78}},
]


@pytest.mark.parametrize("config", ANALYSIS_CHANNELS,
                         ids=lambda cfg: "-".join(map(str, cfg.values()))[:24])
def test_analyze_self_reference_matches_reference(config):
    for f in ANALYZED_FRAMES:
        c, ref = make_channel(config), make_channel(config)
        for _ in range(3):
            assert (outcome(analyze_self_reference, c, f)
                    == outcome(reference_analyze_self_reference, ref, f))
            assert c.uses == ref.uses
