import random
import re

import pytest
from hypothesis import given, strategies as st

from semchan import (
    ObjectRef,
    PredicateCode,
    Proposition,
    World,
    encode_frame,
    equivalent,
    holds,
    negate,
    parse_proposition,
    render_proposition,
)
from semchan.model import InconsistentWorldError, PropositionSyntaxError, load_world
from semchan.wire import encode, receive

from genprops import corpus, gen_proposition
from test_wire import outcome

names = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-",
    min_size=1, max_size=12)
predicates = st.builds(PredicateCode, names)
numbers = st.integers(min_value=1, max_value=2**64 - 1)
ground_objects = st.one_of(
    st.builds(ObjectRef.num, numbers),
    st.just(ObjectRef.all_objects()),
)
ground_props = st.builds(Proposition, st.booleans(), predicates, ground_objects)


def test_parse_basic():
    p = parse_proposition("ON(112)")
    assert p == Proposition(True, PredicateCode("ON"), ObjectRef.num(112))


def test_parse_negated():
    assert parse_proposition("~ON(112)") == negate(parse_proposition("ON(112)"))


def test_parse_all_objects():
    p = parse_proposition("NT(*)")
    assert p.polarity and p.predicate == PredicateCode("NT")
    assert p.object.kind == "all"
    assert p.predicate.is_builtin


def test_parse_nested_hex_roundtrip():
    from semchan.wire import body_bytes

    inner = encode_frame(parse_proposition("ON(112)"))
    text = f"NT(<{body_bytes(inner).hex()}>)"
    p = parse_proposition(text)
    assert p.object.kind == "nested"
    assert encode_frame(p.object.inner) == inner
    assert render_proposition(p) == text


def test_parse_rejects_literal_zero():
    with pytest.raises(PropositionSyntaxError):
        parse_proposition("P(0)")


@pytest.mark.parametrize("bad", ["", "P", "P(", "P()", "(3)", "P(x)", "P(3) junk"])
def test_parse_syntax_errors(bad):
    with pytest.raises(PropositionSyntaxError):
        parse_proposition(bad)


@pytest.mark.parametrize("body, reason", [
    ("010002fffe00000170", "bad predicate name bytes"),
    ("010041" + "41" * 65 + "00000170", "bad predicate name bytes"),
    ("0100015000000901" + "00" * 8, "number object out of range 1..2^64-1"),
], ids=["non-ascii-name", "name-too-long", "number-above-2-64"])
def test_parse_rejects_nested_frame_that_does_not_decode(body, reason):
    with pytest.raises(PropositionSyntaxError,
                       match="^" + re.escape(f"nested frame does not decode: {reason}")):
        parse_proposition(f"NT(<{body}>)")


@pytest.mark.parametrize("text, message, offset", [
    ("NT(<01>)", "BODY shorter than fixed header", 3),
    ("~Tr(<0200015000000170>)", "bad POL byte 0x02", 4),
    ("#12(<01000150030001>)", "truncated object field", 4),
    ("Err(<0100015003000170>)", "bad OTAG byte 0x03", 4),
    ("NT(<0100015000000170ff>)", "trailing bytes in nested frame", 3),
    ("NT(<zz>)",
     "bad nested hex: non-hexadecimal number found in fromhex() arg at position 0", 3),
], ids=["short", "pol", "truncated-object", "otag", "trailing", "not-hex"])
def test_parse_nested_grammar_error_carries_offset(text, message, offset):
    with pytest.raises(PropositionSyntaxError) as info:
        parse_proposition(text)
    assert str(info.value) == f"{message} (at byte {offset})"
    assert info.value.offset == offset


@pytest.mark.parametrize("text, message, offset", [
    ("P(\u0663)", "bad object: '\u0663'", 2),
    ("#\u0663(1)", "expected predicate index after '#'", 0),
    ("P(\u00b2)", "bad object: '\u00b2'", 2),
], ids=["arabic-indic-number", "arabic-indic-index", "superscript-number"])
def test_parse_rejects_non_ascii_digits(text, message, offset):
    with pytest.raises(PropositionSyntaxError) as info:
        parse_proposition(text)
    assert str(info.value) == f"{message} (at byte {offset})"
    assert info.value.offset == offset


@given(ground_props)
def test_render_parse_fixed_point(p):
    assert parse_proposition(render_proposition(p)) == p


def test_render_parse_fixed_point_nested():
    for p in corpus(seed=11, count=200):
        assert parse_proposition(render_proposition(p)) == p


@given(ground_props)
def test_negate_involution(p):
    assert negate(negate(p)) == p


@given(ground_props, ground_props, ground_props)
def test_equivalent_is_equivalence_relation(p, q, r):
    assert equivalent(p, p)
    assert equivalent(p, q) == equivalent(q, p)
    if equivalent(p, q) and equivalent(q, r):
        assert equivalent(p, r)


def test_equivalent_distinguishes_nested_frames():
    f1 = encode_frame(parse_proposition("ON(112)"))
    f2 = encode_frame(parse_proposition("ON(113)"))
    p = Proposition(True, PredicateCode("NT"), ObjectRef.nested(f1))
    q = Proposition(True, PredicateCode("NT"), ObjectRef.nested(f2))
    assert not equivalent(p, q)


def test_predicate_validation():
    with pytest.raises(ValueError):
        PredicateCode("")
    with pytest.raises(ValueError):
        PredicateCode("a" * 65)
    with pytest.raises(ValueError):
        PredicateCode("has space")
    with pytest.raises(ValueError):
        PredicateCode(0)
    assert not PredicateCode("nt").is_builtin  # case-sensitive
    assert PredicateCode("Err").is_builtin


def test_object_validation():
    with pytest.raises(ValueError):
        ObjectRef.num(0)
    with pytest.raises(ValueError):
        ObjectRef.num(2**64)


@pytest.mark.parametrize("build, got", [
    (lambda: PredicateCode(True), "must be str or int, got <class 'bool'>"),
    (lambda: ObjectRef.num(True), "must be an int, got <class 'bool'>"),
    (lambda: ObjectRef("number", 5.0), "must be an int, got <class 'float'>"),
    (lambda: World.build({1.5}, {(PredicateCode("P"), 1.5, True)}), "<class 'float'>"),
    (lambda: World.build({True}, set()), "<class 'bool'>"),
    (lambda: World.build({0, 2.0}, set()), "<class 'float'>"),  # before range
    (lambda: Proposition(2, PredicateCode("P"), ObjectRef.num(1)),
     "polarity must be a bool, got <class 'int'>"),
    (lambda: Proposition(1, PredicateCode("P"), ObjectRef.num(1)),
     "polarity must be a bool, got <class 'int'>"),
], ids=["index-bool", "number-bool", "number-float", "domain-float", "domain-bool",
        "domain-float-and-zero", "polarity-two", "polarity-one"])
def test_model_takes_exact_ints(build, got):
    # True == 1, but #True(True) would render and not parse back; a polarity
    # of 2 renders and encodes as True, yet is != it
    with pytest.raises(TypeError, match=re.escape(got)):
        build()


def nested_chain(depth):
    """P(1) nested depth times under Q, built past the encoding's own cap."""
    p = parse_proposition("P(1)")
    for _ in range(depth):
        p = Proposition(True, PredicateCode("Q"), ObjectRef("nested", 0, p))
    return p


@pytest.mark.parametrize("build, error, message", [
    (lambda: ObjectRef("number", 5, parse_proposition("P(1)")), ValueError,
     "number object cannot nest a proposition"),
    (lambda: ObjectRef("all", 3), ValueError, "all-objects marker carries no payload"),
    (lambda: ObjectRef("all", 0, parse_proposition("P(1)")), ValueError,
     "all-objects marker carries no payload"),
    (lambda: ObjectRef("nested", 0, None), TypeError,
     "nested object requires a Proposition"),
    (lambda: ObjectRef("nested", 0, nested_chain(8)), ValueError,
     "nesting depth exceeds 8"),
    (lambda: ObjectRef("frame"), ValueError, "unknown object kind: 'frame'"),
], ids=["number-with-inner", "all-with-number", "all-with-inner", "nested-without-inner",
        "nested-too-deep", "unknown-kind"])
def test_object_ref_rejects_a_payload_its_kind_does_not_carry(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        build()


def test_object_ref_nests_up_to_the_depth_cap():
    assert ObjectRef("nested", 0, nested_chain(7)).depth == 8


def test_nesting_depth_cap():
    f = encode_frame(parse_proposition("P(1)"))
    for _ in range(7):
        f = encode_frame(Proposition(True, PredicateCode("Q"), ObjectRef.nested(f)))
    with pytest.raises(ValueError):
        ObjectRef.nested(
            encode_frame(Proposition(True, PredicateCode("Q"), ObjectRef.nested(f))))


P = PredicateCode("P")
ON = PredicateCode("ON")


def test_holds_direct_membership():
    w = World.build({112}, {(ON, 112, True)})
    assert holds(w, parse_proposition("ON(112)"))
    assert not holds(w, parse_proposition("~ON(112)"))
    assert not holds(w, parse_proposition("ON(7)"))


def test_holds_all_objects_conjunction():
    w = World.build({1, 2}, {(P, 1, True), (P, 2, True)})
    assert holds(w, parse_proposition("P(*)"))
    w2 = World.build({1, 2}, {(P, 1, True)})
    assert not holds(w2, parse_proposition("P(*)"))


def test_holds_all_negative_polarity():
    w = World.build({1, 2}, {(P, 1, False), (P, 2, False)})
    assert holds(w, parse_proposition("~P(*)"))
    assert not holds(w, parse_proposition("P(*)"))


def test_holds_all_equals_conjunction_brute_force():
    # every subset assignment over domains of size <= 6
    for size in range(1, 7):
        domain = set(range(1, size + 1))
        for mask in range(3 ** min(size, 4)):
            lits = set()
            m = mask
            for obj in sorted(domain)[:4]:
                state = m % 3
                m //= 3
                if state == 1:
                    lits.add((P, obj, True))
                elif state == 2:
                    lits.add((P, obj, False))
            w = World.build(domain, lits)
            for pol in (True, False):
                expected = all(
                    holds(w, Proposition(pol, P, ObjectRef.num(obj)))
                    for obj in domain)
                got = holds(w, Proposition(pol, P, ObjectRef.all_objects()))
                assert got == expected


def test_holds_rejects_builtin_and_nested():
    w = World.build({1}, set())
    with pytest.raises(ValueError):
        holds(w, parse_proposition("NT(1)"))
    nested = Proposition(
        True, P, ObjectRef.nested(encode_frame(parse_proposition("P(1)"))))
    with pytest.raises(ValueError):
        holds(w, nested)


def test_world_rejects_inconsistency():
    with pytest.raises(InconsistentWorldError):
        World.build({1}, {(P, 1, True), (P, 1, False)})


def test_world_rejects_foreign_object():
    with pytest.raises(ValueError):
        World.build({1}, {(P, 2, True)})


@pytest.mark.parametrize("domain, bad", [
    ({0, 2**70}, 0), ({1, 2**64}, 2**64), ({-3, 5}, -3)])
def test_world_rejects_object_numbers_out_of_range(domain, bad):
    with pytest.raises(ValueError,
                       match=re.escape(f"object number out of range 1..2^64-1: {bad}")):
        World.build(domain, {(P, min(domain), True)})
    assert World.build({1, 2**64 - 1}, set()).domain == {1, 2**64 - 1}


@given(st.integers(0, 2**32 - 1))
def test_separately_built_copies_hash_equal_and_find_the_entry(seed):
    p = gen_proposition(random.Random(seed))
    # p itself, and p as a nested object, so every draw has a nested one
    for q in (p, Proposition(not p.polarity, p.predicate,
                             ObjectRef.nested(encode_frame(p)))):
        table = {q: seed}
        for copy in (parse_proposition(render_proposition(q)), receive(encode(q))[0][0]):
            assert copy is not q and copy == q and hash(copy) == hash(q)
            assert table[copy] == seed


def test_load_world(tmp_path):
    path = tmp_path / "w.world"
    path.write_text(
        "# comment\n"
        "domain: 1 14 112\n"
        "ON(112)\n"
        "~AC-Fail(14)  # inline comment\n"
    )
    w = load_world(str(path))
    assert w.domain == {1, 14, 112}
    assert holds(w, parse_proposition("ON(112)"))
    assert holds(w, parse_proposition("~AC-Fail(14)"))


def test_load_world_keeps_the_inconsistency_type(tmp_path):
    path = tmp_path / "w.world"
    path.write_text("domain: 1\nP(1)\n~P(1)\n")
    with pytest.raises(InconsistentWorldError,
                       match=re.escape(f"{path}:3: both polarities asserted for P(1)")):
        load_world(str(path))


def test_load_world_reads_index_predicates(tmp_path):
    path = tmp_path / "w.world"
    path.write_text(
        "# '#' and a digit spell an index predicate; any other '#' a comment\n"
        "domain: 1 2 3\n"
        "#5(1)\n"
        "~#5(2)\n"
        "#7(3)  # note after an index literal\n"
        "#comment right after the hash\n"
    )
    w = load_world(str(path))
    assert w.literals == {(PredicateCode(5), 1, True),
                          (PredicateCode(5), 2, False),
                          (PredicateCode(7), 3, True)}
    assert holds(w, parse_proposition("#5(1)"))
    assert holds(w, parse_proposition("~#5(2)"))
    assert not holds(w, parse_proposition("#5(2)"))


def test_load_world_hash_before_a_non_ascii_digit_is_a_comment(tmp_path):
    path = tmp_path / "w.world"
    path.write_text("domain: 1\nP(1)  #\u0663 note\n#\u0663(1)\n", encoding="utf-8")
    assert load_world(str(path)).literals == {(P, 1, True)}


def test_index_predicate_conflict_is_spelled_as_in_the_grammar(tmp_path):
    path = tmp_path / "w.world"
    path.write_text("domain: 1\n#5(1)\n~#5(1)\n")
    with pytest.raises(InconsistentWorldError,
                       match=re.escape(f"{path}:3: both polarities asserted for #5(1)")):
        load_world(str(path))
    with pytest.raises(InconsistentWorldError,
                       match=re.escape("both polarities asserted for #5(1)")):
        World.build({1}, {(PredicateCode(5), 1, True), (PredicateCode(5), 1, False)})


def test_load_world_requires_header(tmp_path):
    path = tmp_path / "w.world"
    path.write_text("ON(112)\n")
    with pytest.raises(ValueError):
        load_world(str(path))


# Reference copies of World's literal check and of holds as they were when
# holds looked each signed literal up in the frozenset, except that the
# check spells an index predicate as the grammar does ('#5', not 'P_5');
# the property below pins the current World and holds to them value for
# value and error for error.


def reference_world_check(domain, literals):
    for pred, obj, pol in literals:
        if obj not in domain:
            raise ValueError(f"literal object {obj} not in domain")
        if (pred, obj, not pol) in literals:
            spelling = pred.value if pred.is_name else f"#{pred.value}"
            raise InconsistentWorldError(
                f"both polarities asserted for {spelling}({obj})"
            )


def reference_holds(w, p):
    if p.predicate.is_builtin:
        raise ValueError(
            f"builtin predicate {p.predicate} is channel-relative, "
            "not world-evaluable"
        )
    if p.object.kind == "nested":
        raise ValueError("nested-frame objects have no world semantics")
    if p.object.kind == "number":
        return (p.predicate, p.object.number, p.polarity) in w.literals
    return all(
        (p.predicate, m, p.polarity) in w.literals for m in w.domain
    )


# names and indices side by side, "5" beside 5, and a builtin name that a
# world may list but holds must refuse
WORLD_PREDICATES = [PredicateCode("P"), PredicateCode("Q-2"), PredicateCode("5"),
                    PredicateCode(5), PredicateCode(1), PredicateCode("NT")]
world_predicates = st.sampled_from(WORLD_PREDICATES)
world_objects = st.one_of(st.integers(1, 6), st.just(2**64 - 1))
literal_cells = st.tuples(world_predicates, world_objects)


@st.composite
def world_inputs(draw):
    """A domain and a literal set: consistent and in the domain, or not."""
    domain = draw(st.frozensets(world_objects, max_size=6))
    cells = draw(st.dictionaries(literal_cells, st.booleans(), max_size=12))
    literals = {(pred, m, pol) for (pred, m), pol in cells.items()}
    if draw(st.booleans()):
        # keep the in-domain cells only, so that most such worlds load
        literals = {lit for lit in literals if lit[1] in domain}
    if draw(st.integers(0, 3)) == 0:
        pred, m = draw(literal_cells)
        literals |= {(pred, m, True), (pred, m, False)}
    return domain, frozenset(literals)


world_queries = st.builds(
    Proposition,
    st.booleans(),
    world_predicates,
    st.one_of(
        st.builds(ObjectRef.num, st.one_of(st.integers(1, 8), st.just(2**64 - 1))),
        st.just(ObjectRef.all_objects()),
        st.just(ObjectRef.nested(encode_frame(Proposition(
            True, PredicateCode("P"), ObjectRef.num(1))))),
    ),
)


@given(world_inputs(), st.lists(world_queries, max_size=10))
def test_world_and_holds_match_reference(inputs, queries):
    domain, literals = inputs
    want = outcome(reference_world_check, domain, literals)
    got = outcome(World, domain, literals)
    if want is not None:
        assert got == want
        return
    assert got == World(domain, literals)
    assert repr(got) == f"World(domain={domain!r}, literals={literals!r})"
    for p in queries:
        assert outcome(holds, got, p) == outcome(reference_holds, got, p)


@given(st.frozensets(st.integers(1, 6), max_size=6),
       st.dictionaries(
           st.tuples(st.one_of(world_predicates, predicates,
                               st.builds(PredicateCode, st.integers(1, 2**70))),
                     st.integers(1, 6)),
           st.booleans(), max_size=24))
def test_world_predicates_match_a_scan_of_the_literals(domain, cells):
    w = World.build(domain, {(pred, m, pol) for (pred, m), pol in cells.items()
                             if m in domain})
    assert w.predicates() == sorted({p for p, _, _ in w.literals}, key=str)


@pytest.mark.parametrize("pol", [True, False])
def test_all_objects_over_empty_domain_matches_reference(pol):
    w = World.build(set(), set())
    p = Proposition(pol, PredicateCode("P"), ObjectRef.all_objects())
    assert holds(w, p) is reference_holds(w, p) is True
