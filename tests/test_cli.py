import contextlib
import hashlib
import io
import json
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from genprops import gen_proposition
from semchan import (crc16, ground_corpus, load_world, make_channel, parse_proposition,
                     receive, render_proposition, verify_bridge)
from semchan.channel import load_channel
from semchan.cli import EXIT_IO, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from semchan.transfer import NON_TRANSFERABLE, PARADOXICAL, TRANSFERABLE
from semchan.wire import encode

FIG4_BITS = "101001111010011101110000"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def perfect_cfg(tmp_path):
    path = tmp_path / "perfect.json"
    path.write_text(json.dumps({"kind": "perfect"}))
    return str(path)


@pytest.fixture
def bitflip_cfg(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({"kind": "bitflip", "p": 1.0, "seed": 7}))
    return str(path)


@pytest.fixture
def world_file(tmp_path):
    path = tmp_path / "w.world"
    path.write_text("domain: 1 2\nP(1)\nP(2)\n~Q(1)\n")
    return str(path)


def test_encode_bits_golden(capsys):
    code, out, _ = run_cli(capsys, "encode", "ON(112)", "--format", "bits")
    assert code == 0
    assert out.strip() == FIG4_BITS


def test_encode_bits_negated(capsys):
    code, out, _ = run_cli(capsys, "encode", "~ON(112)", "--format", "bits")
    assert code == 0
    assert out.strip() == "0" + FIG4_BITS[1:]


def test_encode_hex_has_crc(capsys):
    from semchan import encode_frame, frame_to_wire, parse_proposition

    code, out, _ = run_cli(capsys, "encode", "NT(*)", "--format", "hex")
    assert code == 0
    expected = frame_to_wire(encode_frame(parse_proposition("NT(*)"))).hex()
    assert out.strip() == expected


def test_encode_json_single_document(capsys):
    code, out, _ = run_cli(capsys, "encode", "ON(112)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"proposition": "ON(112)", "format": "bits",
                   "encoded": FIG4_BITS}


def test_encode_parse_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "encode", "P(0)")
    assert code == 2
    assert err


def test_decode_roundtrip(capsys):
    from semchan import encode_frame, frame_to_wire, parse_proposition

    wire_hex = frame_to_wire(encode_frame(parse_proposition("~AC-Fail(14)"))).hex()
    code, out, _ = run_cli(capsys, "decode", wire_hex)
    assert code == 0
    assert out.strip() == "~AC-Fail(14)"


def test_decode_garbage_exit_2(capsys):
    code, _, _ = run_cli(capsys, "decode", "0011")
    assert code == 2


def test_decode_bad_hex_exit_2(capsys):
    code, out, err = run_cli(capsys, "decode", "zz")
    assert code == 2
    assert out == ""
    assert err.startswith("bad hex: ")


ON112_HEX = "a55a0100090100024f4e000001701537"
# ON(112) with name bytes ff fe: CRC-valid, undecodable
BAD_NAME_HEX = "a55a010009010002fffe00000170c0a5"
# NT(<010002fffe00000170>): CRC-valid, the nested frame's name bytes are ff fe
BAD_NESTED_HEX = "a55a0100110100024e54010009010002fffe000001705ad8"


@pytest.mark.parametrize("stream, code, lines", [
    (BAD_NAME_HEX + ON112_HEX, 0, ["ON(112)", "undecodable@0: "]),
    (BAD_NESTED_HEX, 2, ["undecodable@0: nested frame does not decode: "]),
    (BAD_NESTED_HEX + ON112_HEX, 0,
     ["ON(112)", "undecodable@0: nested frame does not decode: "]),
], ids=["bad-name", "bad-nested-alone", "bad-nested-beside-valid"])
def test_decode_keeps_valid_frame_beside_undecodable(capsys, stream, code, lines):
    got, out, _ = run_cli(capsys, "decode", stream)
    assert got == code
    out_lines = out.splitlines()
    assert len(out_lines) == len(lines)
    for line, prefix in zip(out_lines, lines):
        assert line.startswith(prefix)


@pytest.mark.parametrize("stream, offset", [
    (BAD_NAME_HEX + ON112_HEX, 0),
    (ON112_HEX + BAD_NAME_HEX, 16),
])
def test_receiver_reports_undecodable_frame_by_offset(stream, offset):
    from semchan.cli import handle_stream

    lines, code = handle_stream(bytes.fromhex(stream))
    assert code == 1
    assert lines[0] == "ON(112)"
    assert lines[1].startswith(f"frame {offset}: undecodable (bad predicate name")


def long_number_wire(size: int) -> bytes:
    """A CRC-valid frame of P(n) for an n of size bytes, out of range."""
    body = b"\x01\x00\x01P\x00" + size.to_bytes(2, "big") + b"\xff" * size
    head = b"\x01" + len(body).to_bytes(2, "big")
    return b"\xa5\x5a" + head + body + crc16(head + body).to_bytes(2, "big")


# from 1,787 bytes a number has more decimal digits than str() converts
@pytest.mark.parametrize("size", [1787, 65_000])
def test_long_number_is_an_undecodable_frame(capsys, size):
    from semchan.cli import handle_stream

    detail = f"number object out of range 1..2^64-1: {size} bytes"
    assert handle_stream(long_number_wire(size)) == (
        [f"frame 0: undecodable ({detail})"], 1)
    assert run_cli(capsys, "decode", long_number_wire(size).hex()) == (
        2, f"undecodable@0: {detail}\n", "")


@pytest.mark.parametrize("stream, expected, lines", [
    (ON112_HEX, ["ON(112)", "~P(3)"], ["ON(112)  [match]", "~P(3)  [MISSING]"]),
    ("", ["ON(112)"], ["ON(112)  [MISSING]"]),
], ids=["second-missing", "empty-stream"])
def test_receiver_counts_a_missing_expected_frame_as_a_mismatch(stream, expected,
                                                                lines):
    from semchan.cli import handle_stream

    assert handle_stream(bytes.fromhex(stream), expected=expected) == (lines, 1)


def test_receiver_counts_an_unexpected_extra_frame_as_a_mismatch():
    from semchan import parse_proposition
    from semchan.cli import handle_stream
    from semchan.wire import encode

    stream = encode(parse_proposition("ON(112)")) + encode(parse_proposition("~P(3)"))
    assert handle_stream(stream, expected=["ON(112)"]) == (
        ["ON(112)  [match]", "~P(3)  [UNEXPECTED]"], 1)
    # without --expect the same stream is plain text, status 0
    assert handle_stream(stream) == (["ON(112)", "~P(3)"], 0)


def test_receiver_analysis_of_undecodable_nested_frame_is_status_1():
    from semchan.cli import handle_stream

    lines, code = handle_stream(bytes.fromhex(BAD_NESTED_HEX + ON112_HEX),
                                analyze=True)
    assert code == 1
    assert lines[0] == "ON(112)"
    assert lines[1].startswith(
        "frame 0: undecodable (nested frame does not decode: bad predicate name bytes")
    assert len(lines) == 2


@pytest.mark.parametrize("command", ["check", "encode"])
def test_undecodable_nested_frame_text_is_usage_error(capsys, perfect_cfg, command):
    argv = [command, "NT(<010002fffe00000170>)"]
    if command == "check":
        argv += ["--channel", perfect_cfg]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nested frame does not decode: bad predicate name bytes" in err


def test_transmit_perfect_exit_0(capsys, perfect_cfg, tmp_path):
    transcript = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "transmit", "ON(112)",
                           "--channel", perfect_cfg,
                           "--transcript", str(transcript))
    assert code == 0
    assert "Transferable" in out
    rec = json.loads(transcript.read_text().splitlines()[0])
    assert rec["sent"] == rec["recv"] == "ON(112)"


def test_transmit_bitflip_exit_1(capsys, bitflip_cfg):
    code, out, _ = run_cli(capsys, "transmit", "ON(112)", "--channel", bitflip_cfg)
    assert code == 1
    assert "NonTransferable" in out


def test_check_json(capsys, perfect_cfg):
    code, out, _ = run_cli(capsys, "check", "ON(112)", "--channel", perfect_cfg,
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Transferable"
    assert doc["sent"] == doc["recv"] == "ON(112)"


def test_check_prints_received_and_verdict(capsys, bitflip_cfg):
    code, out, _ = run_cli(capsys, "check", "ON(112)", "--channel", bitflip_cfg)
    assert code == 1
    assert out == "received: None\nverdict: NonTransferable\n"


@pytest.mark.parametrize("config, field", [
    ({"kind": "truncate"}, "'max_bits'"),
    ({"kind": "truncate", "max_bits": "many"}, "'max_bits'"),
    ({"kind": "truncate", "max_bits": 7.9}, "'max_bits'"),
    ({"kind": "bitflip", "seed": "abc"}, "'seed'"),
    ({"kind": "bitflip", "seed": 2.5}, "'seed'"),
    ({"kind": "bitflip", "p": "high"}, "'p'"),
    ({"kind": "substitute", "map": {"x": 1}}, "'map'"),
    ({"kind": "substitute", "map": [1]}, "'map'"),
    ([{"kind": "perfect"}], "JSON object"),
    # int() also takes these; the grammar's ASCII digits do not
    ({"kind": "truncate", "max_bits": "+5"}, "'max_bits'"),
    ({"kind": "truncate", "max_bits": "1_0"}, "'max_bits'"),
    ({"kind": "truncate", "max_bits": " 512"}, "'max_bits'"),
    ({"kind": "bitflip", "seed": "\u0663"}, "'seed'"),
    # float() would take True as 1.0, and these strings; p is a JSON number
    ({"kind": "bitflip", "p": True}, "'p'"),
    ({"kind": "bitflip", "p": "\u0660.\u0665"}, "'p'"),
    ({"kind": "bitflip", "p": " 1e-1 "}, "'p'"),
    ({"kind": "bitflip", "p": "0.5"}, "'p'"),
    # each map key and value is a byte value: an int or ASCII digits, in
    # 0..255, as the other integer fields are read
    ({"kind": "substitute", "map": {"+65": 66.9, "6_6": True, "\u0661": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"+65": 66}}, "'map'"),
    ({"kind": "substitute", "map": {"6_6": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"\u0661": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"65": 66.9}}, "'map'"),
    ({"kind": "substitute", "map": {"65": True}}, "'map'"),
    ({"kind": "substitute", "map": {"65": None}}, "'map'"),
    ({"kind": "substitute", "map": {"": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"-1": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"\u00b2": 65}}, "'map'"),
    ({"kind": "substitute", "map": {"65": 256}}, "'map'"),
])
def test_bad_channel_config_field_exit_2(capsys, tmp_path, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "check", "ON(112)", "--channel", str(path))
    assert code == 2
    assert out == ""
    assert field in err


def test_non_integer_seed_env_exit_2(capsys, monkeypatch, bitflip_cfg):
    monkeypatch.setenv("SEMCHAN_SEED", "abc")
    code, out, err = run_cli(capsys, "check", "ON(112)", "--channel", bitflip_cfg)
    assert code == 2
    assert out == ""
    assert "SEMCHAN_SEED must be an integer, got 'abc'" in err


def test_missing_config_exit_3(capsys):
    code, _, err = run_cli(capsys, "check", "ON(112)", "--channel", "/nope.json")
    assert code == 3


def test_diagonalize(capsys, tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("# names, as in a world file\nP\n\nQ  # a comment\n")
    code, out, _ = run_cli(capsys, "diagonalize", "--predicates", str(preds),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3 and doc["k_prime"] == 4
    assert doc["identity_holds"] and doc["identity_prime_holds"]


def test_diagonalize_sample_prints_the_same_document_twice(capsys):
    argv = ["diagonalize", "--predicates", str(SAMPLES / "predicates.txt"), "--json"]
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv) == first
    code, out, _ = first
    assert code == 0
    doc = json.loads(out)
    assert doc["frame_star_hex"] == "0100024e540100090100024e5400000103"
    assert doc["identity_holds"] and doc["identity_prime_holds"]


def test_diagonalize_has_no_max_n_option(capsys, tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("P\nQ\n")
    code, out, _ = run_cli(capsys, "diagonalize", "--predicates", str(preds),
                           "--max-n", "3")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("text, reason", [
    ("P\n#5\nQ\n", "invalid predicate name: '#5'"),
    ("P\nbad name\n", "invalid predicate name: 'bad name'"),
], ids=["index", "space"])
def test_bad_predicates_file_names_the_line(capsys, tmp_path, text, reason):
    path = tmp_path / "preds.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "diagonalize", "--predicates", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}:2: {reason}\n"


def test_repeated_predicate_is_refused_at_its_line(capsys, tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("P\nQ\nP  # again\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "diagonalize", "--predicates", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}:3: duplicate predicate: 'P'\n"


def test_repeat_after_thousands_of_names_is_refused_at_its_line(capsys, tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("".join(f"P{i}\n" for i in range(4000)) + "P1234\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "diagonalize", "--predicates", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}:4001: duplicate predicate: 'P1234'\n"


def test_demo_liar(capsys):
    code, out, _ = run_cli(capsys, "demo", "liar")
    assert code == 0
    assert "verdict: Paradoxical" in out
    assert "[CONTRADICTION]" in out
    assert "(i) received content is true" in out
    assert "(ii) frame was not transferred" in out


def test_demo_err(capsys):
    code, out, _ = run_cli(capsys, "demo", "err")
    assert code == 0
    assert "frame: Err(*)" in out
    assert "verdict: Paradoxical" in out


def test_demo_liar_json(capsys):
    code, out, _ = run_cli(capsys, "demo", "liar", "--json")
    doc = json.loads(out)
    assert doc["verdict"]["verdict"] == "Paradoxical"


def test_demo_liar_over_a_channel_that_drops_everything(capsys):
    code, out, _ = run_cli(capsys, "demo", "liar", "--channel",
                           str(SAMPLES / "dropper.json"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["structural_fidelity"] is False
    assert doc["verdict"]["verdict"] == "NonTransferable"


def test_bridge_agrees(capsys, perfect_cfg, world_file):
    code, out, _ = run_cli(capsys, "bridge", "--world", world_file,
                           "--channel", perfect_cfg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert any(r["diagonal"] for r in doc["rows"])


def test_bridge_table_output(capsys, perfect_cfg, world_file):
    code, out, _ = run_cli(capsys, "bridge", "--world", world_file,
                           "--channel", perfect_cfg)
    assert code == 0
    assert "agreement: True" in out


def test_bridge_over_index_predicates(capsys, perfect_cfg, tmp_path):
    path = tmp_path / "index.world"
    path.write_text("domain: 1 2\n#5(1)  # an index literal\n")
    code, out, _ = run_cli(capsys, "bridge", "--world", str(path),
                           "--channel", perfect_cfg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["corpus_size"] == 4
    assert doc["agree"] is True
    assert [r["proposition"] for r in doc["rows"] if not r["diagonal"]] == [
        "#5(1)", "~#5(1)", "#5(2)", "~#5(2)"]


# sha256 of `semchan bridge --world samples/demo.world --channel <config> --json`
# stdout and its exit status, one per channel config
BRIDGE_DIGESTS = [
    ({"kind": "perfect"},
     "30cd60b63ec2c7bd7f82d1f7af2366f71cb55863fd111eb3e597892041a8ff8f", 0),
    ({"kind": "truncate", "max_bits": 512},
     "30cd60b63ec2c7bd7f82d1f7af2366f71cb55863fd111eb3e597892041a8ff8f", 0),
    (json.loads((SAMPLES / "bitflip.json").read_text()),
     "fc2898644cf8b21c0325a1bc7ea867d984d67777cae295ace0b1c73e09029bc4", 1),
    ({"kind": "substitute", "map": {"65": 66, "66": 65}},
     "bf908108208f1b40bad044920143161e28a3112cc3936ba16e2a39f09f97045c", 1),
]


@pytest.mark.parametrize("config,digest,status", BRIDGE_DIGESTS)
def test_bridge_json_bytes_are_pinned(capsys, tmp_path, config, digest, status):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "bridge", "--world", str(SAMPLES / "demo.world"),
                           "--channel", str(path), "--json")
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_bridges_over_one_world_print_the_pinned_bytes(order):
    # the bridges share the world's memos, so each later bridge reuses codes
    # and truth values that an earlier one stored
    w = load_world(str(SAMPLES / "demo.world"))
    for config, digest, status in BRIDGE_DIGESTS[::order]:
        report = verify_bridge(make_channel(config), w, ground_corpus(w))
        out = json.dumps(report.to_json()) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert report.agree is (status == 0)


def test_usage_error_exit_2(capsys):
    assert main(["encode"]) == 2
    capsys.readouterr()


# --- socket demo ---------------------------------------------------------


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def start_server(*extra):
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "semchan", "serve", "--port", str(port),
         "--once", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc, port


def send_with_retry(argv, tries=100):
    # the server needs a moment to start listening
    for _ in range(tries):
        rc = main(argv)
        if rc != 3:
            return rc
        time.sleep(0.05)
    return 3


def test_send_serve_loopback(capsys):
    proc, port = start_server()
    try:
        rc = send_with_retry(["send", "ON(112)", "--port", str(port)])
        assert rc == 0
        out, err = proc.communicate(timeout=10)
        assert "ON(112)" in out
        assert proc.returncode == 0
    finally:
        proc.kill()
    capsys.readouterr()


def test_send_serve_analyze_paradox(capsys):
    proc, port = start_server("--analyze")
    try:
        rc = send_with_retry(["send", "NT(*)", "--port", str(port)])
        assert rc == 0
        out, _ = proc.communicate(timeout=10)
        assert "NT(*)" in out
        assert "verdict: Paradoxical" in out
    finally:
        proc.kill()
    capsys.readouterr()


def test_send_multiple_frames_with_expected(capsys):
    proc, port = start_server("--expect", "ON(112)", "--expect", "~P(3)")
    try:
        rc = send_with_retry(["send", "ON(112)", "~P(3)", "--port", str(port)])
        assert rc == 0
        out, _ = proc.communicate(timeout=10)
        assert "ON(112)  [match]" in out
        assert "~P(3)  [match]" in out
        assert proc.returncode == 0
    finally:
        proc.kill()
    capsys.readouterr()


def test_send_flip_bit_reports_crc_diagnostic(capsys):
    proc, port = start_server()
    try:
        # flip a bit inside BODY (bit 48 = byte 6 of the wire frame)
        rc = send_with_retry(
            ["send", "ON(112)", "--port", str(port), "--flip-bit", "48"])
        assert rc == 0
        out, _ = proc.communicate(timeout=10)
        assert "diagnostic crc@" in out
        assert proc.returncode == 1
    finally:
        proc.kill()
    capsys.readouterr()


def test_send_connection_refused_exit_3(capsys):
    port = free_port()
    code = main(["send", "ON(112)", "--port", str(port)])
    assert code == 3
    capsys.readouterr()


@pytest.fixture
def no_sockets(monkeypatch):
    """Fail the test if the command makes any socket."""
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was made")

    for name in ("socket", "create_connection", "create_server"):
        monkeypatch.setattr(socket, name, no_socket)


@pytest.mark.parametrize("argv", [["serve", "--once"], ["send", "ON(112)"]],
                         ids=["serve", "send"])
@pytest.mark.parametrize("port", ["70000", "-1"])
def test_port_out_of_range_is_usage_error_before_any_socket(capsys, no_sockets,
                                                            argv, port):
    code, out, err = run_cli(capsys, *argv, "--port", port)
    assert code == 2
    assert out == ""
    assert f"argument --port: port must be 0..65535, got '{port}'" in err


def test_send_flip_bit_out_of_range_is_usage_error_before_any_socket(capsys,
                                                                     no_sockets):
    # ON(112) is a 16-byte wire frame, so its bits are 0..127
    code, out, err = run_cli(capsys, "send", "ON(112)", "--port", "9",
                             "--flip-bit", "999")
    assert code == 2
    assert out == ""
    assert err == "flip-bit index out of range\n"


def test_serve_on_a_port_in_use_exits_3():
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        # a subprocess with a timeout, so a bind that succeeded cannot hang
        proc = subprocess.run(
            [sys.executable, "-m", "semchan", "serve", "--port", str(port), "--once"],
            capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"cannot listen on 127.0.0.1:{port}: " in proc.stderr


def test_nested_hex_grammar_error_has_offset(capsys):
    code, out, err = run_cli(capsys, "encode", "NT(<01>)")
    assert code == 2
    assert out == ""
    assert err == "error: BODY shorter than fixed header (at byte 3)\n"


def test_encode_rejects_non_ascii_digits(capsys):
    code, out, err = run_cli(capsys, "encode", "P(\u0663)")
    assert code == 2
    assert out == ""
    assert err == "error: bad object: '\u0663' (at byte 2)\n"


@pytest.mark.parametrize("text, err", [
    ("P(" + "9" * 5000 + ")",
     "error: object number out of range 1..2^64-1: 5000 digits (at byte 2)\n"),
    ("#" + "9" * 5000 + "(1)",
     "error: predicate index must be < 2^2040: 5000 digits (at byte 1)\n"),
], ids=["number", "index"])
def test_encode_refuses_overlong_literal_with_its_offset(capsys, text, err):
    assert run_cli(capsys, "encode", text) == (2, "", err)


@pytest.mark.parametrize("text, lineno, reason", [
    ("P(1)\n", 1, "expected 'domain:' header"),
    ("domain: 1 x\n", 1, "invalid literal for int() with base 10: 'x'"),
    ("# header next\ndomain: 0 1\n", 2, "object number out of range 1..2^64-1: 0"),
    ("domain: 1 18446744073709551616\n", 1,
     "object number out of range 1..2^64-1: 18446744073709551616"),
    ("domain: 1 2\nP(1)\nP(3)\n", 3, "literal object 3 not in domain"),
    ("domain: 1 2\nP(1)\n\n~P(1)  # the other polarity\n", 4,
     "both polarities asserted for P(1)"),
    ("domain: 1 2\nP(*)\n", 2, "world literals must use object numbers"),
    ("domain: 1 2\nP(1\n", 2, "expected ')' at end (at byte 3)"),
    ("domain: 1 +5\n", 1, "invalid literal for int() with base 10: '+5'"),
    ("domain: 1_0\n", 1, "invalid literal for int() with base 10: '1_0'"),
    ("domain: 1 \u0663\n", 1, "invalid literal for int() with base 10: '\u0663'"),
    # holds would refuse every row of it, far from the line that listed it
    ("domain: 1\nNT(1)\nP(1)\n", 2,
     "builtin predicate NT is channel-relative, not world-evaluable"),
], ids=["no-header", "domain-not-integer", "domain-zero", "domain-too-large",
        "object-outside-domain", "both-polarities", "all-objects-literal",
        "bad-literal", "domain-sign", "domain-underscore", "domain-non-ascii-digit",
        "builtin-literal"])
def test_bad_world_file_names_the_line(capsys, perfect_cfg, tmp_path, text,
                                       lineno, reason):
    path = tmp_path / "bad.world"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bridge", "--world", str(path),
                             "--channel", perfect_cfg)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}:{lineno}: {reason}\n"


# The exit-code contract over arbitrary input: every subcommand returns 0, 1,
# 2 or 3 without raising, and under --json prints nothing or one JSON document.

WELL_FORMED_TEXTS = ["ON(112)", "~ON(112)", "NT(*)", "#5(1)", "P(1)", "Q(81)",
                     "NT(<0100024f4e00000170>)"]
WELL_FORMED_CHANNELS = [
    b'{"kind": "perfect"}', b'{"kind": "bitflip", "p": 0.5, "seed": 3}',
    b'{"kind": "bitflip", "p": 0.01, "seed": 3}', b'{"kind": "truncate", "max_bits": 9}',
    b'{"kind": "truncate", "max_bits": 120}',
    b'{"kind": "substitute", "map": {"80": 81, "81": 80}}']


def mostly(common, rare):
    """A draw from common three times in four, else one from rare."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


# well formed most of the time, so that most check and transmit lines reach
# a verdict
PROPOSITION_TEXTS = mostly(
    st.one_of(
        st.sampled_from(WELL_FORMED_TEXTS),
        st.integers(0, 2**32).map(
            lambda seed: render_proposition(gen_proposition(random.Random(seed))))),
    st.one_of(
        st.sampled_from(["ON(112)", "~ON(112)", "NT(*)", "#5(1)", "P(0)", "P(٣)",
                         "Tr(<010002504e000001>)", "NT(<010002fffe00000170>)",
                         "NT(<01>)", "-x", "", f"#{2**2100}(1)"]),
        st.text(max_size=30),
    ))
HEX_TEXTS = st.one_of(
    st.sampled_from([ON112_HEX, ON112_HEX + ON112_HEX, BAD_NAME_HEX, BAD_NESTED_HEX,
                     BAD_NAME_HEX + ON112_HEX, "zz", "0011", ""]),
    st.binary(max_size=40).map(bytes.hex),
    st.text(max_size=30),
)
# a file argument's bytes: None for a missing file, "dir" for a directory;
# one_of flattens BAD_FILES' three arms into its own, so a world or
# predicates file is well formed about one draw in four, and a channel file,
# drawn through mostly, three in four
BAD_FILES = st.one_of(
    st.sampled_from([None, "dir", b"", b'{"kind":', b"[1]", b"domain: 1 2\nP(1\n",
                     b"P\nP\n", b"#5\n", b"\xff"]),
    st.text(max_size=60).map(str.encode),
    st.binary(max_size=60),
)
CHANNEL_FILES = mostly(st.sampled_from(WELL_FORMED_CHANNELS), BAD_FILES)
WORLD_FILES = st.one_of(BAD_FILES, st.sampled_from([
    b"domain: 1 2\nP(1)\n~Q(2)\n", b"domain: 1\n#5(1)\n", b"domain: 3\n"]))
PREDICATE_FILES = st.one_of(BAD_FILES, st.sampled_from([
    b"P\nQ\n", b"NT\nTr\nP\n", b"A  # a comment\n\nB\n"]))


def file_argument(directory: Path, name: str, contents) -> str:
    path = directory / name
    if path.is_dir():
        path.rmdir()
    elif path.exists():
        path.unlink()
    if contents == "dir":
        path.mkdir()
    elif contents is not None:
        path.write_bytes(contents)
    return str(path)


@st.composite
def command_lines(draw, directory: Path):
    """An argv for one subcommand, with its file arguments written to directory."""
    command = draw(st.sampled_from(
        ["encode", "decode", "transmit", "check", "diagonalize", "demo", "bridge"]))

    def file_arg(name, contents):
        return file_argument(directory, name, draw(contents))

    if command == "encode":
        argv = [command, draw(PROPOSITION_TEXTS), "--format",
                draw(st.sampled_from(["bits", "hex"]))]
    elif command == "decode":
        argv = [command, draw(HEX_TEXTS)]
    elif command in ("transmit", "check"):
        argv = [command, draw(PROPOSITION_TEXTS),
                "--channel", file_arg("channel", CHANNEL_FILES)]
        if command == "transmit" and draw(st.booleans()):
            argv += ["--transcript", str(directory / draw(
                st.sampled_from(["t.jsonl", "missing/t.jsonl"])))]
    elif command == "diagonalize":
        argv = [command, "--predicates", file_arg("predicates", PREDICATE_FILES)]
    elif command == "demo":
        argv = [command, draw(st.sampled_from(["liar", "err", "truth"]))]
        if draw(st.booleans()):
            argv += ["--channel", file_arg("channel", CHANNEL_FILES)]
    else:
        argv = [command, "--world", file_arg("world", WORLD_FILES),
                "--channel", file_arg("channel", CHANNEL_FILES)]
    return argv + (["--json"] if draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exit_code_contract_holds_for_every_subcommand(contract_dir, data):
    argv = data.draw(command_lines(contract_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_IO)
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue())
    reached = argv[0] in ("transmit", "check", "demo") and code in (EXIT_OK,
                                                                     EXIT_NEGATIVE)
    event("reached a verdict" if reached else "no verdict")
    if reached and argv[0] == "demo":
        assert_demo_status_is_its_verdict(argv, code, out.getvalue())
    elif reached:
        assert_status_is_the_scanned_verdict(argv, code, out.getvalue())


def assert_demo_status_is_its_verdict(argv, code, out):
    """demo exits 1 iff the printed verdict is NonTransferable: Paradoxical
    and Transferable exit 0."""
    if "--json" in argv:
        verdict = json.loads(out)["verdict"]["verdict"]
    else:
        verdict = out.splitlines()[-1].removeprefix("verdict: ")
    assert verdict in (TRANSFERABLE, NON_TRANSFERABLE, PARADOXICAL)
    assert (code == EXIT_NEGATIVE) == (verdict == NON_TRANSFERABLE)


def assert_status_is_the_scanned_verdict(argv, code, out):
    """check/transmit exit 0 iff the printed verdict is Transferable, and that
    verdict is the one a full scan of the first use's received bytes gives."""
    if "--json" in argv:
        verdict = json.loads(out)["verdict"]
    else:
        verdict = out.splitlines()[-1].removeprefix("verdict: ")
    assert (code == EXIT_OK) == (verdict == TRANSFERABLE)
    p = parse_proposition(argv[1])
    ts = load_channel(argv[argv.index("--channel") + 1]).ts
    assert (verdict == TRANSFERABLE) == (receive(ts.apply(encode(p), 0)) == ([p], []))


# the well-formed channel files and propositions of the strategies above, so
# every pair of them is checked, not only the few the contract test draws
@pytest.mark.parametrize("channel", WELL_FORMED_CHANNELS)
@pytest.mark.parametrize("command", ["transmit", "check"])
def test_check_and_transmit_exit_zero_iff_transferable(tmp_path, capsys, channel,
                                                       command):
    path = tmp_path / "channel.json"
    path.write_bytes(channel)
    for text in WELL_FORMED_TEXTS:
        for extra in ([], ["--json"]):
            argv = [command, text, "--channel", str(path), *extra]
            code, out, _ = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_NEGATIVE)
            assert_status_is_the_scanned_verdict(argv, code, out)
