"""Command-line surface: encode, decode, transmit, check, diagonalize,
demo, bridge, plus a transmitter/receiver demo over a stream socket.

Exit codes: 0 ok, 1 verdict-negative, 2 usage error, 3 I/O error.
With --json every command emits exactly one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys

from .channel import append_transcript, load_channel, make_channel
from .diagonal import (
    analyze_self_reference,
    build_Err_all,
    build_NT_all,
    build_enumeration,
    find_fixed_point,
)
from .model import (_COMMENT_RE, PredicateCode, load_world, parse_proposition,
                    render_proposition)
from .tarski import ground_corpus, verify_bridge
from .transfer import NON_TRANSFERABLE, TRANSFERABLE, check_transferable
from .wire import decode_frame, encode, encode_frame, payload_bits, receive

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc))
    else:
        print(text)


def cmd_encode(args) -> int:
    p = parse_proposition(args.text)
    if args.format == "bits":
        out = payload_bits(encode_frame(p))
    else:
        out = encode(p).hex()
    _emit(args, {"proposition": render_proposition(p),
                 "format": args.format, "encoded": out}, out)
    return EXIT_OK


def cmd_decode(args) -> int:
    try:
        raw = bytes.fromhex(args.hex)
    except ValueError as e:
        print(f"bad hex: {e}", file=sys.stderr)
        return EXIT_USAGE
    props, diags = receive(raw)
    doc = {
        "propositions": [render_proposition(p) for p in props],
        "diagnostics": [str(d) for d in diags],
    }
    _emit(args, doc, "\n".join(doc["propositions"] + doc["diagnostics"]))
    return EXIT_OK if props else EXIT_USAGE


def cmd_transmit(args) -> int:
    c = load_channel(args.channel)
    p = parse_proposition(args.text)
    verdict = check_transferable(c, p)
    if args.transcript:
        append_transcript(args.transcript, verdict.evidence)
    text = f"received: {verdict.evidence.recv}\nverdict: {verdict.kind}"
    _emit(args, verdict.to_json(), text)
    return EXIT_OK if verdict.kind == TRANSFERABLE else EXIT_NEGATIVE


def _load_predicates(path: str) -> list[PredicateCode]:
    """One distinct predicate name a line; comments as in a world file."""
    preds, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if line := _COMMENT_RE.split(raw, 1)[0].strip():
                try:
                    pred = PredicateCode(line)
                    if line in seen:
                        raise ValueError(f"duplicate predicate: {line!r}")
                    seen.add(line)
                    preds.append(pred)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
    return preds


def cmd_diagonalize(args) -> int:
    preds = _load_predicates(args.predicates)
    table = build_enumeration(preds, len(preds) + 2)
    report = find_fixed_point(table)
    text = (
        f"k (index of NT)  = {report.k}\n"
        f"k' (index of Tr) = {report.k_prime}\n"
        f"F*  = {render_proposition(decode_frame(report.frame_star))}\n"
        f"F*' = {render_proposition(decode_frame(report.frame_star_prime))}\n"
        f"diagonal identity holds: {report.identity_holds}\n"
        f"primed identity holds:   {report.identity_prime_holds}"
    )
    _emit(args, report.to_json(), text)
    return EXIT_OK


def _paradox_text(report) -> str:
    lines = [
        f"frame: {render_proposition(decode_frame(report.frame))}",
        f"structural fidelity E: {report.structural_fidelity}",
    ]
    for step in report.case_trace:
        mark = " [CONTRADICTION]" if step.contradiction else " [consistent]"
        lines.append(f"{step.assumption} -> {step.consequence}{mark}")
    lines.append(f"verdict: {report.verdict.kind}")
    return "\n".join(lines)


def cmd_demo(args) -> int:
    if args.channel:
        c = load_channel(args.channel)
    else:
        c = make_channel({"kind": "perfect"})
    frame = build_NT_all() if args.which == "liar" else build_Err_all()
    report = analyze_self_reference(c, frame)
    _emit(args, report.to_json(), _paradox_text(report))
    return EXIT_NEGATIVE if report.verdict.kind == NON_TRANSFERABLE else EXIT_OK


def cmd_bridge(args) -> int:
    c = load_channel(args.channel)
    w = load_world(args.world)
    report = verify_bridge(c, w, ground_corpus(w))
    _emit(args, report.to_json(), report.to_table())
    return EXIT_OK if report.agree else EXIT_NEGATIVE


def handle_stream(data: bytes, analyze: bool = False,
                  expected: list[str] | None = None) -> tuple[list[str], int]:
    """Receiver logic for one connection; returns (output lines, exit code)."""
    lines: list[str] = []
    props, diags = receive(data)
    code = EXIT_OK
    for i, p in enumerate(props):
        text = render_proposition(p)
        if expected:
            want = expected[i] if i < len(expected) else None
            mark = ("match" if text == want else
                    "UNEXPECTED" if want is None else "MISMATCH")
            lines.append(f"{text}  [{mark}]")
            if mark != "match":
                code = EXIT_NEGATIVE
        else:
            lines.append(text)
        if analyze and p.predicate.is_builtin and p.object.kind != "number":
            report = analyze_self_reference(make_channel({}), encode_frame(p))
            lines.extend(_paradox_text(report).splitlines())
    for text in (expected or [])[len(props):]:
        lines.append(f"{text}  [MISSING]")
        code = EXIT_NEGATIVE
    for d in diags:
        if d.kind == "undecodable":
            lines.append(f"frame {d.offset}: undecodable ({d.detail})")
        else:
            lines.append(f"diagnostic {d}")
        code = EXIT_NEGATIVE
    return lines, code


def cmd_serve(args) -> int:
    try:
        srv = socket.create_server((args.host, args.port), backlog=1)
    except OSError as e:
        print(f"cannot listen on {args.host}:{args.port}: {e}", file=sys.stderr)
        return EXIT_IO
    last = EXIT_OK
    try:
        while True:
            conn, _ = srv.accept()
            chunks = []
            with conn:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            lines, last = handle_stream(
                b"".join(chunks), analyze=args.analyze, expected=args.expect)
            if args.json:
                print(json.dumps({"lines": lines, "status": last}), flush=True)
            else:
                for line in lines:
                    print(line, flush=True)
            if args.once:
                break
    finally:
        srv.close()
    return last


def cmd_send(args) -> int:
    payload = bytearray()
    for text in args.texts:
        payload += encode(parse_proposition(text))
    if args.flip_bit is not None:
        # impairment proxy: flip one bit of the outgoing stream
        if not 0 <= args.flip_bit < len(payload) * 8:
            print("flip-bit index out of range", file=sys.stderr)
            return EXIT_USAGE
        payload[args.flip_bit // 8] ^= 0x80 >> (args.flip_bit % 8)
    try:
        with socket.create_connection((args.host, args.port), timeout=10) as s:
            s.sendall(bytes(payload))
    except OSError as e:
        print(f"connection failed: {e}", file=sys.stderr)
        return EXIT_IO
    _emit(args, {"sent": len(args.texts), "bytes": len(payload)},
          f"sent {len(args.texts)} frame(s), {len(payload)} bytes")
    return EXIT_OK


def _port(text: str) -> int:
    """argparse type for --port: a TCP port number, 0..65535, so a bad one
    is a usage error before any socket is made."""
    if not (text.isascii() and text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"port must be 0..65535, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semchan",
        description="semantic channel toolkit: frames, channels, "
                    "transferability and self-reference analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document")
        p.set_defaults(func=func)
        return p

    p = add("encode", cmd_encode, help="encode a proposition")
    p.add_argument("text")
    p.add_argument("--format", choices=["bits", "hex"], default="bits")

    p = add("decode", cmd_decode, help="decode wire-frame hex")
    p.add_argument("hex")

    for name in ("transmit", "check"):
        p = add(name, cmd_transmit, help=f"{name} a proposition over a channel")
        p.add_argument("text")
        p.add_argument("--channel", required=True, help="channel config JSON")
        if name == "transmit":
            p.add_argument("--transcript", help="append JSONL transcript here")
        else:
            p.set_defaults(transcript=None)

    p = add("diagonalize", cmd_diagonalize, help="build the diagonal fixed point")
    p.add_argument("--predicates", required=True,
                   help="file with one predicate name per line")

    p = add("demo", cmd_demo, help="run the liar / channel-error paradox")
    p.add_argument("which", choices=["liar", "err"])
    p.add_argument("--channel", help="channel config JSON (default perfect)")

    p = add("bridge", cmd_bridge, help="check the truth-predicate bridge")
    p.add_argument("--world", required=True)
    p.add_argument("--channel", required=True)

    p = add("serve", cmd_serve, help="receive wire frames over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, required=True)
    p.add_argument("--analyze", action="store_true",
                   help="run self-reference analysis on builtin frames")
    p.add_argument("--expect", action="append",
                   help="expected proposition text, in order")
    p.add_argument("--once", action="store_true",
                   help="exit after one connection")

    p = add("send", cmd_send, help="send wire frames over TCP")
    p.add_argument("texts", nargs="+")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, required=True)
    p.add_argument("--flip-bit", type=int, default=None,
                   help="impairment proxy: flip this bit of the stream")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
