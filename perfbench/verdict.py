"""verdict-clean and verdict-noisy: transferability verdicts and liar analyses.

One caller in a closed loop.  A run is a sequence of rounds of ROUND_OPS
ops; round r's inputs come from (workload, seed, r) alone, and each
proposition is sent once.  About one op in sixteen is a self-reference
analysis instead of a transferability check.  Channels are built afresh at
the start of each round (that is the set-up sample), so use counters, and
with them the bit-flip noise, restart with the round.
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import Counter
from dataclasses import dataclass

from semchan import (
    PredicateCode,
    analyze_self_reference,
    build_enumeration,
    check_transferable,
    crc16,
    decode_frame,
    encode_frame,
    find_fixed_point,
    frame_to_wire,
    make_channel,
    render_proposition,
    transmit,
    wire_to_frames,
)
from semchan.cli import handle_stream

from . import oracle
from .inputs import gen_tree, rng_for, substitute_map, to_proposition
from .record import Recorder, rate

ROUND_OPS = 1024
WINDOW = ROUND_OPS  # a round has enough ops for a p99 with ten beyond it
SELF_REF_SHARE = 1 / 16
SELF_REF_KINDS = ("NT(*)", "Err(*)", "Tr(*)", "B(k)", "B'(k')")
FIXED_POINT_PREDICATES = 8
BITFLIP_P = 0.01
# Below the corpus's median wire frame (26 bytes = 208 bits), so about half
# of the frames lose their tail.
TRUNCATE_BITS = 192


def channel_configs(workload: str, seed: int) -> list[dict]:
    """Two check channels, then two analysis channels; ops alternate in each pair."""
    if workload == "verdict-clean":
        sub = {"kind": "substitute",
               "map": substitute_map(rng_for(workload, seed, "map"))}
        return [{"kind": "perfect"}, sub] * 2
    flip = {"kind": "bitflip", "p": BITFLIP_P, "seed": seed}
    return [flip, {"kind": "truncate", "max_bits": TRUNCATE_BITS},
            {"kind": "truncate", "max_bits": 0}, flip]


@dataclass(frozen=True)
class Op:
    kind: str  # "check" or one of SELF_REF_KINDS
    channel: int  # index into channel_configs
    tree: tuple  # what is sent: the proposition, or the self-referential frame


def plan_round(workload: str, seed: int, r: int) -> tuple[list[Op], list]:
    """The round's ops and the predicates its fixed-point rows enumerate."""
    rng = rng_for(workload, seed, r)
    picks = []
    n_check = n_analysis = 0
    for _ in range(ROUND_OPS):
        if rng.random() < SELF_REF_SHARE:
            picks.append((rng.choice(SELF_REF_KINDS), 2 + n_analysis % 2, None))
            n_analysis += 1
        else:
            picks.append(("check", n_check % 2, gen_tree(rng)))
            n_check += 1
    preds: list = []
    for _, _, tree in picks:
        if tree and tree[1] not in oracle.BUILTINS and tree[1] not in preds:
            preds.append(tree[1])
    preds = preds[:FIXED_POINT_PREDICATES]
    k = len(preds) + 1  # build_enumeration appends NT, then Tr
    self_ref = {
        "NT(*)": (True, "NT", "*"),
        "Err(*)": (True, "Err", "*"),
        "Tr(*)": (True, "Tr", "*"),
        "B(k)": (True, "NT", (True, "NT", k)),
        "B'(k')": (False, "Tr", (False, "Tr", k + 1)),
    }
    ops = [Op(kind, ch, tree if kind == "check" else self_ref[kind])
           for kind, ch, tree in picks]
    return ops, preds


def analyze_fixed_point(c, preds, prime: bool):
    fixed = find_fixed_point(build_enumeration(preds, len(preds) + 2))
    frame = fixed.frame_star_prime if prime else fixed.frame_star
    return fixed, analyze_self_reference(c, frame)


def program_input(op: Op, pred_codes: list):
    if op.kind == "check":
        return to_proposition(op.tree)
    if op.kind.startswith("B"):
        return pred_codes
    return encode_frame(to_proposition(op.tree))


def run_op(rec: Recorder, op: Op, c, arg):
    if op.kind == "check":
        return rec.op(check_transferable, c, arg, layer="transfer.check_us")
    if op.kind.startswith("B"):
        return rec.op(analyze_fixed_point, c, arg, op.kind == "B'(k')")
    return rec.op(analyze_self_reference, c, arg)


class InputStats:
    """Input properties of the whole run, reported beside the metrics."""

    def __init__(self):
        self.checks = 0
        self.wire_bytes = 0
        self.max_wire_bytes = 0
        self.depths: Counter = Counter()
        self.channel_mix: Counter = Counter()
        self.self_ref = 0
        self.round0_codes: list[bytes] = []

    def add_check(self, tree, sent: bytes, round0: bool) -> None:
        self.checks += 1
        self.wire_bytes += len(sent)
        self.max_wire_bytes = max(self.max_wire_bytes, len(sent))
        self.depths[oracle.depth(tree)] += 1
        if round0:
            self.round0_codes.append(sent)

    def to_json(self) -> dict:
        n, codes = self.checks, self.round0_codes
        return {
            "checks": n,
            "self_reference_share": rate(self.self_ref, n + self.self_ref),
            "mean_wire_bytes": rate(self.wire_bytes, n),
            "max_wire_bytes": self.max_wire_bytes,
            "depth_histogram": {str(d): c for d, c in sorted(self.depths.items())},
            "round0_repeated_code_share": 1 - rate(len(set(codes)), len(codes)),
            "channel_mix": dict(self.channel_mix),
        }


def verify_check(rec: Recorder, model, op: Op, n0: int, verdict, stats: InputStats,
                 count: bool):
    """Compare one check with the reference; returns (ok, kind, received bytes)."""
    want, sent, recv = oracle.check_verdict(model, op.tree, n0)
    record = verdict.evidence.to_json()
    ok = (verdict.kind == want
          and record["sent"] == oracle.render(op.tree)
          and record["sent_bits"] == oracle.bits(sent)
          and record["recv_bits"] == oracle.bits(recv)
          and (record["recv"] == record["sent"] if want == oracle.TRANSFERABLE
               else bool(verdict.notes)))
    stats.add_check(op.tree, sent, count)
    if count:
        rec.counts[f"transfer.verdicts.{verdict.kind}"] += 1
        rec.count_scan(recv == sent, *wire_to_frames(recv))
    return ok, verdict.kind, recv


def verify_analysis(rec: Recorder, model, op: Op, n0: int, out, count: bool):
    """Compare one analysis with the reference; returns (ok, kind, received bits, uses)."""
    want, used = oracle.analysis_verdict(model, op.tree, n0)
    fixed, report = out if op.kind.startswith("B") else (None, out)
    kind = report.verdict.kind
    ok = (kind == want
          and frame_to_wire(report.frame) == oracle.wire(oracle.body(op.tree))
          and (fixed is None or (fixed.identity_holds and fixed.identity_prime_holds)))
    if count:
        rec.counts[f"diagonal.verdicts.{kind}"] += 1
    return ok, kind, report.verdict.evidence.to_json()["recv_bits"], used


def trace_check(rec: Recorder, shadow, p) -> None:
    """Time each public step of one transmit on the op's inputs and use counter."""
    n = shadow.uses
    before = rec.step_seconds
    frame = rec.step("codec.encode_us", encode_frame, p)
    sent = rec.step("wire.frame_to_wire_us", frame_to_wire, frame)
    recv = rec.step(f"channel.apply_us.{shadow.ts.kind}", shadow.ts.apply, sent, n)
    frames, diags = rec.step("wire.scan_us_per_frame", wire_to_frames, recv)
    rec.step("model.render_us", render_proposition, p)
    if len(frames) == 1 and not diags:
        try:
            got = rec.step("codec.decode_us", decode_frame, frames[0])
            rec.step("model.render_us", render_proposition, got)
        except ValueError:
            pass
    parts = rec.step_seconds - before
    t0 = time.perf_counter()
    transmit(shadow, p)
    whole = time.perf_counter() - t0
    rec.add_step("channel.transmit_us", whole)
    rec.add_step("channel.transmit_residual_us", whole - parts, busy=False)
    rec.step("wire.crc16_us", crc16, sent[2:-2])


def trace_analysis(rec: Recorder, shadow, op: Op, arg, out) -> None:
    if op.kind.startswith("B"):
        rec.step("diagonal.fixed_point_us", find_fixed_point,
                 build_enumeration(arg, len(arg) + 2))
        frame = out[1].frame
    else:
        frame = arg
    rec.step("diagonal.analyze_us", analyze_self_reference, shadow, frame)


def trace_receiver(rec: Recorder, received: list[bytes], count: bool) -> None:
    """Feed the round's received bytes, back to back, to the CLI receiver.

    That is what a receiver reading one link that carried the round's frames
    would see, so it exercises the multi-frame resync scan on this
    workload's own inputs.
    """
    lines, _ = rec.step("cli.handle_stream_us_per_frame", handle_stream,
                        b"".join(received), per=len(received))
    if count:
        rec.counts["cli.undecodable_frames"] += sum(
            bool(oracle.RECEIVER_UNDECODABLE.match(line)) for line in lines)


def run(workload: str, seed: int, seconds: float, rec: Recorder) -> dict:
    configs = channel_configs(workload, seed)
    models = [oracle.model_for(cfg) for cfg in configs]
    stats = InputStats()
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        ops, preds = plan_round(workload, seed, r)
        pred_codes = [PredicateCode(p) for p in preds]
        args = [program_input(op, pred_codes) for op in ops]

        channels = rec.setup(lambda: [make_channel(cfg) for cfg in configs])
        outputs = []
        for op, arg in zip(ops, args):
            try:
                outputs.append(run_op(rec, op, channels[op.channel], arg))
            except Exception as e:  # a raising op is a failed op, not a crash
                outputs.append(e)

        # The reference keeps its own use counters: a program that spends a
        # different number of uses per op drifts and then fails the checks.
        uses = [0] * len(configs)
        received = []
        for op, arg, out in zip(ops, args, outputs):
            n0 = uses[op.channel]
            model = models[op.channel]
            if isinstance(out, Exception):
                rec.outcome(False, f"{op.kind} {oracle.render(op.tree)}: {out!r}")
                uses[op.channel] += 1
                continue
            stats.channel_mix[model.kind] += 1
            if op.kind == "check":
                ok, kind, recv = verify_check(rec, model, op, n0, out, stats, r == 0)
                received.append(recv)
                uses[op.channel] += 1
            else:
                ok, kind, recv_bits, used = verify_analysis(rec, model, op, n0, out, r == 0)
                uses[op.channel] += used
                stats.self_ref += 1
            if r == 0:
                bits = oracle.bits(recv) if op.kind == "check" else recv_bits
                digest.update(f"{op.kind}|{kind}|{bits}\n".encode())
            rec.outcome(ok, f"round {r} {op.kind} {oracle.render(op.tree)} "
                            f"over {model.kind}: got {kind}")
            if rec.trace:
                shadow = copy.copy(channels[op.channel])
                shadow.uses = n0
                if op.kind == "check":
                    trace_check(rec, shadow, arg)
                else:
                    trace_analysis(rec, shadow, op, arg, out)
        if rec.trace:
            trace_receiver(rec, received, r == 0)
        r += 1

    return {"rounds": r, "round0_digest": digest.hexdigest(),
            "inputs": stats.to_json()}
