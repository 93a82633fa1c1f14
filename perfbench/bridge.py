"""bridge-world: the channel <-> truth-predicate bridge over seeded worlds.

One caller in a closed loop.  Each round is one world of 20 predicates x 200
objects with about 80% of the literals set (8,000 ground rows), built from
(seed, round) alone.  Checking one world is one op, timed pass by pass:

* ``verify_bridge`` over perfect, a seeded substitute and a truncate whose
  ``max_bits`` exceeds every frame (not analytically injective, so
  ``verify_activeness`` samples the whole corpus);
* the truth direction: ``truth_from_channel`` over perfect, asked for every
  row's code (memo misses);
* the decoder direction: ``decoder_from_truth`` with that same truth
  predicate, for perfect and for the substitute, on every row's received
  code (memo hits).

The substitute moves the SYNC byte, so nothing survives it: over it every
code maps to False and the bridge fails on each row the world makes true.
The reference predicts that exactly.  The set-up sample is building the
world and the channels.
"""

from __future__ import annotations

import time
from collections import Counter

from semchan import (
    PerfectTS,
    PredicateCode,
    World,
    build_enumeration,
    crc16,
    decode_frame,
    decoder_from_truth,
    encode_frame,
    find_fixed_point,
    frame_to_wire,
    holds,
    make_channel,
    render_proposition,
    truth_from_channel,
    verify_activeness,
    verify_bridge,
    wire_to_frames,
)

from . import oracle
from .inputs import gen_world, rng_for, substitute_map, to_proposition
from .record import Recorder

TRUNCATE_BITS = 512  # above every frame of these worlds, diagonal row included
TRACE_STRIDE = 4  # the traced run times the layer steps on every 4th row


class CountingPerfectTS(PerfectTS):
    """Perfect system that counts its uses: one per truth-memo miss."""

    def __init__(self):
        self.applies = 0

    def apply(self, data: bytes, n: int) -> bytes:
        self.applies += 1
        return data


def truth_pass(c, w, codes):
    truth = truth_from_channel(c, w)
    return truth, [truth(code) for code in codes]


def decoder_pass(truth, ts, received):
    decode = decoder_from_truth(truth, ts)
    return [decode(code) for code in received]


PASSES = ("truth pass", "decoder pass over perfect", "decoder pass over substitute")
WINDOW = 1  # world: the latency is the median world


def bridge_world(rec: Recorder, channels, w, props, codes, sub_received):
    """One op: the bridge over three channels, then the truth pass and the
    two decoder passes, each over every row.  The passes are timed one by
    one, so that the host probe can run between them."""
    rows = len(props)
    reports = [rec.op(verify_bridge, c, w, props, units=rows, last=False)
               for c in channels[:3]]
    truth, values = rec.op(truth_pass, channels[3], w, codes, units=rows, last=False)
    perfect = rec.op(decoder_pass, truth, channels[0].ts, codes, units=rows, last=False)
    substitute = rec.op(decoder_pass, truth, channels[1].ts, sub_received, units=rows)
    return reports, [values, perfect, substitute]


def expected_truth(model, codes, want_holds) -> list[bool]:
    """A code that arrives intact is true iff its row holds; otherwise False."""
    return [h and model.apply(code, 0) == code for code, h in zip(codes, want_holds)]


def count_diagnostics(rec: Recorder, models, codes) -> None:
    for model in models:
        for code in codes:
            recv = model.apply(code, 0)
            rec.count_scan(recv == code, *wire_to_frames(recv))


def report_ok(report, rows, want_truth, want_holds) -> bool:
    agree = [t == h for t, h in zip(want_truth, want_holds)]
    if (report.corpus_size != len(rows) or len(report.rows) != len(rows) + 1
            or not report.rows[-1].diagonal or report.rows[-1].truth is not False):
        return False
    for row, tree, t, h, a in zip(report.rows, rows, want_truth, want_holds, agree):
        if (row.diagonal or row.proposition != oracle.render(tree)
                or row.truth != t or row.world_holds != h or row.agree != a):
            return False
    failures = [oracle.render(tree) for tree, a in zip(rows, agree) if not a]
    return report.agree == all(agree) and list(report.failures) == failures


def trace_world(rec: Recorder, w, props, codes, channels, sub_received,
                count: bool) -> None:
    """Time each layer's public steps on this world's inputs."""
    sample = range(0, len(props), TRACE_STRIDE)
    for i in sample:
        p = props[i]
        rec.step("model.holds_us", holds, w, p)
        frame = rec.step("codec.encode_us", encode_frame, p)
        sent = rec.step("wire.frame_to_wire_us", frame_to_wire, frame)
        rec.step("wire.crc16_us", crc16, sent[2:-2])
        frames, _ = rec.step("wire.scan_us_per_frame", wire_to_frames, sent)
        rec.step("codec.decode_us", decode_frame, frames[0])
        rec.step("model.render_us", render_proposition, p)
        for c in channels:
            rec.step(f"channel.apply_us.{c.ts.kind}", c.ts.apply, sent, 0)
    for c in channels:
        rec.step("channel.activeness_us", verify_activeness, c.ts, props)
    preds = w.predicates()
    rec.step("diagonal.fixed_point_us", find_fixed_point,
             build_enumeration(preds, max(len(preds), 1)))

    counting = CountingPerfectTS()
    probe = make_channel({"kind": "perfect"})
    probe.ts = counting
    truth = truth_from_channel(probe, w)
    for i in sample:
        rec.step("tarski.truth_us", truth, codes[i])
    for ts, received in ((channels[0].ts, codes), (channels[1].ts, sub_received)):
        decode = decoder_from_truth(truth, ts)
        for i in sample:
            rec.step("tarski.decoder_us", decode, received[i])
    if count:
        rec.counts["tarski.memo_calls"] += 3 * len(sample)
        rec.counts["tarski.memo_hits"] += 3 * len(sample) - counting.applies


def run(workload: str, seed: int, seconds: float, rec: Recorder) -> dict:
    deadline = time.perf_counter() + seconds
    wire_bytes = max_wire_bytes = 0
    density: list[float] = []
    true_share: list[float] = []
    channel_mix: Counter = Counter()
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        rng = rng_for(workload, seed, r)
        spec = gen_world(rng)
        sub_map = substitute_map(rng)
        configs = [{"kind": "perfect"}, {"kind": "substitute", "map": sub_map},
                   {"kind": "truncate", "max_bits": TRUNCATE_BITS},
                   {"kind": "perfect"}]
        models = [oracle.model_for(cfg) for cfg in configs]
        pred_codes = {name: PredicateCode(name) for name in spec.names}
        literals = [(pred_codes[n], m, pol) for n, m, pol in spec.literals]
        rows = spec.rows()
        props = [to_proposition(tree) for tree in rows]
        codes = [oracle.wire(oracle.body(tree)) for tree in rows]
        sub_received = [models[1].apply(code, 0) for code in codes]
        want_holds = [tree in spec.literals for tree in
                      ((name, m, pol) for pol, name, m in rows)]

        def build():
            return (World.build(spec.objects, literals),
                    [make_channel(cfg) for cfg in configs])

        w, channels = rec.setup(build)

        try:
            reports, passes = bridge_world(rec, channels, w, props, codes, sub_received)
            problems = [f"verify_bridge over {m.kind}"
                        for m, report in zip(models, reports)
                        if not report_ok(report, rows, expected_truth(m, codes, want_holds),
                                         want_holds)]
            problems += [name for name, values in zip(PASSES, passes)
                         if values != want_holds]
        except Exception as e:  # a raising op is a failed op, not a crash
            problems = [repr(e)]
        rec.outcome(not problems, f"world {r}: {'; '.join(problems)}")
        channel_mix.update(m.kind for m in models[:3])
        if r == 0:
            count_diagnostics(rec, models[:3], codes)

        if rec.trace:
            trace_world(rec, w, props, codes, channels[:3], sub_received, r == 0)
        wire_bytes += sum(map(len, codes))
        max_wire_bytes = max(max_wire_bytes, *map(len, codes))
        density.append(len(spec.literals) / (len(spec.names) * len(spec.objects)))
        true_share.append(sum(want_holds) / len(rows))
        r += 1

    return {
        "rounds": r,
        "inputs": {
            "worlds": r,
            "ground_rows_per_world": len(rows),
            "predicates": len(spec.names),
            "objects": len(spec.objects),
            "mean_literal_density": sum(density) / r,
            "mean_true_row_share": sum(true_share) / r,
            "mean_wire_bytes": wire_bytes / (r * len(rows)),
            "max_wire_bytes": max_wire_bytes,
            # each code reaches the truth memo three times: the truth pass,
            # then the two decoder passes
            "repeated_code_share": 2 / 3,
            "channel_mix": dict(channel_mix),
        },
    }
