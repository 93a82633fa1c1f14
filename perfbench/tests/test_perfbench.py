"""Tests of the benchmark itself: generators, reference model, checks, runs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semchan import (
    BitFlipTS,
    TruncateTS,
    World,
    check_transferable,
    encode_frame,
    frame_to_wire,
    ground_corpus,
    make_channel,
    render_proposition,
    verify_bridge,
)
from semchan.cli import handle_stream

from perfbench import bridge, oracle, stream, verdict
from perfbench.inputs import (
    gen_connection,
    gen_tree,
    gen_world,
    rng_for,
    substitute_map,
    to_proposition,
)
from perfbench.record import PROBE_NOMINAL_S, Recorder

ROOT = Path(__file__).resolve().parents[2]
# Round 0 of verdict-noisy for seed 1: the verdicts and received bits of the
# seeded bit-flip and truncate channels.  A change to the noise RNG stream
# changes it.
NOISY_SEED1_DIGEST = "6077474f018e91f4757da490b683c9e66bc2551d9f8736ea7cfd36c752ecdc2d"


def run_bench(workload, seed, trace, seconds="0.2", cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return out


def run_docs(workload, seed, trace):
    out = run_bench(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    detail, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


# -- generators ------------------------------------------------------------

@pytest.mark.parametrize("workload", ["verdict-clean", "verdict-noisy"])
def test_verdict_rounds_are_deterministic_per_seed(workload):
    assert verdict.plan_round(workload, 3, 1) == verdict.plan_round(workload, 3, 1)
    assert verdict.plan_round(workload, 3, 1) != verdict.plan_round(workload, 4, 1)
    assert verdict.plan_round(workload, 3, 0) != verdict.plan_round(workload, 3, 1)
    assert verdict.channel_configs(workload, 3) == verdict.channel_configs(workload, 3)


def test_world_and_connection_generators_are_deterministic_per_seed():
    assert gen_world(rng_for("w", 1)) == gen_world(rng_for("w", 1))
    assert gen_world(rng_for("w", 1)) != gen_world(rng_for("w", 2))
    assert gen_connection(rng_for("c", 1)) == gen_connection(rng_for("c", 1))
    assert gen_connection(rng_for("c", 1)) != gen_connection(rng_for("c", 2))


def test_world_has_the_stated_size():
    spec = gen_world(rng_for("w", 5))
    assert len(spec.names) == 20 and len(spec.objects) == 200
    assert len(spec.rows()) == 8000
    assert 0.75 < len(spec.literals) / 4000 < 0.85


def test_substitute_map_is_a_bijection_that_moves_sync():
    for seed in range(20):
        table = substitute_map(random.Random(seed))
        assert sorted(table.values()) == list(range(256))
        assert table[0xA5] != 0xA5


# -- reference model agrees with the program on valid inputs ---------------

def test_oracle_wire_and_render_match_program():
    rng = random.Random(11)
    for _ in range(500):
        tree = gen_tree(rng)
        p = to_proposition(tree)
        assert oracle.wire(oracle.body(tree)) == frame_to_wire(encode_frame(p))
        assert oracle.render(tree) == render_proposition(p)


def test_oracle_channels_match_program():
    rng = random.Random(12)
    flip, ref_flip = BitFlipTS(0.05, 9), oracle.BitFlip(0.05, 9)
    for n in range(200):
        data = oracle.wire(oracle.body(gen_tree(rng)))
        assert ref_flip.apply(data, n) == flip.apply(data, n)
        for bits in (0, 7, 100, 192, 1000):
            assert oracle.Truncate(bits).apply(data, n) == TruncateTS(bits).apply(data, n)


def test_oracle_liar_verdicts():
    perfect, dropper = oracle.Perfect(), oracle.Truncate(0)
    assert oracle.analysis_verdict(perfect, (True, "NT", "*"), 0)[0] == oracle.PARADOXICAL
    assert oracle.analysis_verdict(perfect, (True, "Err", "*"), 0)[0] == oracle.PARADOXICAL
    assert oracle.analysis_verdict(perfect, (True, "Tr", "*"), 0)[0] == oracle.TRANSFERABLE
    assert oracle.analysis_verdict(dropper, (True, "NT", "*"), 0)[0] == oracle.NON_TRANSFERABLE


# -- correctness checks reject doctored outputs ----------------------------

def test_verdict_check_rejects_a_flipped_verdict():
    rec = Recorder(trace=False, window=1)
    tree = (True, "ON", 112)
    op = verdict.Op("check", 0, tree)
    good = check_transferable(make_channel({"kind": "perfect"}), to_proposition(tree))
    stats = verdict.InputStats()
    assert verdict.verify_check(rec, oracle.Perfect(), op, 0, good, stats, False)[0]
    bad = dataclasses.replace(good, kind=oracle.NON_TRANSFERABLE, notes=("doctored",))
    assert not verdict.verify_check(rec, oracle.Perfect(), op, 0, bad, stats, False)[0]


def test_analysis_check_rejects_a_flipped_verdict():
    from semchan import analyze_self_reference, build_NT_all

    rec = Recorder(trace=False, window=1)
    op = verdict.Op("NT(*)", 2, (True, "NT", "*"))
    report = analyze_self_reference(make_channel({"kind": "perfect"}), build_NT_all())
    assert verdict.verify_analysis(rec, oracle.Perfect(), op, 0, report, False)[0]
    flipped = dataclasses.replace(
        report, verdict=dataclasses.replace(report.verdict, kind=oracle.TRANSFERABLE))
    assert not verdict.verify_analysis(rec, oracle.Perfect(), op, 0, flipped, False)[0]


def small_world():
    spec = gen_world(rng_for("small", 1), n_preds=2, n_objects=3)
    from semchan import PredicateCode

    w = World.build(spec.objects, [(PredicateCode(n), m, pol)
                                   for n, m, pol in spec.literals])
    rows = spec.rows()
    want_holds = [(name, m, pol) in spec.literals for pol, name, m in rows]
    return spec, w, rows, want_holds


def test_bridge_check_rejects_one_flipped_row():
    spec, w, rows, want_holds = small_world()
    assert [render_proposition(p) for p in ground_corpus(w)] == [
        oracle.render(t) for t in rows]
    report = verify_bridge(make_channel({"kind": "perfect"}), w,
                           [to_proposition(t) for t in rows])
    assert bridge.report_ok(report, rows, want_holds, want_holds)
    row = report.rows[0]
    doctored = dataclasses.replace(report, rows=(
        dataclasses.replace(row, truth=not row.truth),) + report.rows[1:])
    assert not bridge.report_ok(doctored, rows, want_holds, want_holds)


def test_bridge_expects_nothing_through_the_substitute():
    spec, w, rows, want_holds = small_world()
    cfg = {"kind": "substitute", "map": substitute_map(random.Random(3))}
    report = verify_bridge(make_channel(cfg), w, [to_proposition(t) for t in rows])
    codes = [oracle.wire(oracle.body(t)) for t in rows]
    want_truth = bridge.expected_truth(oracle.model_for(cfg), codes, want_holds)
    assert want_truth == [False] * len(rows)
    assert bridge.report_ok(report, rows, want_truth, want_holds)


def impaired_connection():
    conn = gen_connection(rng_for("impaired", 1), impaired=0.2, undecodable=0.1)
    assert conn.impaired_offsets and conn.undecodable_offsets
    lines, status = handle_stream(conn.payload)
    return conn, {"lines": lines, "status": status}


def test_stream_check_accepts_the_receiver_output():
    conn, answer = impaired_connection()
    assert stream.check_answer(conn, answer, None) == []


def test_stream_check_rejects_a_dropped_frame():
    conn, answer = impaired_connection()
    lines = list(answer["lines"])
    lines.remove(conn.clean_texts[3])
    assert stream.check_answer(conn, {"lines": lines}, None)


def test_stream_check_rejects_a_missing_diagnostic():
    conn, answer = impaired_connection()
    offset = conn.impaired_offsets[0]
    lines = [l for l in answer["lines"]
             if not (l.startswith("diagnostic ") and f"@{offset}:" in l)]
    assert stream.check_answer(conn, {"lines": lines}, None)


def test_stream_check_rejects_an_unreported_undecodable_frame():
    conn, answer = impaired_connection()
    lines = list(answer["lines"])
    lines.remove(next(l for l in lines if oracle.RECEIVER_UNDECODABLE.match(l)))
    assert stream.check_answer(conn, {"lines": lines}, None)


# -- the recorder ------------------------------------------------------------

def test_op_parts_make_one_latency():
    rec = Recorder(trace=False, window=2)
    for _ in range(2):
        rec.op(time.sleep, 0.01, units=5, last=False)
        rec.op(time.sleep, 0.01, units=5)
    assert rec.ops == 2 and rec.units == 20
    assert rec.wins[0]["samples"] == 2 and rec.wins[0]["p50_ms"] >= 20


def test_a_raising_part_drops_its_op():
    rec = Recorder(trace=False, window=1)
    rec.op(time.sleep, 0.05, last=False)
    with pytest.raises(ZeroDivisionError):
        rec.op(lambda: 1 / 0)
    rec.op(lambda: None)
    assert rec.ops == 1 and rec.wins[0]["p50_ms"] < 50


def test_timings_are_scaled_to_the_nominal_host_speed():
    rec = Recorder(trace=False, window=1)
    rec.op(time.sleep, 0.01, units=10)
    rec.setup(time.sleep, 0.01)
    rec.probes = [2 * PROBE_NOMINAL_S]  # a host twice as slow as nominal
    values, samples = rec.end_to_end()
    raw = samples["raw"]
    assert values["throughput_per_s"] == pytest.approx(2 * raw["throughput_per_s"])
    assert values["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / 2)
    # a set-up is scaled by the probe burst just before it
    assert values["setup_s"] == pytest.approx(raw["setup_s"] / rec._setup_slowdowns[0])


def test_each_window_is_scaled_by_its_own_probes():
    rec = Recorder(trace=False, window=1)
    for slowdown, seconds in ((1, 0.01), (3, 0.03)):
        rec._win_probes = [slowdown * PROBE_NOMINAL_S]
        rec.op(time.sleep, seconds, units=10)
    rec.setup(lambda: None)
    values, _ = rec.end_to_end()
    fast, slow = rec.wins
    assert (fast["slowdown"], slow["slowdown"]) == pytest.approx((1, 3))
    assert values["latency_p50_ms"] == pytest.approx((fast["p50_ms"] + slow["p50_ms"] / 3) / 2)
    assert values["throughput_per_s"] == pytest.approx(
        20 / (fast["busy_s"] + slow["busy_s"] / 3))


# -- whole runs --------------------------------------------------------------

@pytest.mark.parametrize("workload", ["verdict-clean", "verdict-noisy",
                                      "bridge-world", "stream-loopback"])
def test_traced_and_untraced_runs_report_identical_counts(workload):
    plain, plain_result = run_docs(workload, 7, 0)
    again, _ = run_docs(workload, 7, 0)
    traced, traced_result = run_docs(workload, 7, 1)
    assert plain_result["correct"] and traced_result["correct"]
    assert plain["counts_round0"] == again["counts_round0"]
    # the traced run adds counters of its own (memo hits, the replayed receiver)
    traced_counts = traced["counts_round0"]
    assert {k: traced_counts.get(k) for k in plain["counts_round0"]} == plain["counts_round0"]
    assert plain.get("round0_digest") == traced.get("round0_digest")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(plain_result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced_result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(m["value"] > 0 for m in plain_result["metrics"].values())


def test_noisy_digest_is_pinned():
    detail, result = run_docs("verdict-noisy", 1, 0)
    assert result["correct"]
    assert detail["round0_digest"] == NOISY_SEED1_DIGEST


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("verdict-clean", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
