"""What one run measures: op latencies, set-up times, layer step times, counts."""

from __future__ import annotations

import statistics
import time
from collections import Counter

MAX_FAILURE_NOTES = 5
# Counters that only feed ratios; they are not metrics of their own.
RATIO_COUNTS = ("wire.intact_sent", "wire.intact_recovered",
                "tarski.memo_calls", "tarski.memo_hits")
# The wire parser's diagnostic kinds; any other kind counts as "other".
DIAGNOSTIC_KINDS = ("garbage", "crc", "body", "version", "truncated")
# The host probe: a short fixed loop of the interpreter work the program does
# (dict inserts, str building), timed PROBE_REPEATS times between ops
# whenever PROBE_EVERY_S of op time has passed.  Timings are reported at the
# host speed at which the probe's median is PROBE_NOMINAL_S.
PROBE_N = 200
PROBE_REPEATS = 20
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 30e-6


def rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def host_probe() -> int:
    table = {}
    for i in range(PROBE_N):
        table[i] = str(i)
    return len(table)


def latency_summary(samples: list[float]) -> dict:
    """Median and p99 in ms, with the sample count behind each.

    ``p99_beyond`` is how many samples lie above the p99; below ten the tail
    percentile rests on too few samples to read on its own.
    """
    n = len(samples)
    if n < 2:
        value = samples[0] * 1e3 if samples else 0.0
        return {"samples": n, "p50_ms": value, "p99_ms": value, "p99_beyond": 0}
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return {"samples": n, "p50_ms": statistics.median(samples) * 1e3,
            "p99_ms": q[98] * 1e3, "p99_beyond": n // 100}


class Recorder:
    """Collects one run's samples.

    ``op`` times a call into the program's public API that a user would
    make; its latencies feed the end-to-end metrics.  ``step`` times one
    public function of one layer on the same inputs; it is used only in the
    traced run and never inside an op's timed interval.  ``counts`` hold the
    outcome counters of the run's first round, whose inputs depend only on
    the seed, so they repeat exactly across runs and between traced and
    untraced runs.

    The ops of a run are cut into windows of ``window`` consecutive ops,
    and only each window's summary is kept, so memory does not grow with
    the length of the run.  Each window also keeps the host slowdown that
    the probes taken during it measured.  An op may be timed in parts
    (``last=False`` on all but the final part), so that the host probe can
    run between them.
    """

    def __init__(self, trace: bool, window: int):
        self.trace = trace
        self.window = window
        self.wins: list[dict] = []
        self._lat: list[float] = []
        self._units = 0
        self._part = 0.0
        self._since_probe = 0.0
        self._win_probes: list[float] = []
        self.probes: list[float] = []
        self.ops = 0
        self.units = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failure_notes: list[str] = []
        self.setups: list[float] = []
        self._setup_slowdowns: list[float] = []
        self.steps: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self.step_seconds = 0.0

    def op(self, fn, *args, units: int = 1, layer: str | None = None,
           last: bool = True):
        """Run one op, or one part of it, that does ``units`` of work.

        Exceptions propagate, and the parts of the op already timed are
        dropped from the latencies.  In a traced run the call's own time is
        also reported as ``layer``.
        """
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self._part = 0.0
            raise
        dt = time.perf_counter() - t0
        self._part += dt
        self._units += units
        self.units += units
        self.busy += dt
        if last:
            self._lat.append(self._part)
            self._part = 0.0
            self.ops += 1
            if len(self._lat) == self.window:
                self.wins.append(self._close_window())
        self._since_probe += dt
        if self._since_probe >= PROBE_EVERY_S:
            self.probe()
        if self.trace and layer:
            self.add_step(layer, dt, busy=False)
        return result

    def probe(self) -> float:
        """Time one burst of host probes; returns the burst's slowdown."""
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            host_probe()
            self._win_probes.append(time.perf_counter() - t0)
        burst = self._win_probes[-PROBE_REPEATS:]
        self.probes += burst
        self._since_probe = 0.0
        return statistics.median(burst) / PROBE_NOMINAL_S

    def _close_window(self) -> dict:
        summary = latency_summary(self._lat)
        summary["busy_s"] = sum(self._lat)
        summary["units"] = self._units
        summary["slowdown"] = (statistics.median(self._win_probes) / PROBE_NOMINAL_S
                               if self._win_probes else None)
        self._lat, self._units, self._win_probes = [], 0, []
        return summary

    def setup(self, fn, *args):
        slowdown = self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        self.setups.append(time.perf_counter() - t0)
        self._setup_slowdowns.append(slowdown)
        return result

    def step(self, name: str, fn, *args, per: int = 1):
        """Time one layer call; ``per`` is the number of items it handled."""
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        self.add_step(name, dt, per)
        return result

    def add_step(self, name: str, seconds: float, per: int = 1,
                 busy: bool = True) -> None:
        """Add a layer time; ``busy`` is False for time the steps did not add."""
        total = self.steps.setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += per
        if busy:
            self.step_seconds += seconds

    def step_us(self, name: str) -> float:
        seconds, n = self.steps.get(name, (0.0, 0))
        return seconds / n * 1e6 if n else 0.0

    def count_scan(self, intact: bool, frames, diags) -> None:
        """Count one received stream's diagnostics, and whether an intact
        frame was recovered."""
        for d in diags:
            self.counts[f"wire.diagnostics.{d.kind}"] += 1
        if intact:
            self.counts["wire.intact_sent"] += 1
            self.counts["wire.intact_recovered"] += len(frames) == 1 and not diags

    def outcome(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failure_notes) < MAX_FAILURE_NOTES:
                self.failure_notes.append(note)

    def end_to_end(self) -> tuple[dict, dict]:
        """The end-to-end metrics, and the samples behind them.

        Each window's op time is scaled to the nominal host speed by the
        slowdown its own probes measured (a window without probes takes the
        one before it): on a shared virtual machine the same work ran up to
        twice as slow from one stretch of seconds or minutes to the next,
        and the probe slows with it.  Throughput is the windows' units over
        their scaled op time and median latency is the median of the
        windows' scaled medians; each set-up is scaled by a probe burst
        taken just before it.  The raw figures are kept in the samples, and so is the
        p99, which is not an end-to-end metric: between runs of the same
        code it moved by more than any bound the benchmark may set.
        """
        if not self.probes:
            self.probe()
        run_slowdown = statistics.median(self.probes) / PROBE_NOMINAL_S
        wins = self.wins or [self._close_window()]  # a run shorter than a window
        probed = sum(1 for w in wins if w["slowdown"])
        slowdown = run_slowdown
        for w in wins:
            slowdown = w["slowdown"] = w["slowdown"] or slowdown
        raw = {
            "throughput_per_s": rate(self.units, self.busy),
            "latency_p50_ms": statistics.median(w["p50_ms"] for w in wins),
            "p99_ms": statistics.median(w["p99_ms"] for w in wins),
            "setup_s": statistics.median(self.setups),
        }
        values = {
            "throughput_per_s": rate(sum(w["units"] for w in wins),
                                     sum(w["busy_s"] / w["slowdown"] for w in wins)),
            "latency_p50_ms": statistics.median(w["p50_ms"] / w["slowdown"] for w in wins),
            "setup_s": statistics.median(
                t / k for t, k in zip(self.setups, self._setup_slowdowns)),
        }
        samples = {
            "raw": raw,
            "p99_ms": statistics.median(w["p99_ms"] / w["slowdown"] for w in wins),
            "host_probe": {
                "probes": len(self.probes),
                "mean_ms": statistics.fmean(self.probes) * 1e3,
                "median_ms": statistics.median(self.probes) * 1e3,
                "nominal_ms": PROBE_NOMINAL_S * 1e3,
                "run_slowdown": run_slowdown,
                "windows_probed": probed,
            },
            "window_ops": self.window,
            "windows": len(wins),
            "window_samples": wins[0]["samples"],
            "window_p99_beyond": wins[0]["p99_beyond"],
            "ops": self.ops,
            "busy_s": self.busy,
            "setups": len(self.setups),
        }
        return values, samples

    def layer_values(self, e2e: dict, samples: dict) -> dict:
        """Per-layer metrics: mean step times in us, round-0 counts, ratios.

        ``trace.throughput_per_s`` repeats this run's end-to-end throughput,
        so that the traced run states its own speed beside the untraced one;
        ``trace.latency_p99_ms`` is the median of this run's scaled window p99s.
        """
        values = {name: self.step_us(name) for name in self.steps}
        for name, n in self.counts.items():
            if name in RATIO_COUNTS:
                continue
            prefix, _, kind = name.rpartition(".")
            if prefix == "wire.diagnostics" and kind not in DIAGNOSTIC_KINDS:
                name = "wire.diagnostics.other"
            values[name] = values.get(name, 0) + n
        values["wire.frames_recovered_ratio"] = rate(
            self.counts["wire.intact_recovered"], self.counts["wire.intact_sent"])
        values["tarski.memo_hit_ratio"] = rate(
            self.counts["tarski.memo_hits"], self.counts["tarski.memo_calls"])
        values["trace.throughput_per_s"] = e2e["throughput_per_s"]
        values["trace.latency_p99_ms"] = samples["p99_ms"]
        values["trace.step_time_share"] = rate(self.step_seconds, self.busy)
        return values
