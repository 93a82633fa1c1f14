"""stream-loopback: ``semchan serve --json`` fed framed streams over TCP.

One server subprocess serves the whole run; one client in a closed loop
opens one connection at a time, sends one pre-built stream of about 64
frames, half-closes, and waits for the server's JSON line for that
connection.  Latency runs from connect to that line.  Streams come from a
pool of POOL_SIZE connections built from the seed; a round is one pass over
the pool.  About 5% of frames carry one flipped bit, about 10% of gaps hold
a garbage run, and about 1% of frames are CRC-valid but undecodable
(non-ASCII name bytes).  Traffic crosses the host loopback, not a real link.

The set-up sample is starting a server and having it answer a first, empty
connection; it is taken SETUP_STARTS times and the last server is kept.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import socket
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from semchan import crc16, decode_frame, render_proposition, wire_to_frames
from semchan.cli import handle_stream

from . import oracle
from .inputs import gen_connection, rng_for
from .record import Recorder

POOL_SIZE = 64
SETUP_STARTS = 5
WINDOW = 1024  # connections: enough for a p99 with ten beyond it
TIMEOUT_S = 10.0
HOST = "127.0.0.1"


class LineReader:
    """Reads newline-terminated lines from a pipe with a timeout."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buffer = b""
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)

    def readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self.selector.select(left):
                raise TimeoutError("no line from the server")
            chunk = os.read(self.fd, 65536)
            if not chunk:
                raise EOFError("server closed its output")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        self.selector.close()


class Server:
    """One ``semchan serve --json`` subprocess on a free loopback port."""

    def __init__(self, root: Path):
        with socket.socket() as probe:
            probe.bind((HOST, 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "semchan", "serve", "--host", HOST,
             "--port", str(self.port), "--json"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.reader = LineReader(self.proc.stdout)

    def connect(self) -> socket.socket:
        """Connect, retrying while the server is still starting."""
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            try:
                return socket.create_connection((HOST, self.port), timeout=TIMEOUT_S)
            except ConnectionRefusedError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.001)

    def exchange(self, payload: bytes) -> dict:
        """Send one stream on its own connection; return the server's answer."""
        with self.connect() as s:
            s.sendall(payload)
            s.shutdown(socket.SHUT_WR)
            return json.loads(self.reader.readline(TIMEOUT_S))

    def stop(self) -> str:
        """Stop the server, wait for it, and return what it wrote to stderr."""
        self.reader.close()
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            _, err = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        return err.decode(errors="replace")


def start_server(root: Path) -> Server:
    server = Server(root)
    try:
        server.exchange(b"")
    except Exception:
        err = server.stop()
        raise RuntimeError(f"server did not start: {err.strip()}") from None
    return server


def check_answer(conn, answer: dict, counts: Counter | None) -> list[str]:
    """What the server got wrong for one connection (empty when correct)."""
    texts, diags, undecodable = [], [], 0
    for line in answer["lines"]:
        m = oracle.RECEIVER_DIAGNOSTIC.match(line)
        if m:
            diags.append((m.group(1), int(m.group(2))))
        elif oracle.RECEIVER_UNDECODABLE.match(line):
            undecodable += 1
        else:
            texts.append(line)
    offsets = {offset for _, offset in diags}
    undecodable += sum(o in offsets for o in conn.undecodable_offsets)
    problems = []
    if texts != list(conn.clean_texts):
        problems.append(f"recovered {len(texts)} frames, want {len(conn.clean_texts)} "
                        "clean frames in order")
    missed = [o for o in conn.impaired_offsets if o not in offsets]
    if missed:
        problems.append(f"no diagnostic for impaired frames at {missed}")
    if undecodable != len(conn.undecodable_offsets):
        problems.append(f"{undecodable} undecodable frames reported, "
                        f"want {len(conn.undecodable_offsets)}")
    if counts is not None:
        counts.update(f"wire.diagnostics.{kind}" for kind, _ in diags)
        counts["cli.undecodable_frames"] += undecodable
        counts["wire.intact_sent"] += len(conn.clean_texts)
        counts["wire.intact_recovered"] += sum(
            a == b for a, b in zip(texts, conn.clean_texts))
    return problems


def trace_connection(rec: Recorder, conn) -> None:
    """Replay one connection's stream through the receive path in-process."""
    frames, _ = rec.step("wire.scan_us_per_frame", wire_to_frames, conn.payload,
                         per=conn.n_frames)
    rec.step("cli.handle_stream_us_per_frame", handle_stream, conn.payload,
             per=conn.n_frames)
    for frame in frames:
        try:
            p = rec.step("codec.decode_us", decode_frame, frame)
        except ValueError:
            continue
        rec.step("model.render_us", render_proposition, p)
    for offset, length in conn.clean_spans:
        rec.step("wire.crc16_us", crc16, conn.payload[offset + 2:offset + length - 2])


def run(workload: str, seed: int, seconds: float, rec: Recorder) -> dict:
    root = Path(__file__).resolve().parent.parent
    pool = [gen_connection(rng_for(workload, seed, i)) for i in range(POOL_SIZE)]
    servers = []
    try:
        for _ in range(SETUP_STARTS):
            if servers:
                servers[-1].stop()
            servers.append(rec.setup(start_server, root))
        server = servers[-1]
        deadline = time.perf_counter() + seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            for conn in pool:
                try:
                    answer = rec.op(server.exchange, conn.payload, units=conn.n_frames)
                    problems = check_answer(conn, answer, rec.counts if r == 0 else None)
                except (OSError, ValueError, EOFError) as e:
                    problems = [repr(e)]
                rec.outcome(not problems, f"round {r}: {'; '.join(problems)}")
                if rec.trace:
                    trace_connection(rec, conn)
            r += 1
    finally:
        for server in servers:
            server.stop()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    frames = sum(c.n_frames for c in pool)
    sizes = [length for c in pool for _, length in c.clean_spans]
    depths = Counter(d for c in pool for d in c.depths)
    return {
        "rounds": r,
        "peak_rss_mb": peak,
        "inputs": {
            "pool_connections": POOL_SIZE,
            "connections_sent": r * POOL_SIZE,
            "repeated_connection_share": 1 - 1 / r,
            "frames_per_connection": frames / POOL_SIZE,
            "mean_clean_frame_bytes": sum(sizes) / len(sizes),
            "max_clean_frame_bytes": max(sizes),
            "stream_bytes_per_connection": sum(len(c.payload) for c in pool) / POOL_SIZE,
            "impaired_share": sum(len(c.impaired_offsets) for c in pool) / frames,
            "undecodable_share": sum(len(c.undecodable_offsets) for c in pool) / frames,
            "garbage_runs_per_frame": sum(c.garbage_runs for c in pool) / frames,
            "depth_histogram": {str(d): n for d, n in sorted(depths.items())},
            "channel_mix": {"loopback": r * POOL_SIZE},
        },
    }
