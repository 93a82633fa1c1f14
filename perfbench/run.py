"""Benchmark entry point for semchan.

    python3 perfbench/run.py --workload verdict-clean --seed 1 --seconds 10 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) against the
sources in ``src/`` of the checkout it sits in, checks every output against
the reference model, and prints two JSON lines: the full result with its
metadata and input properties, then the summary line (``correct``,
``attempted``, ``failed``, ``metrics``).  With ``--trace 0``
the metrics are the end-to-end ones; ``--trace 1`` makes a separate traced
run that also times each layer's public functions on the same inputs and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verdict-clean", "verdict-noisy", "bridge-world", "stream-loopback")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS,
                        help="the one workload to run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, root: Path) -> dict:
    link = ("loopback, not a real link" if args.workload == "stream-loopback"
            else "in-process, no link")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller",
        "link": link,
    }


def select(spec: list[dict], values: dict) -> dict:
    """The metrics named in BENCHMARK.json; a layer the workload does not use reads 0."""
    names = {m["name"] for m in spec}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "semchan" / "__init__.py").is_file():
        print(f"no semchan sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(src), str(ROOT)]
    # The workload seed comes from --seed alone; semchan would let this
    # variable override every channel seed.
    os.environ.pop("SEMCHAN_SEED", None)

    from perfbench.record import Recorder, rate

    if args.workload.startswith("verdict"):
        from perfbench import verdict as workload
    elif args.workload == "bridge-world":
        from perfbench import bridge as workload
    else:
        from perfbench import stream as workload

    rec = Recorder(trace=bool(args.trace), window=workload.WINDOW)
    detail = workload.run(args.workload, args.seed, args.seconds, rec)
    e2e, samples = rec.end_to_end()
    e2e["peak_rss_mb"] = detail.pop("peak_rss_mb", None) or (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    layers = rec.layer_values(e2e, samples)
    if args.trace:
        metrics = select(spec["per_layer"], layers)
    else:
        metrics = select(spec["end_to_end"], e2e)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    document = {
        "meta": metadata(args, ROOT),
        "error_rate": rate(rec.failed, rec.attempted),
        "failures": rec.failure_notes,
        "samples": samples,
        "end_to_end": e2e,
        "per_layer": layers if args.trace else None,
        "counts_round0": dict(sorted(rec.counts.items())),
        **detail,
    }
    print(json.dumps(document, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
