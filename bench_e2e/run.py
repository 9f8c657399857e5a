"""End-to-end benchmark of the SMT-AVF reproduction.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload paper-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` runs one workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` replays every workload stage by stage
in one traced process and reports the per-layer metrics (see
``traced.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--write-pins``
regenerates ``pins.json`` (the default seed's output digests) instead.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from service_client import Server, run_stream  # noqa: E402

#: Fresh service campaigns whose result digests ``--write-pins`` records.
PINNED_SERVICE_CAMPAIGNS = 1000
#: Live campaigns (each with its own strike seed) ``--write-pins`` records.
PINNED_LIVE_CAMPAIGNS = 40


def host_control() -> float:
    """Median time of a fixed pure-Python loop that imports nothing from
    ``repro``: tells a slow host from a slow commit."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _reference(workload: str, seed: int) -> dict:
    if seed == common.DEFAULT_SEED:
        return common.load_pins().get(workload, {})
    return {}


# -- workloads (untraced) ----------------------------------------------------------


def _run_children(workload: str, seed: int, seconds: float, work: Path):
    """One child per cold operation until ``seconds`` have passed; returns
    (set-up seconds, child results)."""
    setups: List[float] = []
    outs: List[dict] = []
    deadline = time.monotonic() + seconds
    while not outs or time.monotonic() < deadline:
        workdir = work / f"op{len(outs)}"
        setup_s, out = common.spawn_child(workload, seed, len(outs), workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        setups.append(setup_s)
        outs.append(out)
    return setups, outs


def _child_metrics(setups: List[float], outs: List[dict], units: str):
    """Gated metrics of a child-run workload; ``outs[i][units]`` counts
    the work of cold operation ``i``."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cold_op_s": (statistics.median(o["cold_s"] for o in outs), "s"),
        "work_per_s": (statistics.median(o[units] / o["cold_s"]
                                         for o in outs), "1/s"),
    }


def _warm_median(outs: List[dict]) -> float:
    return statistics.median(s for out in outs for s in out["warm_s"])


def paper_sweep(seed: int, seconds: float, work: Path):
    setups, passes = _run_children("paper-sweep", seed, seconds, work)
    ref = _reference("paper-sweep", seed) or passes[0]
    attempted = failed = 0
    for out in passes:
        renders = len(out["artefacts"]) * (1 + len(out["warm_artefacts"]))
        attempted += out["jobs"] + renders
        failed += (common.count_mismatches(out["records"], ref["records"])
                   + common.count_mismatches(out["artefacts"],
                                             ref["artefacts"])
                   + sum(common.count_mismatches(w, ref["artefacts"])
                         for w in out["warm_artefacts"])
                   + out["warm_simulated"])
    metrics = _child_metrics(setups, passes, "jobs")
    detail = {"sweep_cold_s": metrics["cold_op_s"][0],
              "sweep_warm_s": _warm_median(passes),
              "cold_passes": len(passes),
              "warm_passes": sum(len(p["warm_s"]) for p in passes),
              "jobs_per_pass": passes[0]["jobs"]}
    return attempted, failed, metrics, detail


def live_strikes(seed: int, seconds: float, work: Path):
    setups, campaigns = _run_children("live-strikes", seed, seconds, work)
    pinned = _reference("live-strikes", seed).get("campaigns", [])
    attempted = failed = 0
    for index, out in enumerate(campaigns):
        # Each campaign draws its own strikes: its warm reruns must agree
        # with it, and on the default seed so must the pinned digests.
        ref = pinned[index] if index < len(pinned) else out["batches"]
        attempted += len(out["batches"]) * (1 + len(out["warm_batches"]))
        failed += (common.count_mismatches(out["batches"], ref)
                   + sum(common.count_mismatches(w, ref)
                         for w in out["warm_batches"])
                   + out["warm_executed"])
    metrics = _child_metrics(setups, campaigns, "strikes")
    detail = {"strikes_per_s": metrics["work_per_s"][0],
              "warm_rerun_ms": _warm_median(campaigns) * 1e3,
              "campaigns": len(campaigns),
              "strikes_per_campaign": campaigns[0]["strikes"]}
    return attempted, failed, metrics, detail


def service_stream(seed: int, seconds: float, work: Path):
    pinned = _reference("service-stream", seed).get("fresh", [])
    setups: List[float] = []
    server = None
    try:
        for boot in range(common.SERVICE_BOOTS):
            if server is not None:
                server.stop()
            server = Server(work / f"state{boot}")
            setups.append(server.setup_s)
        started = time.monotonic()
        deadline = started + seconds
        ops = run_stream(server, seed, common.service_ops(seed),
                         lambda fresh: fresh == 0
                         or time.monotonic() < deadline)
        stream_s = time.monotonic() - started
    finally:
        if server is not None:
            server.stop()
    failed = sum(1 for op in ops if not op["ok"])
    first: Dict[int, str] = {}
    for op in ops:
        if op["kind"] == "fresh":
            first[op["index"]] = op["digest"]
            if op["index"] < len(pinned):
                failed += op["digest"] != pinned[op["index"]]
        else:
            failed += op["digest"] != first[op["index"]]
    fresh = [op["seconds"] for op in ops if op["kind"] == "fresh"]
    repeat = [op["seconds"] for op in ops if op["kind"] == "repeat"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_op_s": (statistics.median(fresh), "s"),
        "work_per_s": (len(ops) / stream_s, "1/s"),
    }
    detail = {"campaigns_per_s": metrics["work_per_s"][0],
              "fresh_p50_s": metrics["cold_op_s"][0],
              "fresh_p90_s": common.quantile(fresh, 0.9),
              "fresh_samples": len(fresh),
              "fresh_beyond_p90": common.beyond(fresh, 0.9),
              "repeat_p50_ms": statistics.median(repeat) * 1e3,
              "repeat_samples": len(repeat)}
    return len(ops), failed, metrics, detail


WORKLOAD_RUNNERS = {"paper-sweep": paper_sweep,
                    "live-strikes": live_strikes,
                    "service-stream": service_stream}


# -- pins --------------------------------------------------------------------------


def write_pins(work: Path) -> None:
    """Record the default seed's output digests in ``pins.json``."""
    seed = common.DEFAULT_SEED
    _, sweep = common.spawn_child("paper-sweep", seed, 0, work / "sweep")
    live = [common.spawn_child("live-strikes", seed, index,
                               work / f"live{index}")[1]["batches"]
            for index in range(PINNED_LIVE_CAMPAIGNS)]
    server = Server(work / "state")
    try:
        ops = run_stream(server, seed, common.service_ops(seed),
                         lambda fresh: fresh < PINNED_SERVICE_CAMPAIGNS)
    finally:
        server.stop()
    if not all(op["ok"] for op in ops):
        raise RuntimeError("a service campaign failed while pinning")
    pins = {
        "seed": seed,
        "paper-sweep": {"records": sweep["records"],
                        "artefacts": sweep["artefacts"]},
        "live-strikes": {"campaigns": live},
        "service-stream": {"fresh": [op["digest"] for op in ops
                                     if op["kind"] == "fresh"]},
    }
    common.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                                + "\n")
    print(f"wrote {common.PINS_PATH}")


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS,
                        default="paper-sweep")
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (common.SRC / "repro").is_dir():
        print(f"error: no simulator sources at {common.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    out_dir = common.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        if args.write_pins:
            write_pins(work)
            return 0
        host_s = host_control()
        if args.trace:
            import traced

            attempted, failed, metrics, detail = traced.run(
                args.seed, work, host_s)
        else:
            runner = WORKLOAD_RUNNERS[args.workload]
            attempted, failed, metrics, detail = runner(
                args.seed, args.seconds, work)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            detail["host_control_s"] = host_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
