"""One cold operation and its warm repeats, in a fresh process.

Usage: ``python3 bench_e2e/child.py <paper-sweep|live-strikes> <seed> <index> <dir>``

``index`` numbers the cold operations of one run; a live campaign takes
its seed from it (``common.live_seed``), a sweep ignores it.

Prints ``READY`` once its imports are done (the parent times set-up up to
that line), then one JSON line with the timings and output digests.  A
fresh process per cold operation is what a user gets from one
``repro-sim reproduce`` or ``repro-sim inject --live`` call: nothing a
previous operation memoised in-process can make it look faster.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))


def sweep(seed: int, index: int, workdir: Path) -> dict:
    from repro.experiments.reproduce import run_all
    from repro.experiments.runner import ExperimentScale, ResultCache

    print("READY", flush=True)
    scale = ExperimentScale(instructions_per_thread=common.SWEEP_SCALE,
                            seed=seed)
    cache_dir = workdir / "cache"
    cache = ResultCache(cache_dir=cache_dir)
    started = time.perf_counter()
    run_all(workdir / "cold", scale=scale, only=list(common.SWEEP_ARTEFACTS),
            jobs=common.WORKERS, cache=cache)
    cold_s = time.perf_counter() - started

    warm_s, warm_artefacts, warm_simulated = [], [], 0
    for i in range(common.SWEEP_WARM_PASSES):
        warm = ResultCache(cache_dir=cache_dir)
        started = time.perf_counter()
        run_all(workdir / f"warm{i}", scale=scale,
                only=list(common.SWEEP_ARTEFACTS), jobs=common.WORKERS,
                cache=warm)
        warm_s.append(time.perf_counter() - started)
        warm_simulated += warm.simulated
        warm_artefacts.append(artefact_digests(workdir / f"warm{i}"))

    records = {}
    for path in sorted(cache_dir.glob("*.json")):
        entry = json.loads(path.read_text())
        records[path.stem] = common.job_record_digest(entry["result"])
    return {"cold_s": cold_s, "warm_s": warm_s, "jobs": cache.simulated,
            "records": records,
            "artefacts": artefact_digests(workdir / "cold"),
            "warm_artefacts": warm_artefacts,
            "warm_simulated": warm_simulated}


def artefact_digests(out_dir: Path) -> dict:
    return {name: common.sha((out_dir / f"{name}.txt").read_bytes())
            for name in common.SWEEP_ARTEFACTS}


def live_batch_digests(result, seed: int, campaign: int) -> dict:
    """Per-batch digests of a live campaign's strike records."""
    from repro.faultinject.live import plan_live_batches

    by_key = {(r.structure, r.index): r.to_payload() for r in result.records}
    return {job.label: common.records_digest(
                by_key.get((job.structure, i)) for i in job.indices)
            for job in plan_live_batches(**live_args(seed, campaign))}


def live_args(seed: int, campaign: int) -> dict:
    from repro.config import SimConfig

    programs = list(common.LIVE_PROGRAMS)
    campaign_seed = common.live_seed(seed, campaign)
    return {"workload": programs, "injections": common.LIVE_STRIKES,
            "policy": "ICOUNT", "seed": campaign_seed,
            "sim": SimConfig(
                max_instructions=common.LIVE_INSTRUCTIONS * len(programs),
                seed=campaign_seed)}


def live(seed: int, campaign: int, workdir: Path) -> dict:
    from repro.faultinject import run_live_campaign

    print("READY", flush=True)
    cache_dir = workdir / "batches"
    args = live_args(seed, campaign)
    started = time.perf_counter()
    result = run_live_campaign(**args, jobs=common.WORKERS,
                               cache_dir=cache_dir)
    cold_s = time.perf_counter() - started

    warm_s, warm_batches, warm_executed = [], [], 0
    for _ in range(common.LIVE_WARM_PASSES):
        started = time.perf_counter()
        rerun = run_live_campaign(**args, jobs=common.WORKERS,
                                  cache_dir=cache_dir)
        warm_s.append(time.perf_counter() - started)
        warm_executed += rerun.batches_executed
        warm_batches.append(live_batch_digests(rerun, seed, campaign))
    return {"cold_s": cold_s, "warm_s": warm_s,
            "strikes": len(result.records),
            "batches": live_batch_digests(result, seed, campaign),
            "warm_batches": warm_batches, "warm_executed": warm_executed}


def main(argv) -> int:
    workload, seed, index, workdir = (argv[0], int(argv[1]), int(argv[2]),
                                      Path(argv[3]))
    run = {"paper-sweep": sweep, "live-strikes": live}[workload]
    print(json.dumps(run(seed, index, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
