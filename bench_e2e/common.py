"""Workload parameters, the service spec stream, child processes and
output digests.

Standard library only: the orchestrating process imports this module and
nothing from ``repro``, so its own memory and start-up stay out of the
measurements.  Child processes and the traced run import it too, which is
what keeps every pass of one workload on identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
CHILD = BENCH_DIR / "child.py"

#: One child (a cold pass plus its warm repeats) must finish within this.
CHILD_TIMEOUT_S = 150

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 1

WORKLOADS = ("paper-sweep", "live-strikes", "service-stream")

# -- paper-sweep -------------------------------------------------------------------

#: Figures 5-8: 2, 4 and 8 contexts, all six fetch policies, CPU/MIX/MEM
#: mixes and fig8's single-thread reruns.
SWEEP_ARTEFACTS = ("fig5_context_scaling", "fig6_fetch_policies",
                   "fig7_policy_efficiency", "fig8_fairness")
#: Instructions per context.  Small enough that one cold pass (~120
#: simulations) takes a few seconds on two cores.
SWEEP_SCALE = 100
WORKERS = 2
#: Warm passes per cold pass; the warm pass is ~0.2 s, so one sample per
#: child would be mostly scheduler noise.
SWEEP_WARM_PASSES = 8

# -- live-strikes ------------------------------------------------------------------

LIVE_PROGRAMS = ("gcc", "mcf")
LIVE_INSTRUCTIONS = 300          # per thread
LIVE_STRIKES = 8                 # per structure, all six structures
#: A warm rerun reads six cached batches in a few milliseconds.
LIVE_WARM_PASSES = 20


def live_seed(seed: int, campaign: int) -> int:
    """Simulation and strike seed of the ``campaign``-th campaign of a run.

    A campaign's cost moves with its golden run and with how many strikes
    land MASKED_IDLE (cheap), both set by the seed; so each campaign of a
    run gets its own seed and the run's median averages over several.
    """
    return seed * 1000 + campaign


# -- service-stream ----------------------------------------------------------------

#: Resubmissions of already finished specs after each fresh campaign.
SERVICE_REPEATS = 2
#: Server boots per run; each gives one ``setup_s`` sample and only the
#: last one serves the stream.
SERVICE_BOOTS = 3
#: Fresh campaigns in the traced run's stream (a fixed count, so the
#: in-process replay can repeat it exactly).
SERVICE_TRACED_FRESH = 24
#: Seven programs, so the rotation below meets every program under both
#: campaign kinds.
_SERVICE_PROGRAMS = ("gcc", "mcf", "bzip2", "twolf", "vpr", "equake",
                     "crafty")
_SERVICE_STRUCTURES = ("iq", "rob", "lsq_tag", "lsq_data", "reg", "fu")


def service_spec(seed: int, index: int) -> Dict[str, object]:
    """The ``index``-th fresh campaign spec of the stream for ``seed``.

    Three ``live`` specs to one ``interval`` spec, programs in rotation,
    one size.  An interval campaign costs about a third of a live one, so
    an even mix would put the median in the gap between the two; and a
    program costs up to three times another, so a random draw of
    programs or sizes would move the median from seed to seed.  The seed
    picks the struck structures and each spec's own campaign seed, so no
    two fresh specs share a digest.
    """
    rng = random.Random(f"service/{seed}/{index}")
    spec: Dict[str, object] = {
        "kind": "interval" if index % 4 == 3 else "live",
        "workload": [_SERVICE_PROGRAMS[(seed + index)
                                       % len(_SERVICE_PROGRAMS)]],
        "instructions": 80,
        "strikes": 6,
        "structures": rng.sample(_SERVICE_STRUCTURES, 2),
        "seed": seed * 1_000_003 + index,
    }
    if spec["kind"] == "live":
        # Two strikes per batch: every live campaign has several batches,
        # so its supervised pool really starts two workers.
        spec["strike_batch"] = 2
    return spec


def service_ops(seed: int) -> Iterator[Tuple[str, int]]:
    """The closed-loop operation stream: ``("fresh", i)`` followed by
    :data:`SERVICE_REPEATS` ``("repeat", j)`` with ``j <= i`` drawn from
    the finished specs."""
    rng = random.Random(f"service-ops/{seed}")
    index = 0
    while True:
        yield "fresh", index
        for _ in range(SERVICE_REPEATS):
            yield "repeat", rng.randint(0, index)
        index += 1


def spawn_child(workload: str, seed: int, index: int,
                workdir: Path) -> Tuple[float, dict]:
    """Run ``child.py`` once; returns (set-up seconds, its JSON result).

    Set-up runs from spawning the process until it prints ``READY``, after
    its imports.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), str(index),
         str(workdir)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed "
                           f"(exit {proc.returncode}, first line {first!r})")
    return setup_s, json.loads(out.strip().splitlines()[-1])


# -- digests -----------------------------------------------------------------------


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def job_record_digest(payload: Dict[str, object]) -> str:
    """Digest of one simulation's checked statistics: cycles, committed
    instructions and per-structure AVF (from a ``SimResult`` payload)."""
    return sha(canonical({
        "workload": payload["workload"], "policy": payload["policy"],
        "cycles": payload["cycles"], "committed": payload["committed"],
        "avf": payload["avf"]}))


def records_digest(records: Iterable[Dict[str, object]]) -> str:
    """Digest of a strike batch's record payloads, in order."""
    return sha(canonical(list(records)))


def count_mismatches(got: Dict[str, str], want: Dict[str, str]) -> int:
    """Keys whose digest differs, plus keys present on one side only."""
    return sum(1 for key in set(got) | set(want)
               if got.get(key) != want.get(key))


def load_pins() -> Dict[str, object]:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


def _rank(n: int, q: float) -> int:
    return min(n, max(1, math.ceil(n * q)))


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(values: List[float], q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q`` quantile."""
    return len(values) - _rank(len(values), q)
