"""The SMT workload mixes of Table 2.

The paper builds 2-, 4- and 8-context workloads of three types — CPU-bound,
mixed (half CPU / half MEM) and memory-bound — with two groups (A and B) per
type to avoid bias toward a particular thread set.  The scanned table is
partially garbled for the 8-context rows; the reconstruction below follows
the legible program lists and keeps the invariants the paper states: CPU
mixes draw only from the CPU-intensive pool, MEM mixes only from the
memory-intensive pool, and MIX workloads are half and half.  The paper notes
the 8-context groups could not be made fully diverse for lack of programs;
the MEM 8-context workload has a single group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import WorkloadError
from repro.workload.spec2000 import PROFILES, Category, get_profile


@dataclass(frozen=True)
class WorkloadMix:
    """One named SMT workload: an ordered tuple of SPEC program names."""

    name: str            # e.g. "4-MIX-A"
    num_threads: int
    mix_type: str        # "CPU", "MIX" or "MEM"
    group: str           # "A" or "B"
    programs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.programs) != self.num_threads:
            raise WorkloadError(
                f"{self.name}: {len(self.programs)} programs for "
                f"{self.num_threads} threads"
            )
        for prog in self.programs:
            get_profile(prog)  # raises WorkloadError if unknown
        self._check_composition()

    def _check_composition(self) -> None:
        cats = [get_profile(p).category for p in self.programs]
        n_mem = sum(1 for c in cats if c is Category.MEM)
        if self.mix_type == "CPU" and n_mem != 0:
            raise WorkloadError(f"{self.name}: CPU mix contains MEM programs")
        if self.mix_type == "MEM" and n_mem != self.num_threads:
            raise WorkloadError(f"{self.name}: MEM mix contains CPU programs")
        if self.mix_type == "MIX" and n_mem != self.num_threads // 2:
            raise WorkloadError(
                f"{self.name}: MIX must be half MEM (got {n_mem}/{self.num_threads})"
            )

    @property
    def profiles(self):
        return tuple(get_profile(p) for p in self.programs)


def _mix(n: int, kind: str, group: str, programs: Tuple[str, ...]) -> WorkloadMix:
    return WorkloadMix(f"{n}-{kind}-{group}", n, kind, group, programs)


#: Table 2, reconstructed.  Keys are workload names like "4-MEM-B".
TABLE2_MIXES: Dict[str, WorkloadMix] = {
    m.name: m
    for m in (
        # ---- 2 contexts ----
        _mix(2, "CPU", "A", ("bzip2", "eon")),
        _mix(2, "CPU", "B", ("facerec", "wupwise")),
        _mix(2, "MIX", "A", ("eon", "twolf")),
        _mix(2, "MIX", "B", ("wupwise", "equake")),
        _mix(2, "MEM", "A", ("mcf", "twolf")),
        _mix(2, "MEM", "B", ("equake", "vpr")),
        # ---- 4 contexts ----
        _mix(4, "CPU", "A", ("bzip2", "eon", "perlbmk", "mesa")),
        _mix(4, "CPU", "B", ("gcc", "perlbmk", "facerec", "wupwise")),
        _mix(4, "MIX", "A", ("gcc", "mcf", "perlbmk", "twolf")),
        _mix(4, "MIX", "B", ("vpr", "perlbmk", "mesa", "applu")),
        _mix(4, "MEM", "A", ("mcf", "equake", "twolf", "galgel")),
        _mix(4, "MEM", "B", ("vpr", "swim", "applu", "lucas")),
        # ---- 8 contexts ----
        _mix(8, "CPU", "A",
             ("gap", "bzip2", "facerec", "eon", "mesa", "perlbmk", "parser", "wupwise")),
        _mix(8, "CPU", "B",
             ("gap", "crafty", "gcc", "eon", "mesa", "perlbmk", "fma3d", "wupwise")),
        _mix(8, "MIX", "A",
             ("perlbmk", "mcf", "bzip2", "vpr", "mesa", "swim", "eon", "lucas")),
        _mix(8, "MIX", "B",
             ("crafty", "fma3d", "applu", "twolf", "equake", "mgrid", "wupwise", "perlbmk")),
        _mix(8, "MEM", "A",
             ("mcf", "twolf", "swim", "lucas", "equake", "applu", "vpr", "mgrid")),
    )
}


def get_mix(name: str) -> WorkloadMix:
    """Look up a Table 2 workload by name, e.g. ``"4-MEM-A"``."""
    try:
        return TABLE2_MIXES[name]
    except KeyError:
        known = ", ".join(sorted(TABLE2_MIXES))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None


def mixes_for(num_threads: int, mix_type: str | None = None) -> List[WorkloadMix]:
    """All Table 2 workloads with the given context count (and optional type)."""
    out = [
        m for m in TABLE2_MIXES.values()
        if m.num_threads == num_threads and (mix_type is None or m.mix_type == mix_type)
    ]
    if not out:
        raise WorkloadError(
            f"no Table 2 workloads with {num_threads} threads"
            + (f" and type {mix_type}" if mix_type else "")
        )
    return sorted(out, key=lambda m: m.name)


WorkloadLike = Union[WorkloadMix, Sequence[str]]


def workload_label(workload: WorkloadLike) -> str:
    """The name a run records for this workload."""
    if isinstance(workload, WorkloadMix):
        return workload.name
    return "+".join(workload)


def workload_programs(workload: WorkloadLike) -> Tuple[str, ...]:
    if isinstance(workload, WorkloadMix):
        return workload.programs
    return tuple(workload)


def parse_workload(tokens: Union[str, Sequence[str]]) -> WorkloadLike:
    """One token naming a Table 2 mix, else SPEC program names: how a
    user names a workload.  Raises :class:`WorkloadError` listing the
    tokens that name neither."""
    tokens = [tokens] if isinstance(tokens, str) else list(tokens)
    if len(tokens) == 1 and tokens[0] in TABLE2_MIXES:
        return TABLE2_MIXES[tokens[0]]
    unknown = [t for t in tokens if t not in PROFILES]
    if unknown:
        raise WorkloadError(f"unknown workload/programs {unknown}")
    return tokens


def resolve_workload(name: str, programs: Sequence[str]
                     ) -> Union[WorkloadMix, List[str]]:
    """The Table 2 mix ``name`` when it holds exactly ``programs``, else
    the program list: how a picklable job turns back into a workload."""
    mix = TABLE2_MIXES.get(name)
    if mix is not None and mix.programs == tuple(programs):
        return mix
    return list(programs)
