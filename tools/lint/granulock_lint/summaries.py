"""Callee summaries over the name-keyed project index.

The dataflow rules are intraprocedural; summaries give the
rng-stream-isolation rule one hop of interprocedural knowledge: the
**wall-clock / RNG sources**, functions whose return value derives from
``util/wall_clock`` or a profiler-private RNG stream.  The rule uses
them to *add* findings, so a name qualifies only when **every**
definition returns such a value; one clean (or unanalyzed) definition
disqualifies the name.  Under-approximation can only miss findings.

Both source sets (wall clock, RNG) close under calls by fixpoint
iteration in :func:`finalize` (a wall-clock wrapper's wrapper is still a
source), run once after every file has been collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from .cfg import calls_in_range, functions_of
from .cpp_model import FileModel, statement_end

# The one wall-clock primitive (util/wall_clock.h).
PRIMITIVE_WALLCLOCK = frozenset({"MonotonicSeconds"})

# Receiver-name fragments identifying profiler-private RNG streams.  The
# legitimate seeded simulation stream is plain ``rng_``; profiler-owned
# streams are named to be greppable (PR 6's invisibility contract).
RNG_RECEIVER_FRAGMENTS = ("contention_rng", "profiler_rng", "sampling_rng")


@dataclass(frozen=True)
class FnFact:
    """Raw per-definition facts, gathered before the fixpoint."""

    return_callees: FrozenSet[str]  # calls inside return statements
    direct_wallclock_return: bool  # a return calls MonotonicSeconds
    direct_rng_return: bool  # a return draws from a profiler stream


def _is_profiler_rng_call(call) -> bool:
    if not call.is_member_call or len(call.path) < 2:
        return False
    receiver = call.path[-2]
    return any(frag in receiver for frag in RNG_RECEIVER_FRAGMENTS)


def collect(facts: Dict[str, List[FnFact]], model: FileModel) -> None:
    """Gathers raw facts for every function defined in ``model``."""
    tokens = model.lexed.tokens
    for func in functions_of(model):
        return_callees: Set[str] = set()
        direct_wallclock = False
        direct_rng = False
        i = func.body_open
        while i <= func.body_close:
            tok = tokens[i]
            if tok.kind == "ident" and tok.text in ("return", "co_return"):
                end = statement_end(tokens, i)
                for call in calls_in_range(model, i, end):
                    return_callees.add(call.name)
                    if call.name in PRIMITIVE_WALLCLOCK:
                        direct_wallclock = True
                    if _is_profiler_rng_call(call):
                        direct_rng = True
                i = end + 1
            else:
                i += 1
        facts.setdefault(func.name, []).append(FnFact(
            return_callees=frozenset(return_callees),
            direct_wallclock_return=direct_wallclock,
            direct_rng_return=direct_rng,
        ))


@dataclass(frozen=True)
class Summaries:
    """The fixpointed result attached to the project index."""

    wallclock_source_fns: FrozenSet[str]
    rng_source_fns: FrozenSet[str]


def finalize(facts: Dict[str, List[FnFact]]) -> Summaries:
    def close_sources(direct_attr: str, primitives: FrozenSet[str]
                      ) -> Set[str]:
        sources: Set[str] = set()
        grow = True
        while grow:
            grow = False
            for name, defs in facts.items():
                if name in sources or name in primitives:
                    continue
                if defs and all(
                        getattr(d, direct_attr)
                        or (d.return_callees & (sources | primitives))
                        for d in defs):
                    sources.add(name)
                    grow = True
        return sources

    wallclock = close_sources("direct_wallclock_return",
                              PRIMITIVE_WALLCLOCK)
    rng = close_sources("direct_rng_return", frozenset())
    return Summaries(wallclock_source_fns=frozenset(wallclock
                                                    | PRIMITIVE_WALLCLOCK),
                     rng_source_fns=frozenset(rng))
