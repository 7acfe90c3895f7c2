"""Determinism rules.

The paper's tables and figures are reproducible only because a run is a
pure function of (configuration, seed).  Two classes of C++ silently
break that:

  * iterating an ``std::unordered_*`` container and letting the visit
    order escape into metrics, event scheduling, or report output — the
    order is hash-seed and libc++-version dependent;
  * reading entropy or the host clock (``rand``, ``std::random_device``,
    ``time``, ``std::chrono::*_clock::now``) anywhere outside the
    sanctioned ``util`` wall-clock path (``util/wall_clock.h``).

``determinism_test`` and the resume byte-identity tests catch dynamic
symptoms of both, but only in the configurations they run; these rules
make the property structural.
"""

from __future__ import annotations

from typing import Iterable

from ..cpp_model import FileModel, preceded_by_type_ident
from . import Finding, Rule, RuleContext, register


@register
class UnorderedIterationRule(Rule):
    """Range-for (or ``.begin()`` iteration) over an unordered container
    in the deterministic core."""

    id = "granulock-determinism-unordered-iter"
    rationale = (
        "unordered_{map,set} iteration order is implementation-defined; a "
        "loop over one in the simulation core can leak that order into "
        "event scheduling or metrics, breaking bit-identical replay"
    )
    # The deterministic core: event engines, experiment machinery, the
    # database-layer simulators, and the observability sinks — obs exports
    # (JSON/CSV/DOT/traces) are byte-compared by the determinism tests, so
    # an unordered iteration there is as fatal as one in an engine.
    # Lock managers (src/lockmgr) iterate unordered tables only inside
    # order-insensitive CheckConsistency scans and Supremum folds; they
    # stay out of scope until someone audits them in.
    # src/storage and src/workload are in scope: granule placement and
    # reference-string generation both feed the engines, so an unordered
    # walk there reorders the simulated access stream itself.
    # The calendar queue itself is covered by src/sim/*.
    paths = ["src/sim/*", "src/core/*", "src/db/*", "src/obs/*",
             "src/storage/*", "src/workload/*"]

    def check(self, rel_path: str, model: FileModel,
              ctx: RuleContext) -> Iterable[Finding]:
        tokens = model.lexed.tokens
        for rf in model.range_fors:
            if rf.expr_base in model.unordered_decls:
                yield self.finding(
                    rel_path, rf.line, rf.col,
                    f"range-for over unordered container "
                    f"'{rf.expr_base}' (declared on line "
                    f"{model.unordered_decls[rf.expr_base]}): iteration "
                    f"order is nondeterministic; iterate a sorted copy of "
                    f"the keys or use an ordered container")
        # Classic iterator loops: `x.begin()` / `x.cbegin()` on a known
        # unordered container.
        for call in model.calls:
            if call.name not in ("begin", "cbegin"):
                continue
            if not call.is_member_call or len(call.path) < 2:
                continue
            base = call.path[-2]
            if base in model.unordered_decls:
                yield self.finding(
                    rel_path, call.line, call.col,
                    f"iterator over unordered container '{base}' "
                    f"(declared on line {model.unordered_decls[base]}): "
                    f"iteration order is nondeterministic")


# Callee names that read entropy or the host clock. Qualification-aware:
# `sim_.time()` (simulated time accessor) is a member call and never
# matches; `time(nullptr)` and `std::time(...)` do.
_BANNED_FREE_CALLS = {
    "rand": "libc rand() is unseeded global state",
    "srand": "seeding global libc state hides the run's true seed",
    "time": "wall-clock read",
    "clock": "CPU-clock read",
    "gettimeofday": "wall-clock read",
    "clock_gettime": "wall-clock read",
    "getrandom": "kernel entropy read",
}
_BANNED_TYPES = {
    "random_device": "std::random_device draws real entropy",
}
_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock",
           "file_clock", "utc_clock"}


@register
class WallClockRule(Rule):
    """Entropy / host-clock reads outside the sanctioned util path."""

    id = "granulock-determinism-time"
    rationale = (
        "simulated results must be a pure function of config and seed; "
        "wall time may only be read through util/wall_clock.h "
        "(MonotonicSeconds / WallTimer), keeping every clock read "
        "auditable in one place"
    )
    paths = ["src/*", "src/*/*", "bench/*", "examples/*"]
    # Only the two sanctioned entropy/clock homes are exempt. The rest of
    # src/util — which the engines call — must be as clock-free as the
    # engines themselves.
    exclude_paths = ["src/util/wall_clock*", "src/util/random*"]

    def check(self, rel_path: str, model: FileModel,
              ctx: RuleContext) -> Iterable[Finding]:
        tokens = model.lexed.tokens
        for call in model.calls:
            # `*_clock::now()` under any qualification.
            if call.name == "now" and len(call.path) >= 2 and \
                    call.path[-2] in _CLOCKS:
                yield self.finding(
                    rel_path, call.line, call.col,
                    f"host clock read '{call.qualified()}()': use "
                    f"granulock::MonotonicSeconds()/WallTimer from "
                    f"util/wall_clock.h instead")
                continue
            if call.name in _BANNED_FREE_CALLS:
                # Member calls (`sim_.time()`) are simulated-time
                # accessors, not the libc functions; `double time()` is a
                # declaration of such an accessor, not a call.
                if call.is_member_call:
                    continue
                if preceded_by_type_ident(tokens, call):
                    continue
                # Qualified calls are banned only under std::.
                if call.joiners and not (
                        len(call.path) == 2 and call.path[0] == "std"):
                    continue
                yield self.finding(
                    rel_path, call.line, call.col,
                    f"'{call.qualified()}()' is nondeterministic "
                    f"({_BANNED_FREE_CALLS[call.name]}); derive values "
                    f"from the run's seed or use util/wall_clock.h")
        # Type mentions: declaring a std::random_device anywhere is a
        # violation even before it is invoked.
        for i, tok in enumerate(tokens):
            if tok.kind != "ident" or tok.text not in _BANNED_TYPES:
                continue
            prev = tokens[i - 1] if i > 0 else None
            if prev is not None and prev.kind == "punct" and \
                    prev.text in (".", "->"):
                continue  # member access named random_device — not the type
            yield self.finding(
                rel_path, tok.line, tok.col,
                f"'{tok.text}': {_BANNED_TYPES[tok.text]}; expand the "
                f"run's seed with SplitMix64 (util/random.h) instead")
