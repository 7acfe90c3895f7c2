#!/usr/bin/env python3
"""Unit tests for the granulock-analyze layers.

Where lint_test.py drives the whole linter binary over fixture trees,
this suite imports the package and pins down the analysis machinery on
synthetic snippets: the hardened lexer (C++17 edge cases), CFG shape
(branch/loop/early-return/switch merge correctness), the worklist
dataflow solver (forward/backward, may/must, edge refinement), the
taint engine (sources, sinks, sanitizers, kills), the callee-summary
fixpoint, and the SARIF reporter's document shape.

Usage:
    analysis_test.py --case cfg_if_merge
    analysis_test.py --list
    analysis_test.py            (runs every case)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.realpath(os.path.join(_HERE, "..", ".."))
sys.path.insert(0, os.path.join(_REPO, "tools", "lint"))

from granulock_lint import (cfg, cpp_model, dataflow,  # noqa: E402
                            lexer, report, summaries, taint)
from granulock_lint.rules import Finding, all_rules  # noqa: E402


def _model(src: str) -> cpp_model.FileModel:
    return cpp_model.build_model(lexer.lex("snippet.cc", src))


def _one_cfg(src: str):
    """The CFG of the single function in ``src`` (must be analyzable)."""
    model = _model(src)
    funcs = cfg.functions_of(model)
    assert len(funcs) == 1, f"expected 1 function, got {[f.name for f in funcs]}"
    graph = funcs[0].cfg(model.lexed.tokens)
    assert graph is not None, f"{funcs[0].name} should be analyzable"
    return model, graph


# ---------------------------------------------------------------- lexer


def case_lexer_udl_numbers():
    cases = [
        ("auto d = 42ms;", ["auto", "d", "=", "42ms", ";"]),
        ("long n = 1'000'000ull;", ["long", "n", "=", "1'000'000ull", ";"]),
        ("long g = 123_granules;", ["long", "g", "=", "123_granules", ";"]),
        ("double h = 0x1.8p3;", ["double", "h", "=", "0x1.8p3", ";"]),
        ("y = 1e-5 + 2.f;", ["y", "=", "1e-5", "+", "2.f", ";"]),
        ("k = 0x5dull ^ 0b1010;", ["k", "=", "0x5dull", "^", "0b1010", ";"]),
    ]
    for src, want in cases:
        got = [t.text for t in lexer.lex("t.cc", src).tokens]
        assert got == want, f"{src!r}: {got}"


def case_lexer_udl_strings():
    cases = [
        ('auto s = "abc"_sv;', ["auto", "s", "=", '"abc"_sv', ";"]),
        ("auto c = 'x'_c;", ["auto", "c", "=", "'x'_c", ";"]),
        ('auto j = R"(x)"_json;', ["auto", "j", "=", 'R"(x)"_json', ";"]),
    ]
    for src, want in cases:
        got = [t.text for t in lexer.lex("t.cc", src).tokens]
        assert got == want, f"{src!r}: {got}"


def case_lexer_raw_strings():
    # Delimited raw string containing would-be terminators, multi-line
    # raw string, and u8 prefix.
    src = 'const char* a = R"x(quote " and )" inside)x";'
    toks = lexer.lex("t.cc", src).tokens
    assert toks[5].text == 'R"x(quote " and )" inside)x"', toks[5].text
    src2 = 'auto b = u8R"(line one\nline two)";\nint after = 1;'
    lexed = lexer.lex("t.cc", src2)
    assert lexed.tokens[3].text == 'u8R"(line one\nline two)"'
    after = [t for t in lexed.tokens if t.text == "after"]
    assert after[0].line == 3, f"line tracking across raw string: {after}"


def case_lexer_subscript_member_not_number():
    # The pp-number absorber must not eat `].b` or split `v[0].size()`.
    cases = [
        ("x = a[1].b;", ["x", "=", "a", "[", "1", "]", ".", "b", ";"]),
        ("z = v[0].size();",
         ["z", "=", "v", "[", "0", "]", ".", "size", "(", ")", ";"]),
    ]
    for src, want in cases:
        got = [t.text for t in lexer.lex("t.cc", src).tokens]
        assert got == want, f"{src!r}: {got}"


# ------------------------------------------------------------------ cfg


def case_cfg_if_merge():
    src = """
    int f(bool c) {
      int x = 0;
      if (c) { x = 1; } else { x = 2; }
      return x;
    }
    """
    _, graph = _one_cfg(src)
    # Branch block has two successors with opposite branch markers.
    branch = [b for b in graph.blocks
              if any(s.kind == "cond" for s in b.stmts)]
    assert len(branch) == 1
    marks = sorted(e.branch for e in branch[0].succs)
    assert marks == [False, True], marks
    # The exit has exactly one predecessor: the return statement's block.
    assert len(graph.exit.preds) == 1


def case_cfg_early_return():
    src = """
    int f(bool c) {
      if (c) { return 1; }
      return 2;
    }
    """
    _, graph = _one_cfg(src)
    assert len(graph.exit.preds) == 2, \
        f"both returns must reach exit: {len(graph.exit.preds)}"


def case_cfg_loop_back_edge():
    src = """
    int f(int n) {
      int s = 0;
      while (n > 0) { s += n; n -= 1; }
      return s;
    }
    """
    _, graph = _one_cfg(src)
    # The loop head (cond block) has two predecessors: entry path and
    # the back edge from the body.
    head = [b for b in graph.blocks
            if any(s.kind == "cond" for s in b.stmts)][0]
    assert len(head.preds) == 2, len(head.preds)
    assert len(head.succs) == 2  # body + after


def case_cfg_for_continue_break():
    src = """
    int f(int n) {
      int s = 0;
      for (int i = 0; i < n; i += 1) {
        if (i == 3) { continue; }
        if (i == 7) { break; }
        s += i;
      }
      return s;
    }
    """
    _, graph = _one_cfg(src)
    assert graph.exit.preds, "exit reachable"
    # Every block is connected: no dangling successors.
    ids = {b.id for b in graph.blocks}
    for b in graph.blocks:
        for e in b.succs:
            assert e.dst.id in ids


def case_cfg_goto_bails_out():
    src = """
    int f(bool c) {
      if (c) goto out;
      return 1;
    out:
      return 2;
    }
    """
    model = _model(src)
    funcs = cfg.functions_of(model)
    assert len(funcs) == 1
    assert funcs[0].cfg(model.lexed.tokens) is None, \
        "goto must mark the function unanalyzable"


def case_cfg_switch_fallthrough():
    src = """
    int f(int k) {
      int r = 0;
      switch (k) {
        case 0:
        case 1: r = 1; break;
        default: r = 9;
      }
      return r;
    }
    """
    _, graph = _one_cfg(src)
    assert graph.exit.preds, "exit reachable through switch"


# ------------------------------------------------------------- dataflow


class _Defined(dataflow.Analysis):
    """Forward: set of assigned variable names (may or must by join)."""

    def __init__(self, tokens, must=False):
        self.tokens = tokens
        self.must = must

    def boundary_state(self):
        return frozenset()

    def join(self, a, b):
        return (a & b) if self.must else (a | b)

    def transfer_stmt(self, stmt, state):
        for i in range(stmt.start, stmt.end):
            if self.tokens[i].text == "=" and \
                    self.tokens[i].kind == "punct" and \
                    self.tokens[i - 1].kind == "ident":
                state = state | {self.tokens[i - 1].text}
        return state


def case_dataflow_may_vs_must():
    src = """
    int f(bool c) {
      int a = 0;
      if (c) { int b = 1; } else { int d = 2; }
      return a;
    }
    """
    model, graph = _one_cfg(src)
    toks = model.lexed.tokens
    may = dataflow.exit_state(graph, _Defined(toks, must=False))
    must = dataflow.exit_state(graph, _Defined(toks, must=True))
    assert may == {"a", "b", "d"}, may
    assert must == {"a"}, must


def case_dataflow_loop_fixpoint():
    src = """
    int f(int n) {
      int s = 0;
      while (n > 0) { int t = s; n -= 1; }
      return s;
    }
    """
    model, graph = _one_cfg(src)
    may = dataflow.exit_state(graph, _Defined(model.lexed.tokens))
    assert "t" in may and "s" in may, may


def case_dataflow_edge_refinement():
    """transfer_edge can kill state along one branch only."""

    class _DropOnTrue(_Defined):
        def transfer_edge(self, edge, state):
            if edge.branch is True:
                return frozenset()
            return state

    src = """
    int f(bool c) {
      int a = 0;
      if (c) { int b = 1; } else { int d = 2; }
      return a;
    }
    """
    model, graph = _one_cfg(src)
    out = dataflow.exit_state(graph, _DropOnTrue(model.lexed.tokens))
    # True edge forgot 'a'; the branch bodies still assign afterwards.
    assert "d" in out and "b" in out and "a" in out
    # And an always-infeasible edge (None) leaves only one path.

    class _TrueInfeasible(_Defined):
        def transfer_edge(self, edge, state):
            return None if edge.branch is True else state

    out2 = dataflow.exit_state(graph, _TrueInfeasible(model.lexed.tokens))
    assert out2 == {"a", "d"}, out2


def case_dataflow_backward_liveness():
    class _Live(dataflow.Analysis):
        direction = "backward"

        def __init__(self, tokens):
            self.tokens = tokens

        def boundary_state(self):
            return frozenset()

        def join(self, a, b):
            return a | b

        def transfer_stmt(self, stmt, state):
            # gen every ident in the statement (crude liveness: uses).
            names = frozenset(
                self.tokens[i].text
                for i in range(stmt.start, stmt.end + 1)
                if self.tokens[i].kind == "ident")
            return state | names

    src = """
    int f(int n) {
      int s = 0;
      if (n > 0) { s = n; }
      return s;
    }
    """
    model, graph = _one_cfg(src)
    solved = dataflow.solve(graph, _Live(model.lexed.tokens))
    live_at_entry = solved[graph.entry.id][1]
    assert "s" in live_at_entry and "n" in live_at_entry


# ---------------------------------------------------------------- taint


_SPEC = taint.TaintSpec(
    source_receivers=("evil_rng",),
    source_calls=("ReadClock",),
    sink_calls=("Schedule",),
    sink_object_names=("metrics_",),
    sanitizer_calls=("Quantize",),
)


def case_taint_source_to_sink():
    src = """
    void f() {
      const double x = evil_rng_.Next();
      Schedule(x);
    }
    """
    flows = taint.analyze_file(_model(src), _SPEC)
    assert len(flows) == 1 and flows[0].kind == "arg", flows
    assert flows[0].sink == "Schedule" and flows[0].via == "x"


def case_taint_member_store():
    src = """
    void f() {
      metrics_.count = ReadClock();
    }
    """
    flows = taint.analyze_file(_model(src), _SPEC)
    assert len(flows) == 1 and flows[0].kind == "assign", flows
    assert flows[0].sink == "metrics_.count"


def case_taint_kill_and_sanitize():
    src = """
    void f() {
      double x = ReadClock();
      x = 1.0;
      Schedule(x);
      Schedule(Quantize(ReadClock()));
    }
    """
    flows = taint.analyze_file(_model(src), _SPEC)
    assert flows == [], f"kill + sanitizer must silence both: {flows}"


def case_taint_joins_over_branches():
    src = """
    void f(bool c) {
      double x = 0.0;
      if (c) { x = ReadClock(); }
      Schedule(x);
    }
    """
    flows = taint.analyze_file(_model(src), _SPEC)
    assert len(flows) == 1, f"tainted on one path is tainted: {flows}"


def case_taint_extra_source_fns():
    src = """
    void f() {
      const double w = Wrapped();
      Schedule(w);
    }
    """
    flows = taint.analyze_file(_model(src), _SPEC,
                               extra_source_fns=frozenset({"Wrapped"}))
    assert len(flows) == 1, flows
    assert taint.analyze_file(_model(src), _SPEC) == []


# ------------------------------------------------------------ summaries


def case_summaries_fixpoint():
    src = """
    double MonotonicSeconds();
    double Seconds() { return MonotonicSeconds() - 1.0; }
    double Wrapper() { return Seconds(); }
    double NotASource() { double s = Seconds(); return 1.0; }
    """
    facts = {}
    summaries.collect(facts, _model(src))
    s = summaries.finalize(facts)
    assert "Seconds" in s.wallclock_source_fns
    assert "Wrapper" in s.wallclock_source_fns
    assert "NotASource" not in s.wallclock_source_fns


def case_summaries_ambiguous_source():
    # Two definitions of the same name, one clean: the name must not
    # classify as a source (adding findings requires certainty).
    src = """
    double MonotonicSeconds();
    double Stamp() { return MonotonicSeconds(); }
    double Stamp(int) { return 0.0; }
    """
    facts = {}
    summaries.collect(facts, _model(src))
    s = summaries.finalize(facts)
    assert "Stamp" not in s.wallclock_source_fns


# ---------------------------------------------------------------- sarif


def case_sarif_shape():
    findings = [Finding(rule="granulock-fault-point-placement",
                        path="src/db/x.cc", line=21, col=3,
                        message="fires")]
    baselined = [Finding(rule="granulock-status-path", path="src/core/y.cc",
                         line=9, col=1, message="old")]
    doc = json.loads(report.render_sarif(findings, baselined, all_rules(),
                                         "1.1.0"))
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    (run,) = doc["runs"]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "granulock-fault-point-placement" in rule_ids
    assert "granulock-rng-stream-isolation" in rule_ids
    assert "granulock-status-path" in rule_ids
    assert len(run["results"]) == 2
    live, base = run["results"]
    assert live["ruleId"] == "granulock-fault-point-placement"
    loc = live["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/db/x.cc"
    assert loc["region"]["startLine"] == 21
    assert "suppressions" not in live
    assert base["suppressions"][0]["kind"] == "external"
    # Deterministic: rendering twice is byte-identical.
    again = report.render_sarif(findings, baselined, all_rules(), "1.1.0")
    assert again == json.dumps(doc, indent=2, sort_keys=True) + "\n"


CASES = {
    name[len("case_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("case_") and callable(fn)
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", help="run a single case")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()
    if args.list:
        for name in CASES:
            print(name)
        return 0
    names = [args.case] if args.case else list(CASES)
    for name in names:
        if name not in CASES:
            print(f"unknown case {name}; --list shows all", file=sys.stderr)
            return 2
        CASES[name]()
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
