"""Worklist dataflow framework over :mod:`cfg` graphs.

An analysis subclasses :class:`Analysis` and supplies the classic
ingredients — boundary state, per-statement transfer, join — plus an
optional per-edge transfer, which is how a path-sensitive analysis can
refine state along the true/false edges of a branch.

The solver runs the standard iterative algorithm in reverse postorder
(postorder for backward analyses) with the bottom element represented as
``None`` (block not yet reached), so `join(None, s) == s` for free and
unreachable code stays unanalyzed.  States must be immutable values with
structural equality (frozensets, tuples); transfers return new states
instead of mutating.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .cfg import CFG, Block, Edge, Stmt


class Analysis:
    """Base class for dataflow analyses.

    ``direction`` is "forward" or "backward".  States flow through
    ``transfer_stmt`` within a block (in statement order for forward,
    reverse order for backward) and through ``transfer_edge`` between
    blocks.
    """

    direction: str = "forward"

    def boundary_state(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer_stmt(self, stmt: Stmt, state):
        return state

    def transfer_edge(self, edge: Edge, state):
        return state


def _order(cfg: CFG, forward: bool) -> List[Block]:
    """Reverse postorder from entry (postorder-reversed from exit for
    backward analyses); unreachable blocks are appended at the end so
    they still stabilize."""
    root = cfg.entry if forward else cfg.exit
    seen = set()
    post: List[Block] = []

    def visit(block: Block) -> None:
        stack = [(block, 0)]
        seen.add(block.id)
        while stack:
            node, idx = stack.pop()
            edges = node.succs if forward else node.preds
            if idx < len(edges):
                stack.append((node, idx + 1))
                nxt = edges[idx].dst if forward else edges[idx].src
                if nxt.id not in seen:
                    seen.add(nxt.id)
                    stack.append((nxt, 0))
            else:
                post.append(node)

    visit(root)
    ordered = list(reversed(post))
    ordered.extend(b for b in cfg.blocks if b.id not in seen)
    return ordered


def solve(cfg: CFG, analysis: Analysis) -> Dict[int, Tuple[object, object]]:
    """Runs ``analysis`` to fixpoint.  Returns {block id: (state at block
    entry, state at block exit)} where "entry"/"exit" follow the
    analysis direction; unreached blocks map to (None, None)."""
    forward = analysis.direction == "forward"
    order = _order(cfg, forward)
    position = {b.id: i for i, b in enumerate(order)}

    in_state: Dict[int, object] = {b.id: None for b in cfg.blocks}
    out_state: Dict[int, object] = {b.id: None for b in cfg.blocks}
    boundary = cfg.entry if forward else cfg.exit
    in_state[boundary.id] = analysis.boundary_state()

    def flow_through(block: Block, state):
        stmts = block.stmts if forward else list(reversed(block.stmts))
        for stmt in stmts:
            state = analysis.transfer_stmt(stmt, state)
        return state

    worklist = list(order)
    in_list = {b.id for b in worklist}
    while worklist:
        worklist.sort(key=lambda b: position[b.id], reverse=True)
        block = worklist.pop()
        in_list.discard(block.id)

        if block is not boundary:
            acc = None
            edges = block.preds if forward else block.succs
            for edge in edges:
                src = edge.src if forward else edge.dst
                upstream = out_state[src.id]
                if upstream is None:
                    continue
                refined = analysis.transfer_edge(edge, upstream)
                if refined is None:
                    continue  # edge proven infeasible
                acc = refined if acc is None \
                    else analysis.join(acc, refined)
            in_state[block.id] = acc

        if in_state[block.id] is None:
            new_out = None
        else:
            new_out = flow_through(block, in_state[block.id])
        if new_out != out_state[block.id]:
            out_state[block.id] = new_out
            downstream = block.succs if forward else block.preds
            for edge in downstream:
                nxt = edge.dst if forward else edge.src
                if nxt.id not in in_list:
                    in_list.add(nxt.id)
                    worklist.append(nxt)

    return {b.id: (in_state[b.id], out_state[b.id]) for b in cfg.blocks}


def exit_state(cfg: CFG, analysis: Analysis):
    """The joined state reaching the function exit of a forward analysis
    (None when the exit is unreachable)."""
    return solve(cfg, analysis)[cfg.exit.id][0]
