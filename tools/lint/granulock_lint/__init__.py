"""granulock-lint: semantic linter for granulock's determinism, audit and
status contracts.

Enforces project-specific invariants that no compiler, sanitizer or test
checks structurally: determinism discipline (no unordered-container
iteration feeding results, no wall-clock or libc randomness outside the
sanctioned ``util`` paths), RNG stream isolation (profiler-private
randomness and wall-clock reads never reach deterministic state),
audit-macro purity (``GRANULOCK_DCHECK*`` arguments must be
side-effect-free because they vanish in Release), fault-point placement,
and Status discipline (every ``Status``/``Result<T>`` return is checked,
propagated, or explicitly voided — statement-level and path-sensitive).

The linter is driven by ``compile_commands.json`` (the database CMake
already exports for clang-tidy).  Its frontend is a self-contained C++
lexer + lightweight AST, with intraprocedural CFGs, a worklist dataflow
framework, a taint engine, and callee summaries layered on top; it has
no dependencies beyond the Python standard library.  See
docs/STATIC_ANALYSIS.md.
"""

__version__ = "1.2.0"
