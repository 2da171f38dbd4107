"""Differential verification of generated queries.

``check_program_differential`` runs one program three ways: the reference
interpreter, the in-process evaluator on the generated fold query, and the
guarded state-graph walk. ``cm2cypher verify`` runs it on random programs.
"""

from __future__ import annotations

from .codegen import gen_reduce_query
from .cypher import run_query_text
from .machine import Program, qpp_walk, run


def check_program_differential(program: Program, fuel: int) -> list[str]:
    """Evaluator-vs-interpreter equality, plus walk agreement when halting.
    Returns a list of failure descriptions (empty = pass)."""
    failures = []
    reference = run(program, fuel=fuel)
    expected = {"state": reference.final.state, "A": reference.final.a, "B": reference.final.b}
    evaluated = run_query_text(gen_reduce_query(program, fuel).text)["result"]
    if evaluated != expected:
        failures.append(f"evaluator {evaluated} != interpreter {expected}")
    if reference.halted:
        walk = qpp_walk(program, fuel=fuel)
        if walk.steps != reference.machine_steps - 1:
            failures.append(
                f"walk steps {walk.steps} != machine steps - 1 ({reference.machine_steps - 1})"
            )
        if (walk.final_a, walk.final_b) != (reference.final.a, reference.final.b):
            failures.append(
                f"walk counters ({walk.final_a}, {walk.final_b}) != "
                f"({reference.final.a}, {reference.final.b})"
            )
    return failures
