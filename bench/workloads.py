"""Seeded inputs, per-item work and per-item oracles of the three workloads.

Each workload builds its inputs from the benchmark seed alone; the program
only ever sees the generated inputs. One item is one program, one Turing
machine or one reduced program. ``run_item`` does an item's work through the
public functions the CLI commands call and checks the outputs against an
independent oracle; ``trace_item`` makes the same calls in the same order
through ``Tracer.call`` and records exact work counters. Both return a
signature dict: ``ok`` is the oracle's verdict and the remaining keys are
exact results that must repeat bit for bit (``detail`` excepted).

The inputs are stratified on input properties, never on the outcome of the
stage under test, so that the amount of work per pass hardly moves with the
seed: the benchmark compares runs made with different seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import fields, is_dataclass
from enum import Enum

from cm2cypher import reduction
from cm2cypher.cli import check_program_differential
from cm2cypher.codegen import (
    gen_qpp_setup,
    gen_reduce_query,
    gen_transactions_script,
    lint_primitives,
)
from cm2cypher.cypher import parse_query, run_query, tokenize
from cm2cypher.cypher.ast import Expr
from cm2cypher.frontend import (
    from_map_document,
    parse_dsl,
    random_program,
    render_dsl,
    to_map_document,
)
from cm2cypher.machine import MachineError, qpp_walk, run

BLANK = "_"
MAX_DRAWS = 100_000  # rejection-sampling limit for one TM slot


def direct(name, fn, *args, **kwargs):
    """Untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def _canon(x):
    """JSON-ready canonical form of generated inputs, for the fingerprint."""
    if is_dataclass(x):
        return [type(x).__name__] + [[f.name, _canon(getattr(x, f.name))] for f in fields(x)]
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, dict):
        return sorted([_canon(k), _canon(v)] for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(_canon(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def fingerprint(inputs) -> str:
    return hashlib.sha256(json.dumps(_canon(inputs)).encode()).hexdigest()


def count_nodes(node) -> int:
    """Number of expression nodes in a parsed query (or part of one)."""
    if isinstance(node, (list, tuple)):
        return sum(count_nodes(x) for x in node)
    if not isinstance(node, Expr):
        return 0
    n = 1
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            n += count_nodes(getattr(node, slot, None))
    return n


def _count_fold(tr, text, tokens, tree, iterations, live):
    """Front-end and fold counters of one generated reduce query.

    The fold iterates over ``range(1, max_steps)``; an iteration is live
    while the machine has not halted, so the live count is the reference
    interpreter's step count at the same fuel and the rest are absorbed.
    """
    c = tr.counts
    c["codegen.bytes"] += len(text.encode())
    c["cypher.lexer.tokenize.tokens"] += len(tokens)
    c["cypher.parser.parse_query.nodes"] += count_nodes(list(tree.bindings))
    c["cypher.parser.parse_query.nodes"] += count_nodes([r.expr for r in tree.returns])
    c["cypher.evaluator.run_query.iterations"] += iterations
    c["cypher.evaluator.run_query.live_iterations"] += live
    c["cypher.evaluator.run_query.absorbed_iterations"] += iterations - live


# --- Turing machines ---------------------------------------------------------


def random_tm(rng: random.Random, n_states: int, n_symbols: int, input_len: int,
              left_reads: str | None = None) -> reduction.TuringMachine:
    """Complete TM over states q0..q{n-1} plus ``halt`` and alphabet ``_ab``.

    Every non-halting (state, symbol) pair gets a uniformly drawn target,
    written symbol and move. If ``left_reads`` is given, the move is fixed
    instead: L exactly when the symbol read is in ``left_reads``.
    """
    states = tuple(f"q{i}" for i in range(n_states)) + ("halt",)
    alphabet = (BLANK, "a", "b")[:n_symbols]
    transitions = {}
    for q in states[:-1]:
        for sym in alphabet:
            target, written = rng.choice(states), rng.choice(alphabet)
            if left_reads is None:
                move = rng.choice("LR")
            else:
                move = "L" if sym in left_reads else "R"
            transitions[q, sym] = (target, written, move)
    tape = tuple(rng.choice(alphabet[1:]) for _ in range(input_len))
    return reduction.TuringMachine(
        states, alphabet, BLANK, transitions, "q0", frozenset({"halt"}), tape
    )


def select_tm(rng, n_states, n_symbols, input_len, halt_steps, left_reads):
    """First drawn TM that halts in exactly ``halt_steps`` TM steps: the
    selection looks at the TM alone, never at a later stage."""
    for _ in range(MAX_DRAWS):
        tm = random_tm(rng, n_states, n_symbols, input_len, left_reads)
        res = reduction.tm_run(tm, halt_steps)
        if res.halted and res.steps == halt_steps:
            return tm
    raise RuntimeError(
        f"no TM with shape {(n_states, n_symbols, input_len, halt_steps, left_reads)} "
        f"in {MAX_DRAWS} draws"
    )


# --- workloads ----------------------------------------------------------------


class VerifyRandom:
    """``cm2cypher verify`` traffic (acceptance criterion 4).

    Chosen because it is the product's core loop: random 8-state programs
    through ``check_program_differential(p, 5000)``, where the evaluator does
    most of the work (about 80%, lexer and parser about 15%, ``run`` about
    7%). A program either halts within the fuel, and the rest of its fold
    iterations are absorbed after the halt, or runs all 5000 live iterations,
    which cost about ten times more each. The mix is fixed at 70 halting and
    30 looping programs (about the natural one third looping), so the seed
    does not move the live/absorbed split the evaluator is measured on.
    """

    name = "verify-random"
    max_states = 8

    def __init__(self, seed: int, smoke: bool = False, call=direct):
        self.fuel = 200 if smoke else 5000
        want = {True: 70, False: 30}
        self.item_seeds: list[int] = []
        self.programs = []
        k = 0
        while want[True] or want[False]:
            item_seed = seed * 100_000 + k
            k += 1
            program = call("frontend.random_program", random_program, item_seed, self.max_states)
            try:
                halts = run(program, fuel=self.fuel).halted
            except MachineError:  # kept, so that the pass counts the failure
                halts = None
            if halts is None or want[halts]:
                if halts is not None:
                    want[halts] -= 1
                self.item_seeds.append(item_seed)
                self.programs.append(program)
        self.setup_counts: dict = {}

    def __len__(self):
        return len(self.programs)

    def inputs(self):
        return self.programs

    def reproduce(self, i: int) -> str:
        return (f"cm2cypher verify --seed {self.item_seeds[i]} --count 1 "
                f"--max-states {self.max_states} --fuel {self.fuel}")

    def run_item(self, i: int) -> dict:
        failures = check_program_differential(self.programs[i], self.fuel)
        return {"ok": not failures, "detail": "; ".join(failures)}

    def trace_item(self, i: int, tr) -> dict:
        program, fuel = self.programs[i], self.fuel

        def differential():
            ref = tr.call("machine.run", run, program, fuel=fuel)
            query = tr.call("codegen.gen_reduce_query", gen_reduce_query, program, fuel)
            tokens = tr.call("cypher.lexer.tokenize", tokenize, query.text)
            tree = tr.call("cypher.parser.parse_query", parse_query, query.text)
            got = tr.call("cypher.evaluator.run_query", run_query, tree)["result"]
            walk = tr.call("machine.qpp_walk", qpp_walk, program, fuel=fuel) if ref.halted else None
            return ref, query, tokens, tree, got, walk

        ref, query, tokens, tree, got, walk = tr.call(
            "cli.check_program_differential", differential
        )
        ok = got == {"state": ref.final.state, "A": ref.final.a, "B": ref.final.b}
        tr.counts["machine.run.steps"] += ref.machine_steps
        if walk is not None:
            tr.counts["machine.qpp_walk.edges"] += walk.steps
            ok = ok and walk.steps == ref.machine_steps - 1
            ok = ok and (walk.final_a, walk.final_b) == (ref.final.a, ref.final.b)
        _count_fold(tr, query.text, tokens, tree, fuel, ref.machine_steps)
        return {"ok": ok}

    def output_bytes(self, sigs) -> int:
        return sum(len(gen_reduce_query(p, self.fuel).text.encode()) for p in self.programs)


# (n_states, n_symbols, input_len, halt_steps, left_reads)
_RT_SLOTS = (
    # Halt in one TM step, moving right: the 2-counter stage halts too, so
    # every stage agreement is checked.
    (1, 2, 0, 1, "a"), (1, 3, 0, 1, "ab"), (2, 2, 1, 1, "_"),
    (2, 3, 0, 1, "b"), (3, 2, 0, 1, ""), (3, 3, 0, 1, "a"),
    # Input of two or three symbols: the prime-exponent encoding makes the
    # 2-counter stage run into the fuel limit, while the earlier stages halt.
    *((ns, sy, il, hs, lr) for ns in (1, 2, 3) for sy in (2, 3)
      for il, hs, lr in ((2, 1, "_"), (3, 2, "a"), (2, 3, ""))),
)
_RT_SMOKE_SLOTS = ((1, 2, 0, 1, "a"), (1, 2, 2, 1, "_"))


class ReduceTm:
    """``cm2cypher reduce-tm`` on seeded random complete TMs.

    Chosen because the 2-counter ``machine.run`` does almost all the work
    (the prime-exponent encoding costs O(p * A) 2-counter steps per
    3-counter step) while the evaluator and the Cypher front end do none.
    TMs have 1-3 states, 2-3 symbols and inputs of 0-3 symbols, a fixed
    shape per item (which also fixes which symbols read move the head left,
    so that program sizes hardly vary), and are selected only on a TM-level
    property, their exact halting step count: six per pass whose 2-counter
    stage halts and eighteen whose 2-counter stage is cut by the fixed
    ``fuel_per_stage``.
    """

    name = "reduce-tm"

    def __init__(self, seed: int, smoke: bool = False, call=direct):
        self.fuel = 20_000 if smoke else 100_000
        slots = _RT_SMOKE_SLOTS if smoke else _RT_SLOTS
        self.tms = [
            select_tm(random.Random(f"{self.name}/{seed}/{j}"), *slot)
            for j, slot in enumerate(slots)
        ]
        self.setup_counts: dict = {}

    def __len__(self):
        return len(self.tms)

    def inputs(self):
        return self.tms

    def reproduce(self, i: int) -> str:
        return f"TM {_canon(self.tms[i])} with fuel_per_stage={self.fuel}"

    @staticmethod
    def _stages(tsm, mcm, program, tm_res, tsm_res, mcm_res, cm_res, text) -> dict:
        return {
            "tm": (tm_res.halted, tm_res.steps),
            "tsm": (tsm_res.halted, tsm_res.steps),
            "mcm": (mcm_res.halted, mcm_res.steps),
            "cm": (cm_res.halted, cm_res.machine_steps),
            "sizes": (len(tsm.states), len(mcm.instructions), len(program)),
            "dsl_sha": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode()),
        }

    def run_item(self, i: int) -> dict:
        rep = reduction.run_pipeline(self.tms[i], fuel_per_stage=self.fuel)
        text = render_dsl(rep.program)
        sig = self._stages(rep.tsm, rep.mcm, rep.program, rep.tm_result, rep.tsm_result,
                           rep.mcm_result, rep.cm_result, text)
        ok = rep.ok
        if rep.cm_result.halted:
            ok = ok and all(v is True for v in rep.agreements.values())
        sig.update(ok=ok, agreements=tuple(sorted(rep.agreements.items())),
                   detail=f"agreements {rep.agreements}")
        return sig

    def trace_item(self, i: int, tr) -> dict:
        tm, fuel, c = self.tms[i], self.fuel, tr.counts
        tsm = tr.call("reduction.tm_to_two_stack", reduction.tm_to_two_stack, tm)
        mcm = tr.call("reduction.two_stack_to_counters", reduction.two_stack_to_counters, tsm)
        program = tr.call("reduction.k_counters_to_two", reduction.k_counters_to_two, mcm)
        tm_res = tr.call("reduction.tm_run", reduction.tm_run, tm, fuel)
        tsm_res = tr.call("reduction.tsm_run", reduction.tsm_run, tsm, fuel)
        mcm_res = tr.call("reduction.mcm_run", reduction.mcm_run, mcm, fuel)
        cm_res = tr.call("machine.run", run, program, fuel=fuel)
        text = tr.call("frontend.render_dsl", render_dsl, program)
        c["reduction.tm_run.steps"] += tm_res.steps
        c["reduction.tsm_run.steps"] += tsm_res.steps
        c["reduction.mcm_run.steps"] += mcm_res.steps
        c["machine.run.steps"] += cm_res.machine_steps
        c["reduction.tsm.states"] += len(tsm.states)
        c["reduction.mcm.states"] += len(mcm.instructions)
        c["reduction.cm.states"] += len(program)
        c["reduction.items"] += 1
        if tsm_res.halted and mcm_res.halted:
            c["reduction.blowup.tsm_steps"] += tsm_res.steps
            c["reduction.blowup.mcm_steps"] += mcm_res.steps
        if mcm_res.halted and cm_res.halted:
            c["reduction.cm_completed"] += 1
            c["reduction.blowup.mcm_steps_of_cm"] += mcm_res.steps
            c["reduction.blowup.cm_steps"] += cm_res.machine_steps
        return self._stages(tsm, mcm, program, tm_res, tsm_res, mcm_res, cm_res, text)

    def output_bytes(self, sigs) -> int:
        return sum(s["bytes"] for s in sigs)


# (n_states, n_symbols, input_len, left_reads): program sizes from about
# 650 to about 2200 states, pinned to within about 1% by the shape; about
# 15.8k states (0.9 MB of fold query) per pass.
_CR_SHAPES = ((1, 2, 0, ""), (1, 3, 1, "a"), (2, 2, 2, "a"), (1, 2, 3, "_"), (2, 3, 0, ""),
              (3, 2, 1, ""), (1, 3, 2, "_"), (2, 2, 3, ""), (1, 2, 0, "a"), (3, 3, 1, ""))
_CR_SMOKE_SHAPES = ((1, 2, 1, ""), (1, 2, 1, "a"))


class CompileReduced:
    """The ``compile`` -> ``eval`` path on reduced programs.

    Chosen because the lexer and parser do most of the work here (large
    programs, hundreds of kilobytes of query text each) while the
    interpreter does almost none, and because the evaluator is used
    differently than in verify-random: a large program list and a short
    fold with no absorbed iterations. The programs come from the reduction
    compilers applied, during set-up, to TMs from the reduce-tm generator
    with a fixed shape per item (states, symbols, input length, and which
    symbols read make the TM move left), which pins each program's size to
    within about 1%.
    """

    name = "compile-reduced"
    max_steps = 16

    def __init__(self, seed: int, smoke: bool = False, call=direct):
        shapes = _CR_SMOKE_SHAPES if smoke else _CR_SHAPES
        self.tms = [
            random_tm(random.Random(f"{self.name}/{seed}/{j}"), *shape)
            for j, shape in enumerate(shapes)
        ]
        self.setup_counts = {"reduction.tsm.states": 0, "reduction.mcm.states": 0,
                             "reduction.cm.states": 0}
        self.programs = []
        for tm in self.tms:
            tsm = call("reduction.tm_to_two_stack", reduction.tm_to_two_stack, tm)
            mcm = call("reduction.two_stack_to_counters", reduction.two_stack_to_counters, tsm)
            program = call("reduction.k_counters_to_two", reduction.k_counters_to_two, mcm)
            self.setup_counts["reduction.tsm.states"] += len(tsm.states)
            self.setup_counts["reduction.mcm.states"] += len(mcm.instructions)
            self.setup_counts["reduction.cm.states"] += len(program)
            self.programs.append(program)

    def __len__(self):
        return len(self.programs)

    def inputs(self):
        return self.tms

    def reproduce(self, i: int) -> str:
        return f"TM {_canon(self.tms[i])} reduced, max_steps={self.max_steps}"

    def _item(self, i: int, call, tr=None) -> dict:
        program, steps = self.programs[i], self.max_steps
        text = call("frontend.render_dsl", render_dsl, program)
        dsl_ok = call("frontend.parse_dsl", parse_dsl, text) == program
        doc = json.dumps(to_map_document(program))
        map_ok = call("frontend.from_map_document", from_map_document, json.loads(doc)) == program
        query = call("codegen.gen_reduce_query", gen_reduce_query, program, steps)
        bundle = call("codegen.gen_transactions_script", gen_transactions_script, program)
        qpp = call("codegen.gen_qpp_setup", gen_qpp_setup, program)
        lint = call("codegen.lint_primitives", lint_primitives, query)
        tokens = call("cypher.lexer.tokenize", tokenize, query.text) if tr else None
        tree = call("cypher.parser.parse_query", parse_query, query.text)
        got = call("cypher.evaluator.run_query", run_query, tree)["result"]
        ref = call("machine.run", run, program, fuel=steps)
        expected = {"state": ref.final.state, "A": ref.final.a, "B": ref.final.b}
        cypher_text = query.text + "".join(q.text for _, q in bundle.queries) + qpp.text
        if tr is not None:
            tr.counts["machine.run.steps"] += ref.machine_steps
            tr.counts["frontend.parse_dsl.bytes"] += len(text.encode())
            _count_fold(tr, query.text, tokens, tree, steps, ref.machine_steps)
            tr.counts["codegen.bytes"] += len(cypher_text.encode()) - len(query.text.encode())
        return {
            "ok": dsl_ok and map_ok and not lint and got == expected,
            "result": (got["state"], got["A"], got["B"]) if isinstance(got, dict) else got,
            "lint": tuple(lint),
            "bytes": len(text.encode()) + len(cypher_text.encode()),
            "detail": f"dsl_ok={dsl_ok} map_ok={map_ok} lint={lint} fold={got} run={expected}",
        }

    def run_item(self, i: int) -> dict:
        return self._item(i, direct)

    def trace_item(self, i: int, tr) -> dict:
        return self._item(i, tr.call, tr)

    def output_bytes(self, sigs) -> int:
        return sum(s["bytes"] for s in sigs)


WORKLOADS = {w.name: w for w in (VerifyRandom, ReduceTm, CompileReduced)}
