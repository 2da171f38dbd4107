import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm2cypher.codegen import (
    gen_qpp_query,
    gen_qpp_setup,
    gen_reduce_query,
    gen_transactions_script,
    lint_primitives,
    normalize_tokens,
    queries_token_equal,
)
from cm2cypher.cypher import CypherError, CypherSyntaxError, UnsupportedFeature, parse_query
from cm2cypher.cypher.parser import FUNCTION_ARITY, KEYWORDS, UNSUPPORTED
from cm2cypher.frontend import random_program, render_dsl, to_map_document
from cm2cypher.machine import Halt, Inc, InvalidProgram, JzDec, Program
from conftest import GOLDEN, REFERENCE


def ref(name: str) -> str:
    return (REFERENCE / name).read_text()


# ---------------------------------------------------------------- golden files


@pytest.mark.parametrize(
    "golden_name, produce",
    [
        ("demo.reduce.cypher", lambda p: gen_reduce_query(p).text),
        ("demo.tx.setup.cypher", lambda p: gen_transactions_script(p)["setup"].text),
        ("demo.tx.main.cypher", lambda p: gen_transactions_script(p)["main"].text),
        ("demo.tx.read.cypher", lambda p: gen_transactions_script(p)["readback"].text),
        ("demo.qpp.setup.cypher", lambda p: gen_qpp_setup(p).text),
        ("demo.qpp.query.cypher", lambda p: gen_qpp_query().text),
    ],
)
def test_golden_byte_for_byte(demo, golden_name, produce):
    assert produce(demo) == (GOLDEN / golden_name).read_text()


# -------------------------------------------------- reference token equality


def test_reduce_matches_reference(demo):
    assert queries_token_equal(gen_reduce_query(demo).text, ref("reduce.cypher"))


def test_transactions_match_reference(demo):
    bundle = gen_transactions_script(demo)
    assert queries_token_equal(bundle["setup"].text, ref("tx_setup.cypher"))
    assert queries_token_equal(bundle["main"].text, ref("tx_main.cypher"))
    assert queries_token_equal(bundle["readback"].text, ref("tx_read.cypher"))


def test_parameterized_transactions_match_reference(demo):
    bundle = gen_transactions_script(demo, parameter_mode=True)
    setup_toks = normalize_tokens(bundle["setup"].text)
    main_toks = normalize_tokens(bundle["main"].text)
    # the reference is a single block, so only the first statement carries
    # the dialect header
    assert main_toks[:2] == ["CYPHER", "25"]
    combined = setup_toks + main_toks[2:]
    assert combined == normalize_tokens(ref("tx_param.cypher"))
    assert bundle.parameters == {
        "program": json.loads(
            (GOLDEN.parent / "demo.maps.json").read_text()
        )
    }


def test_qpp_matches_reference(demo):
    assert queries_token_equal(gen_qpp_setup(demo).text, ref("qpp_setup.cypher"))
    assert queries_token_equal(gen_qpp_query().text, ref("qpp_query.cypher"))


# ---------------------------------------------------------------- structure


def test_reduce_query_metadata(demo):
    q = gen_reduce_query(demo)
    assert q.text.startswith("CYPHER 25")


def test_reduce_query_max_steps(demo):
    assert "LET max_steps = 42" in gen_reduce_query(demo, max_steps=42).text
    assert "LET max_steps = 1000000" in gen_reduce_query(demo).text


def test_step_and_path_bounds_are_64_bit_literals(demo):
    # a larger bound would be a literal no 64-bit server accepts
    assert "LET max_steps = 9223372036854775807\n" in gen_reduce_query(demo, 2**63 - 1).text
    assert "{0, 9223372036854775807}" in gen_qpp_query(2**63 - 1).text
    with pytest.raises(ValueError, match="^max_steps must be <= 9223372036854775807$"):
        gen_reduce_query(demo, 2**63)
    with pytest.raises(ValueError, match="^max_path must be <= 9223372036854775807$"):
        gen_qpp_query(2**63)


def test_stepper_checks_halt_before_program_index(demo):
    main = gen_transactions_script(demo)["main"].text
    halt_guard = main.index("m.state = -1 THEN 1/0")
    program_index = main.index("program[m.state]")
    assert halt_guard < program_index


def test_stepper_uses_full_int64_range(demo):
    main = gen_transactions_script(demo)["main"].text
    assert "range(1, 9223372036854775807)" in main
    assert "ON ERROR BREAK" in main


def test_readback_has_no_header(demo):
    readback = gen_transactions_script(demo)["readback"]
    assert readback.text == "MATCH (m:Machine) RETURN m;\n"


def test_qpp_query_structure(demo):
    text = gen_qpp_query().text
    assert "REPEATABLE ELEMENTS" in text
    assert "NEXT" in text
    assert "allReduce" in text


def test_qpp_setup_edge_count_matches_instruction_mix():
    for seed in range(20):
        program = random_program(seed, 8)
        text = gen_qpp_setup(program).text
        incs = sum(isinstance(i, Inc) for i in program.instructions)
        jzdecs = sum(isinstance(i, JzDec) for i in program.instructions)
        assert text.count("[:INC") == incs
        assert text.count("[:JZDEC_ZERO") == jzdecs
        assert text.count("[:JZDEC_POS") == jzdecs
        assert text.count("(q") >= len(program.instructions)


def test_qpp_setup_labels(demo):
    text = gen_qpp_setup(demo).text
    assert "(q0:State:Init" in text
    assert ":Halt" in text
    halts = sum(isinstance(i, Halt) for i in demo.instructions)
    assert text.count(":Halt") == halts


@pytest.mark.parametrize("render", [render_dsl, to_map_document, gen_qpp_setup])
def test_two_counter_renderings_reject_three_counter_programs(render):
    with pytest.raises(InvalidProgram, match="3 counters"):
        render(Program((Inc(2, 1), Halt()), num_counters=3))


# ------------------------------------------------------------------- linting


def test_lint_generated_reduce_query_clean(demo):
    # only the pure-expression approach is subject to the primitive lint;
    # the stepper and traversal scripts use graph clauses by design
    assert lint_primitives(gen_reduce_query(demo)) == []


def test_lint_flags_graph_clauses():
    assert lint_primitives("MATCH (n) RETURN n")
    assert lint_primitives("RETURN apoc.text.join(['a'], '')")
    assert lint_primitives("RETURN gds.version()")
    assert lint_primitives("RETURN size([1])")


def test_lint_allows_next_as_map_key():
    assert lint_primitives("RETURN {next: 3}") == []


def test_lint_allows_next_as_property():
    assert lint_primitives("LET m = {next: 3} RETURN m.next") == []
    assert lint_primitives("RETURN {a: 1} NEXT RETURN 2") == [
        "UnsupportedFeature at line 1, column 15: NEXT"
    ]


@pytest.mark.parametrize("query", ["RETURN '//' + size([1])", "RETURN '/*' + size([1]) + '*/'"])
def test_lint_sees_past_comment_markers_in_strings(query):
    assert lint_primitives(query) == ["UnsupportedFeature at line 1, column 15: function size()"]


def test_lint_tells_strings_from_punctuation():
    # a '(' in a string opens no call: size is a name, the string extra input
    assert lint_primitives("RETURN size '('") == [
        "SyntaxError at line 1, column 13: unexpected input after RETURN clause: '('"
    ]
    # a ':' or '.' in a string makes no map key or property of next
    assert lint_primitives("RETURN next ':'") == ["UnsupportedFeature at line 1, column 8: NEXT"]
    assert lint_primitives("RETURN '.' next") == ["UnsupportedFeature at line 1, column 12: NEXT"]


def test_lint_allows_every_parser_function():
    assert lint_primitives("RETURN reduce(a = 0, x IN [1] | a)") == []
    for name, arity in FUNCTION_ARITY.items():
        assert lint_primitives(f"RETURN {name}({', '.join(['1'] * arity)})") == []
    assert lint_primitives("RETURN size(1)") == [
        "UnsupportedFeature at line 1, column 8: function size()"
    ]


def test_lint_reports_text_outside_the_subset():
    assert lint_primitives('RETURN "a"') == [
        "SyntaxError at line 1, column 8: illegal character '\"'"
    ]


@pytest.mark.parametrize("query, column", [("RETURN 1 AS x, 2 AS x", 21), ("RETURN x, x", 11)])
def test_lint_flags_a_repeated_return_alias(query, column):
    assert lint_primitives(query) == [
        f"SyntaxError at line 1, column {column}: duplicate return alias 'x'"
    ]


# every word the parser treats specially, plus names of library procedures
# and of functions inside and outside the whitelist, in three letter cases
_LINT_VOCABULARY = sorted(KEYWORDS | UNSUPPORTED | {"APOC", "GDS", "SIZE", "HEAD", "RANGE", "REDUCE"})
_words = st.sampled_from(_LINT_VOCABULARY).flatmap(
    lambda w: st.sampled_from((w.lower(), w.upper(), w.title()))
)
# each slot {i} is a name, binder, alias, map key, property, parameter or callee
_LINT_SHAPES = [
    "LET {0} = {{{1}: 1, next: 2}} RETURN {0}.{1} AS {2}",
    "RETURN reduce({0} = 0, {1} IN [${2}] | {0} + {1}) AS {3}",
    "CYPHER 25 RETURN [{0} IN range(1, 3) WHERE {0} > 1 | {{{1}: {0}}}] AS {2}",
    "RETURN head([{0} IN [${1}] | {0}.{2}])",
    "LET {0} = [1] RETURN {1}({0})",
    "LET {0} = true RETURN {0} {1}({0}) AS {2};",
    "RETURN {{{0}: {{{1}: 2}}}}.{0}.{1} {2} 1",
    "{0} RETURN 1",
    "RETURN {{a: {0}: 1}}",
    "RETURN 1, {0}: 2",
    "RETURN head([1, {0}: 2])",
]


@given(shape=st.sampled_from(_LINT_SHAPES), words=st.lists(_words, min_size=4, max_size=4))
@settings(max_examples=400, deadline=None)
def test_lint_agrees_with_the_parser(shape, words):
    text = shape.format(*words)
    try:
        parse_query(text)
    except CypherError as exc:
        assert lint_primitives(text) == [str(exc)]
    else:
        assert lint_primitives(text) == []


@pytest.mark.parametrize("text", [
    "RETURN [x IN [1] WHERE x > 0]",
    "RETURN {match: 1}",
    "LET m = {create: 1} RETURN m.create",
    "RETURN $set AS x",
    "LET apoc = 1 RETURN apoc",
    "RETURN {a: 1, limit: 2}",
    "RETURN {a: [1, 2], limit: 3}",
    "RETURN {a: head([{b: 1}, (2)]), limit: 3}",
])
def test_lint_passes_words_the_parser_reads_as_names(text):
    parse_query(text)
    assert lint_primitives(text) == []


# each position where the parser reads a name and refuses an unsupported word
_UNSUPPORTED_POSITIONS = [
    "{} RETURN 1",  # statement start
    "RETURN {}",  # RETURN operand
    "LET {} = 1 RETURN 1",  # LET name
    "RETURN 1 AS {}",  # alias
    "RETURN reduce({} = 0, x IN [1] | 0)",  # reduce accumulator
    "RETURN reduce(a = 0, {} IN [1] | a)",  # reduce element
    "RETURN [{} IN [1] | 1]",  # comprehension variable
    # before ':', a word is a map key only after '{' or after a ',' whose
    # innermost unclosed bracket is '{'
    "RETURN {{a: {}: 1}}",
    "RETURN [x IN [1] WHERE x = 1 | {}: 2]",
    "RETURN 1, {}: 2",
    "RETURN head([1, {}: 2])",
    "RETURN range(1, {}: 2)",
]


@pytest.mark.parametrize("word", sorted(UNSUPPORTED))
def test_lint_flags_every_unsupported_word_the_parser_refuses(word):
    for position in _UNSUPPORTED_POSITIONS:
        for spelling in (word, word.lower(), word.title()):
            text = position.format(spelling)
            column = position.format("\0").index("\0") + 1
            verdict = f"UnsupportedFeature at line 1, column {column}: {word}"
            with pytest.raises(UnsupportedFeature) as exc_info:
                parse_query(text)
            assert str(exc_info.value) == verdict, text
            assert lint_primitives(text) == [verdict], text


@pytest.mark.parametrize("name", ["HEAD", "Reduce", "size"])
def test_lint_flags_calls_the_parser_refuses(name):
    text = f"RETURN {name}([1])"
    verdict = f"UnsupportedFeature at line 1, column 8: function {name}()"
    with pytest.raises(UnsupportedFeature) as exc_info:
        parse_query(text)
    assert str(exc_info.value) == verdict
    assert lint_primitives(text) == [verdict]


def test_lint_time_is_linear_in_the_text():
    # many map keys after a long list; the lint's time is parse_query's
    text = ("RETURN {a: [" + ", ".join(["0"] * 20_000) + "], "
            + ", ".join(f"limit: {i}" for i in range(1000)) + "}")
    assert lint_primitives(text) == []


# ------------------------------------------------------------- normalization


def test_normalize_tokens_ignores_comments_and_whitespace():
    a = "LET x=1 // note\nRETURN x"
    b = "LET  x   = 1\n/* long\ncomment */ RETURN x"
    assert normalize_tokens(a) == normalize_tokens(b)
    assert queries_token_equal(a, b)
    assert not queries_token_equal(a, "LET x = 2 RETURN x")


def test_normalize_tokens_preserves_string_contents():
    assert normalize_tokens("'a b'") != normalize_tokens("'a  b'")


def test_comment_markers_inside_strings_are_string_content():
    assert not queries_token_equal("RETURN 'a // b'", "RETURN 'a // c'")
    assert not queries_token_equal("RETURN '/* a */ b'", "RETURN '/* c */ b'")
    assert normalize_tokens("RETURN 'a // b' // note") == ["RETURN", "'a // b'"]


def test_normalized_string_never_equals_identifier():
    assert not queries_token_equal("RETURN 'x'", "RETURN x")


def test_normalize_tokens_rejects_text_outside_the_subset():
    with pytest.raises(CypherSyntaxError, match="illegal character '!'"):
        normalize_tokens("RETURN 1 != 2")


# ---------------------------------------------------------------- properties


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_generation_is_deterministic(seed):
    program = random_program(seed, 8)
    assert gen_reduce_query(program).text == gen_reduce_query(program).text
    assert gen_qpp_setup(program).text == gen_qpp_setup(program).text


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_generated_reduce_query_always_lints_clean(seed):
    program = random_program(seed, 8)
    assert lint_primitives(gen_reduce_query(program).text) == []
