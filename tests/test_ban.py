"""Belief-logic engine: grammar, postulates, goal derivation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from nfcbms import ban
from nfcbms.ban import (
    Believes,
    DoubleEncrypted,
    Encrypted,
    Fresh,
    Key,
    NonceTerm,
    NotDerivable,
    Pair,
    Principal,
    ProofTrace,
    Rule,
    Said,
    Sees,
    SharedKey,
)

NR = Principal("NR")
MN = Principal("MN")
KM = Key("KM")
KS = Key("KS")
CHR = NonceTerm("chr")
CHT = NonceTerm("cht")
KM_SHARE = SharedKey(NR, KM, MN)
KS_SHARE = SharedKey(NR, KS, MN)


def bundled_spec() -> ban.ProtocolSpec:
    from importlib import resources

    text = resources.files("nfcbms.data").joinpath("handshake.ban").read_text()
    return ban.parse_protocol(text)


BUNDLED_SYMBOLS = bundled_spec().symbols


def parse_statement(text: str, symbols: ban.SymbolTable = BUNDLED_SYMBOLS):
    return ban.parse_statement(text, symbols)


# --- parsing ---


def test_parse_believes_fresh():
    assert parse_statement("NR |= fresh(chr)") == Believes(NR, Fresh(CHR))


def test_parse_believes_shared_key():
    assert parse_statement("MN |= NR <-KM-> MN") == Believes(MN, KM_SHARE)


def test_parse_sees_double_encrypted():
    stmt = parse_statement("NR <| {{(chr, NR <-KM-> MN)}KM}KM")
    assert stmt == Sees(NR, DoubleEncrypted(Pair(CHR, KM_SHARE), KM))


def test_parse_nested_belief():
    stmt = parse_statement("NR |= MN |= NR <-KM-> MN")
    assert stmt == Believes(NR, Believes(MN, KM_SHARE))


def test_parse_said():
    assert parse_statement("MN |~ (chr, cht)") == Said(MN, Pair(CHR, CHT))


def test_parse_single_encryption_distinct_from_double():
    assert parse_statement("NR <| {chr}KM") == Sees(NR, Encrypted(CHR, KM))


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ban.ParseError):
        parse_statement("NR |= fresh(chr")


def test_parse_undeclared_symbol():
    with pytest.raises(ban.ParseError) as excinfo:
        parse_statement("NR |= fresh(bogus)")
    assert excinfo.value.pos > 0


def test_parse_trailing_garbage():
    with pytest.raises(ban.ParseError):
        parse_statement("NR |= fresh(chr) extra")


@pytest.mark.parametrize(("text", "parsed"), [
    ("NR <| fresh(chr)", Sees(NR, Fresh(CHR))),  # a fresh statement in term position
    ("(chr)", CHR),  # a group of one member is that member
])
def test_parse_fresh_term_and_one_member_group(text, parsed):
    assert parse_statement(text) == parsed


@pytest.mark.parametrize(("text", "detail"), [
    ("NR <| )", "unexpected token ')' (at position 6)"),
    ("NR <| NR <- ( -> MN", "expected key name (at position 12)"),
])
def test_parse_error_names_what_it_expected_and_where(text, detail):
    with pytest.raises(ban.ParseError) as excinfo:
        parse_statement(text)
    assert str(excinfo.value) == detail


def test_derive_needs_a_positive_depth():
    with pytest.raises(ValueError, match="^max_depth must be >= 1$"):
        ban.derive([], [], [], max_depth=0)


GOAL_LINES = "H: NR |= MN |= fresh(cht)\nH: MN |= NR |= NR <-KM-> MN\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (ban.parse_protocol, "principal NR\nkey NR\n", "line 2: 'NR' is already declared"),
        (ban.parse_protocol, "nonce X\nnonce X\n", "line 2: 'X' is already declared"),
        (ban.parse_protocol, "principal NR MN\n", "line 1: trailing input starting with 'MN'"),
        (ban.parse_protocol, "key\n", "line 1: expected a name to declare, got 'end of input'"),
        (ban.parse_protocol, "nonce fresh\n", "line 1: expected a name to declare, got 'fresh'"),
        (ban.parse_protocol, "key KM\nsessionkey KS\n", "line 2: expected 'from', got 'end of input'"),
        (ban.parse_protocol, "key KM\nsessionkey KS from KX\n", "line 2: undeclared symbol 'KX'"),
        (ban.parse_protocol, "principal NR\nsessionkey KS from NR\n", "line 2: 'NR' is not a declared key"),
        (ban.parse_protocol, "principal NR\nnonce n\n" + "goal G: NR |= fresh(n)\n" * 2,
         "line 4: goal label 'G' appears twice"),
        (lambda text: ban.parse_goals(text, BUNDLED_SYMBOLS), GOAL_LINES,
         "line 2: goal label 'H' appears twice"),
    ],
    ids=["retyped-name", "redeclared-name", "two-names", "no-name", "keyword-name", "sessionkey-without-from",
         "sessionkey-from-undeclared", "sessionkey-from-principal", "protocol-goal-label-twice",
         "goals-file-label-twice"],
)
def test_each_name_and_goal_label_is_declared_once(parse, text, message):
    with pytest.raises(ban.ParseError) as excinfo:
        parse(text)
    assert excinfo.value.message == message


def test_statement_rendering_roundtrips():
    texts = [
        "NR |= fresh(chr)",
        "MN |= NR <-KM-> MN",
        "NR <| {{(chr, NR <-KM-> MN)}KM}KM",
        "NR |= MN |= NR <-KS-> MN",
    ]
    for text in texts:
        stmt = parse_statement(text)
        assert parse_statement(str(stmt)) == stmt


# --- rule applications ---


def test_message_meaning_double_encryption():
    premises = [
        Believes(NR, KM_SHARE),
        Sees(NR, DoubleEncrypted(Pair(CHR, KM_SHARE), KM)),
    ]
    out = ban.apply_rule(Rule.MESSAGE_MEANING, premises)
    assert out == [Believes(NR, Said(MN, Pair(CHR, KM_SHARE)))]


def test_message_meaning_ignores_plaintext():
    premises = [Believes(MN, KM_SHARE), Sees(MN, Pair(NR, CHR))]
    assert ban.apply_rule(Rule.MESSAGE_MEANING, premises) == []


def test_message_meaning_wrong_key_yields_nothing():
    other = Key("KS")
    premises = [
        Believes(NR, KM_SHARE),
        Sees(NR, Encrypted(Pair(CHR, KM_SHARE), other)),
    ]
    assert ban.apply_rule(Rule.MESSAGE_MEANING, premises) == []
    # unless the key is declared from the believed one
    premises[1] = Sees(NR, Encrypted(Pair(CHR, KM_SHARE), Key("KS", KM)))
    out = ban.apply_rule(Rule.MESSAGE_MEANING, premises)
    assert out == [Believes(NR, Said(MN, Pair(CHR, KM_SHARE)))]


def test_freshness_promotion():
    premises = [
        Believes(NR, Fresh(CHR)),
        Believes(NR, Said(MN, Pair(CHR, KM_SHARE))),
    ]
    out = ban.apply_rule(Rule.FRESHNESS_PROMOTION, premises)
    assert out == [Believes(NR, Fresh(Pair(CHR, KM_SHARE)))]


def test_nonce_verification():
    premises = [
        Believes(NR, Fresh(Pair(CHR, KM_SHARE))),
        Believes(NR, Said(MN, Pair(CHR, KM_SHARE))),
    ]
    out = ban.apply_rule(Rule.NONCE_VERIFICATION, premises)
    assert out == [Believes(NR, Believes(MN, Pair(CHR, KM_SHARE)))]


def test_belief_projection_nested():
    stmt = Believes(NR, Believes(MN, Pair(CHR, KM_SHARE)))
    out = ban.apply_rule(Rule.BELIEF, [stmt])
    assert Believes(NR, Believes(MN, KM_SHARE)) in out
    assert Believes(NR, Believes(MN, CHR)) in out


def test_belief_projection_single_level():
    out = ban.apply_rule(Rule.BELIEF, [Believes(NR, Pair(CHR, KS_SHARE))])
    assert Believes(NR, KS_SHARE) in out


def test_rules_return_empty_on_non_matching_premises():
    lone_fresh = Believes(NR, Fresh(CHR))
    for rule in Rule:
        assert ban.apply_rule(rule, [lone_fresh]) == []


# --- derivation ---


def test_bundled_protocol_derives_all_goals():
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    assert isinstance(result, ProofTrace)
    assert set(spec.goals) == {"G1.1", "G1.2", "G2.1", "G2.2"}
    for goal in spec.goals.values():
        assert goal in result.goal_steps


HOP_PROTOCOL = """
principal NR
principal MN
key KA
key KB
sessionkey KS from KA
sessionkey KT from KS
nonce n
"""


def test_parsed_statements_alone_carry_each_session_key_one_hop_to_its_base():
    spec = bundled_spec()
    result = ban.derive(spec.assumptions, [stmt for _, stmt in spec.messages], list(spec.goals.values()))
    assert isinstance(result, ProofTrace)
    assert set(result.goal_steps) == set(spec.goals.values())

    # NR believes the KA share: traffic under KA, or under KS declared from
    # KA, is MN's; under KB, or under KT declared from KS, it is no one's
    symbols = ban.parse_protocol(HOP_PROTOCOL).symbols
    belief = parse_statement("NR |= NR <-KA-> MN", symbols)
    said = parse_statement("NR |= MN |~ n", symbols)
    for key, expected in (("KA", [said]), ("KS", [said]), ("KB", []), ("KT", [])):
        premises = [belief, parse_statement(f"NR <| {{n}}{key}", symbols)]
        assert [c for rule in Rule for c in ban.apply_rule(rule, premises)] == expected, key


def test_goal_g11_uses_the_documented_rule_sequence():
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    assert result.rules_for(spec.goals["G1.1"]) == [
        "message-meaning",
        "freshness-promotion",
        "nonce-verification",
        "belief",
    ]


def test_goal_symmetry_g12_mirrors_g11():
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    assert result.rules_for(spec.goals["G1.2"]) == result.rules_for(spec.goals["G1.1"])
    assert result.rules_for(spec.goals["G2.2"]) == result.rules_for(spec.goals["G2.1"])


def test_removing_freshness_assumptions_breaks_goals_at_fixpoint():
    spec = bundled_spec()
    kept = [a for a in spec.assumptions if not _is_freshness(a)]
    result = ban.derive(
        kept,
        [stmt for _, stmt in spec.messages],
        list(spec.goals.values()),
    )
    assert isinstance(result, NotDerivable)
    assert result.at_fixpoint
    assert spec.goals["G1.1"] in result.unreached
    assert spec.goals["G2.1"] in result.unreached


def _is_freshness(stmt) -> bool:
    return isinstance(stmt, Believes) and isinstance(stmt.fact, Fresh)


def test_depth_budget_exhaustion_is_distinguished_from_fixpoint():
    spec = bundled_spec()
    result = ban.derive(
        spec.assumptions,
        [stmt for _, stmt in spec.messages],
        list(spec.goals.values()),
        max_depth=1,
    )
    assert isinstance(result, NotDerivable)
    assert not result.at_fixpoint


def test_monotonicity_extra_assumptions_keep_goals():
    spec = bundled_spec()
    extra = spec.assumptions + [parse_statement("MN |= fresh(chr)", spec.symbols)]
    result = ban.derive(
        extra,
        [stmt for _, stmt in spec.messages],
        list(spec.goals.values()),
    )
    assert isinstance(result, ProofTrace)


def test_mirrored_protocol_derives_mirrored_goal():
    # swap principal and nonce roles wholesale; the mirrored G1.1 derives
    text = """
principal NR
principal MN
key KM
nonce chr
nonce cht
assume MN |= fresh(cht)
assume MN |= NR <-KM-> MN
message m3: MN <| {{(cht, NR <-KM-> MN)}KM}KM
goal G: MN |= NR |= NR <-KM-> MN
"""
    spec = ban.parse_protocol(text)
    result = ban.verify_protocol(spec)
    assert isinstance(result, ProofTrace)
    assert result.rules_for(spec.goals["G"]) == [
        "message-meaning",
        "freshness-promotion",
        "nonce-verification",
        "belief",
    ]


def test_derivation_terminates_without_goals():
    # unsatisfiable goal: engine must hit a fixpoint, not loop
    spec = bundled_spec()
    impossible = parse_statement("MN |= MN |= MN |= NR <-KM-> MN", spec.symbols)
    result = ban.derive(
        spec.assumptions,
        [stmt for _, stmt in spec.messages],
        [impossible],
        max_depth=64,
    )
    assert isinstance(result, NotDerivable)
    assert result.at_fixpoint


def test_trace_steps_are_reproducible_by_reapplying_rules():
    # soundness: every derived step re-derives from its cited premises
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    by_index = {s.index: s for s in result.steps}
    for step in result.steps:
        if step.rule in ("assumption", "message"):
            continue
        premises = [by_index[i].statement for i in step.premises]
        conclusions = ban.apply_rule(Rule(step.rule), premises)
        assert step.statement in conclusions


def test_trace_serialization():
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    payload = result.to_json()
    assert payload["derived"]
    assert len(payload["steps"]) >= 8
    rendered = result.render()
    assert "message-meaning" in rendered


def test_minimal_trace_has_no_orphan_steps():
    spec = bundled_spec()
    result = ban.verify_protocol(spec)
    used = set(result.goal_steps.values())
    for step in result.steps:
        used.update(step.premises)
    assert {s.index for s in result.steps} == used


# --- nesting: the 128-token statement limit is the only bound ---

DECLARATIONS = "principal NR\nprincipal MN\nkey KM\nnonce chr\nnonce cht\n"
INNER_FACTS = [
    "fresh(chr)",
    "NR <-KM-> MN",
    "MN |~ (chr, cht)",
    "(cht, MN |= fresh(chr))",
    "NR <| {{(chr, NR <-KM-> MN)}KM}KM",
]


def _tokens(text: str) -> int:
    return len(ban._tokenize(text)) - 1  # the last token marks the end


@st.composite
def nested_statements(draw) -> str:
    """A fact under a chain of beliefs, at most ``MAX_STATEMENT_TOKENS`` long."""
    fact = draw(st.sampled_from(INNER_FACTS))
    room = (ban.MAX_STATEMENT_TOKENS - _tokens(fact)) // 2  # each "P |=" is 2 tokens
    return "".join(f"{who} |= " for who in draw(st.lists(st.sampled_from(["NR", "MN"]), max_size=room))) + fact


@given(assumptions=st.lists(nested_statements(), min_size=1, max_size=4),
       messages=st.lists(st.sampled_from(["NR <| {(chr, NR <-KM-> MN)}KM", "MN <| {{cht}KM}KM"]), max_size=2))
def test_every_assumption_restated_as_a_goal_is_step_0(assumptions, messages):
    spec = ban.parse_protocol(DECLARATIONS
                              + "".join(f"assume {a}\n" for a in assumptions)
                              + "".join(f"message m{i}: {m}\n" for i, m in enumerate(messages)))
    for goal in spec.assumptions:
        result = ban.verify_protocol(spec, {"G": goal})
        assert isinstance(result, ProofTrace)
        assert result.goal_steps == {goal: 0}
        assert [(s.rule, s.statement) for s in result.steps] == [("assumption", goal)]


def test_deep_beliefs_over_nested_pairs_derive_to_a_fixpoint_at_the_token_limit():
    # two beliefs, then 20 levels of "P |= (..., cht)" around fresh(chr): 4 + 120 + 4 tokens
    believers = ["NR", "MN"] + [("MN", "NR")[i % 2] for i in range(20)]
    statement = "NR |= MN |= " + "".join(f"{who} |= (" for who in believers[2:]) + "fresh(chr)" + ", cht)" * 20
    assert _tokens(statement) == ban.MAX_STATEMENT_TOKENS
    deepest = "".join(f"{who} |= " for who in believers) + "fresh(chr)"  # 22 beliefs, all pairs projected
    spec = ban.parse_protocol(f"{DECLARATIONS}assume {statement}\ngoal deepest: {deepest}\n"
                              "goal unreachable: MN |= fresh(cht)\n")
    result = ban.verify_protocol(spec, max_depth=64)
    assert isinstance(result, NotDerivable)
    assert result.at_fixpoint
    assert result.unreached == [spec.goals["unreachable"]]
