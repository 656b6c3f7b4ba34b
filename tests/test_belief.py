import random
from dataclasses import astuple

import pytest

from genstates import random_near_pair, random_span, random_state
from oracles import (
    extended_prf,
    oracle_constraints,
    oracle_domains,
    oracle_joint_goal,
    oracle_parse_belief_span,
    oracle_ruk,
)
from seknow.belief import (
    ExtendedBeliefState,
    extend_state,
    joint_goal_match,
    make_state,
    parse_belief_span,
    prf_counts,
    ruk_domain,
    serialize_belief,
    span_fields,
)
from seknow.errors import EvaluationError, ParseError
from seknow.metrics import PrfReport

PAPER_SPAN = "restaurant { food = italian , area = center }"


def state_of(*triples, topic=()):
    return make_state(triples, topic)


def test_serialize_canonical_two_triples():
    state = state_of(("restaurant", "food", "italian"), ("restaurant", "area", "center"))
    # canonical form sorts slots alphabetically within the domain
    assert serialize_belief(state) == "restaurant { area = center , food = italian }"


def test_serialize_empty_state():
    assert serialize_belief(make_state([])) == ""


def test_serialize_ruk_and_topic():
    state = state_of(("restaurant", "food", "italian"),
                     ("restaurant", "ruk", "pizza hut"), topic=["favorite"])
    assert serialize_belief(state) == \
        "restaurant { food = italian , ruk = pizza hut } || favorite"


def test_ruk_sorts_last_within_domain():
    state = state_of(("hotel", "ruk", "acorn"), ("hotel", "type", "guesthouse"),
                     topic=["breakfast"])
    assert serialize_belief(state) == \
        "hotel { type = guesthouse , ruk = acorn } || breakfast"


def test_domains_keep_first_mention_order():
    state = state_of(("train", "day", "saturday"), ("hotel", "area", "north"))
    assert serialize_belief(state) == \
        "train { day = saturday } hotel { area = north }"


def test_parse_paper_example_span():
    state = parse_belief_span(PAPER_SPAN)
    assert set(state.triples) == {("restaurant", "food", "italian"),
                                  ("restaurant", "area", "center")}
    assert state.topic == ()


def test_parse_empty():
    assert parse_belief_span("") == make_state([])
    assert parse_belief_span("   ") == make_state([])


def test_parse_whitespace_tolerant():
    sloppy = "  restaurant   {  food =  italian ,   area = center }  "
    assert parse_belief_span(sloppy) == parse_belief_span(PAPER_SPAN)


def test_parse_duplicate_slot_keeps_last():
    state = parse_belief_span("restaurant { food = italian , food = chinese }")
    assert state.triples == (("restaurant", "food", "chinese"),)


def test_parse_empty_value_reports_offset():
    text = "restaurant { food = }"
    with pytest.raises(ParseError, match="empty value") as err:
        parse_belief_span(text)
    assert err.value.offset == text.index("}")


def test_parse_refuses_an_empty_block():
    # block := DOMAIN '{' pair (',' pair)* '}'; an empty block used to drop its domain
    for text in ("hotel { }", "restaurant { food = thai } hotel {  } || x"):
        for parse in (parse_belief_span, oracle_parse_belief_span):
            with pytest.raises(ParseError, match="expected slot name, found '}'") as err:
                parse(text)
            assert err.value.offset == text.rindex("}")


def test_parse_unbalanced_braces():
    with pytest.raises(ParseError, match="unbalanced"):
        parse_belief_span("restaurant { food = italian")


def test_parse_missing_equals():
    with pytest.raises(ParseError, match="missing '='"):
        parse_belief_span("restaurant { food italian }")


def test_parse_topic_without_separator():
    with pytest.raises(ParseError, match="expected '{'"):
        parse_belief_span("restaurant { food = italian } favorite")


def test_parse_topic_requires_ruk():
    with pytest.raises(ParseError, match="ruk"):
        parse_belief_span("restaurant { food = italian } || favorite")
    with pytest.raises(ValueError, match="ruk"):
        make_state([("restaurant", "food", "italian")], ["favorite"])


def test_parse_empty_topic_segment():
    with pytest.raises(ParseError, match="empty topic"):
        parse_belief_span("restaurant { ruk = pizza hut } ||")


def test_parse_reserved_token_in_topic_reports_its_own_offset():
    text = "hotel { ruk = acorn } || a { b"
    for parse in (parse_belief_span, oracle_parse_belief_span):
        with pytest.raises(ParseError, match="reserved token '{' in topic") as err:
            parse(text)
        assert err.value.offset == text.index("{", 20)


@pytest.mark.parametrize("text, detail", [
    ("it's = x", "expected '{' after domain \"it's\""),
    ("hotel { a\\b }", "missing '=' after slot 'a\\\\b'"),
    ("hotel { \x00 }", "missing '=' after slot '\\x00'"),
])
def test_parse_error_quotes_a_token_as_its_repr(text, detail):
    for parse in (parse_belief_span, oracle_parse_belief_span):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.detail == f"{detail} (byte offset {err.value.offset})"


def test_parse_refuses_text_that_is_not_utf8():
    text = "restaurant { area = \udcff }"
    with pytest.raises(ParseError, match="not valid UTF-8") as err:
        parse_belief_span(text)
    assert err.value.offset == text.index("\udcff")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


def _fields_outcome(text):
    """:func:`span_fields` of ``text``: each key's value, the domains in first-mention order,
    the ruk domain and the topic; or the error."""
    try:
        latest, topic = span_fields(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset
    return latest, list(dict.fromkeys(d for d, _ in latest)), ruk_domain(latest), tuple(topic)


def _oracle_fields_outcome(text):
    """The same fields, read from the reference parser's state."""
    state = _outcome(oracle_parse_belief_span, text)
    if isinstance(state, tuple):
        return state
    ruk = state.ruk()
    return ({(d, s): v for d, s, v in state.triples}, list(state.domains()),
            ruk and ruk[0], state.topic)


def test_parse_matches_reference_parser():
    rng = random.Random(909)
    accepted = refused = 0
    for _ in range(20_000):
        text = random_span(rng)
        got = _outcome(parse_belief_span, text)
        assert got == _outcome(oracle_parse_belief_span, text), text
        assert _fields_outcome(text) == _oracle_fields_outcome(text), text
        if isinstance(got, tuple):
            refused += 1
        else:
            accepted += 1
    assert accepted >= 1_000 and refused >= 1_000, (accepted, refused)


def test_no_code_point_lowercases_into_whitespace():
    # parse_belief_span lowercases its space-joined words in place of normalizing them
    for cp in range(0x110000):
        char = chr(cp)
        if not char.isspace():
            assert len(char.lower().split()) == 1, hex(cp)


def test_state_views_equal_their_definitions_and_are_derived_once():
    rng = random.Random(3002)
    states = [ExtendedBeliefState(),
              ExtendedBeliefState(triples=(("hotel", "ruk", "acorn"), ("hotel", "area", "north")))]
    for _ in range(400):
        state = random_state(rng)
        states.append(state)
        # a ruk in a domain with no constraint: in domains() but not in constraints()
        states.append(extend_state(state, "police", rng.choice(["a", "b c"]), ("wifi",)))
    ruk_only = 0
    for state in states:
        views = state.domains(), state.constraints(), state.ruk()
        assert list(views[0]) == oracle_domains(state)
        assert [(d, list(slots.items())) for d, slots in views[1].items()] == \
            oracle_constraints(state)
        ruk = oracle_ruk(state)
        assert views[2] == (None if ruk is None else (ruk[0], ruk[2]))
        for again, view in zip((state.domains(), state.constraints(), state.ruk()), views):
            assert again is view
        ruk_only += len(views[0]) > len(views[1])
    assert ruk_only > 300


def test_roundtrip_random_states():
    rng = random.Random(20240811)
    for _ in range(500):
        state = random_state(rng)
        assert parse_belief_span(serialize_belief(state)) == state


def test_serialize_idempotent_on_parse():
    rng = random.Random(7)
    for _ in range(200):
        text = serialize_belief(random_state(rng))
        assert serialize_belief(parse_belief_span(text)) == text


def index_topics(index, domain, entity_id, doc_id):
    """The topic words of one index row, in the index's order."""
    return tuple(tw.token for tw in index.entries[(domain, entity_id, doc_id)])


def test_extend_state_adds_ruk_and_topic(toy_index):
    original = state_of(("restaurant", "food", "italian"))
    extended = extend_state(original, "restaurant", "pizza hut",
                            index_topics(toy_index, "restaurant", "pizza hut", "d1"))
    assert extended.ruk() == ("restaurant", "pizza hut")
    assert extended.topic == ("favorite",)
    assert extended.constraints() == original.constraints()


def test_extend_state_two_topics_keep_index_order(toy_index):
    topics = index_topics(toy_index, "restaurant", "roma ristorante", "d3")
    extended = extend_state(make_state([]), "restaurant", "roma ristorante", topics)
    assert extended.topic == ("romantic", "dinner")
    assert serialize_belief(extended) == "restaurant { ruk = roma ristorante } || romantic dinner"


def test_extend_state_idempotent(toy_index):
    original = state_of(("restaurant", "area", "center"))
    topics = index_topics(toy_index, "restaurant", "pizza hut", "d2")
    once = extend_state(original, "restaurant", "pizza hut", topics)
    twice = extend_state(once, "restaurant", "pizza hut", topics)
    assert once == twice


def test_extend_state_drops_a_ruk_only_domain():
    # The heuristic's case: the previous turn's extension was the restaurant's only
    # triple, and this turn's is in the hotel domain mentioned after it.
    prev = state_of(("restaurant", "ruk", "pizza hut"), ("hotel", "area", "north"),
                    topic=("favorite",))
    extended = extend_state(prev, "hotel", "acorn guest house", ("parking",))
    assert extended.domains() == ("hotel",)
    assert serialize_belief(extended) == \
        "hotel { area = north , ruk = acorn guest house } || parking"


def test_joint_goal_identical():
    state = state_of(("restaurant", "food", "italian"))
    assert joint_goal_match(state, state)


def test_joint_goal_ignores_extension():
    gold = state_of(("restaurant", "food", "italian"))
    pred = state_of(("restaurant", "food", "italian"),
                    ("restaurant", "ruk", "pizza hut"), topic=["favorite"])
    assert joint_goal_match(pred, gold)
    other = state_of(("restaurant", "food", "italian"),
                     ("restaurant", "ruk", "roma"), topic=["dinner"])
    assert joint_goal_match(pred, other)


def test_joint_goal_differing_value():
    assert not joint_goal_match(state_of(("restaurant", "food", "italian")),
                                state_of(("restaurant", "food", "chinese")))


def test_joint_goal_reflexive_symmetric():
    rng = random.Random(99)
    for _ in range(100):
        a, b = random_state(rng), random_state(rng)
        assert joint_goal_match(a, a)
        assert joint_goal_match(a, b) == joint_goal_match(b, a)


def test_joint_goal_and_ruk_counts_match_their_definitions():
    rng = random.Random(1901)
    joint = ruk_correct = ruk_wrong = 0
    for _ in range(3_000):
        pred, gold = random_near_pair(rng)
        assert joint_goal_match(pred, gold) == oracle_joint_goal(pred, gold), (pred, gold)
        p, g = oracle_ruk(pred), oracle_ruk(gold)
        correct = p is not None and g is not None and (p[0], p[2]) == (g[0], g[2])
        topic = bool(pred.topic) and bool(gold.topic) and set(pred.topic) == set(gold.topic)
        assert prf_counts(pred, gold) == (correct, p is not None, g is not None,
                                          topic, bool(pred.topic), bool(gold.topic))
        joint += oracle_joint_goal(pred, gold)
        ruk_correct += correct
        ruk_wrong += p is not None and g is not None and not correct
    assert 900 <= joint <= 2_100 and ruk_correct >= 500 and ruk_wrong >= 200, \
        (joint, ruk_correct, ruk_wrong)


def shipped_prf(preds, golds):
    """The fold evaluate_corpus runs: PrfReport.from_counts of the summed per-turn
    prf_counts, as (precision, recall, f1) in percent."""
    counts = [0] * 6
    for pred, gold in zip(preds, golds, strict=True):
        counts = [a + b for a, b in zip(counts, prf_counts(pred, gold), strict=True)]
    return {"ruk": astuple(PrfReport.from_counts(*counts[:3])),
            "topic": astuple(PrfReport.from_counts(*counts[3:]))}


def oracle_prf(preds, golds):
    """The oracle's extended_prf fractions, each times 100 as the report scales them."""
    return {k: tuple(100.0 * x for x in v) for k, v in extended_prf(preds, golds).items()}


# each case holds the shipped fold and the oracle's extended_prf to the same figures
PRF_FOLDS = (shipped_prf, oracle_prf)


def test_extended_prf_all_correct():
    states = [state_of(("restaurant", "ruk", "pizza hut"), topic=["favorite"]),
              state_of(("hotel", "ruk", "acorn"), topic=["breakfast", "parking"])]
    for fold in PRF_FOLDS:
        prf = fold(states, states)
        assert prf["ruk"] == (100.0, 100.0, 100.0)
        assert prf["topic"] == (100.0, 100.0, 100.0)


def test_extended_prf_never_predicts_ruk():
    golds = [state_of(("restaurant", "ruk", "pizza hut"), topic=["favorite"])] * 3
    preds = [make_state([])] * 3
    for fold in PRF_FOLDS:
        prf = fold(preds, golds)
        assert prf["ruk"] == (0.0, 0.0, 0.0)
        assert prf["topic"] == (0.0, 0.0, 0.0)


def test_extended_prf_half_recall():
    gold = state_of(("restaurant", "ruk", "pizza hut"), topic=["favorite"])
    empty = make_state([])
    preds = [gold, gold, empty, empty]
    golds = [gold, gold, gold, gold]
    for fold in PRF_FOLDS:
        prf = fold(preds, golds)
        precision, recall, f1 = prf["ruk"]
        assert (precision, recall) == (100.0, 50.0)
        assert f1 == 100.0 * (2 / 3)
        assert prf["topic"] == prf["ruk"]


def test_extended_prf_topic_set_equality():
    pred = state_of(("hotel", "ruk", "acorn"), topic=["parking", "breakfast"])
    gold = state_of(("hotel", "ruk", "acorn"), topic=["breakfast", "parking"])
    other = state_of(("hotel", "ruk", "acorn"), topic=["parking"])
    for fold in PRF_FOLDS:
        assert fold([pred], [gold])["topic"] == (100.0, 100.0, 100.0)
        assert fold([other], [gold])["topic"] == (0.0, 0.0, 0.0)


def test_extended_prf_alignment_error():
    with pytest.raises(EvaluationError):
        extended_prf([make_state([])], [])
