import json
import random

import pytest

from oracles import oracle_find_unclaimed
from seknow import (
    CorruptionSample,
    Session,
    corrupt_samples,
    lexicalize,
    make_heuristic_predictor,
    make_oracle_predictor,
    make_state,
    make_template_generator,
    parse_belief_span,
    run_turn,
    serialize_belief,
    structured_query,
    template_generate,
)
from seknow.errors import CorruptionError, OracleError, PipelineError, TemplateError
from seknow.pipeline import TemplateSet, _find_unclaimed, load_templates


@pytest.fixture(scope="module")
def templates():
    return load_templates()


def query_for(toy_kb, *triples, topic=()):
    return structured_query(toy_kb, make_state(triples, topic))


def test_template_offer_with_count(toy_kb, templates):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center")])
    text = template_generate(state, structured_query(toy_kb, state), None, templates)
    assert text == "i found 2 options . [name] is a nice choice ."


def test_template_no_match(toy_kb, templates):
    state = make_state([("restaurant", "food", "korean")])
    text = template_generate(state, structured_query(toy_kb, state), None, templates)
    assert text == "sorry , no match found ."


def test_template_document_answer(toy_kb, toy_index, templates):
    from seknow import knowledge_operation
    state = make_state([("restaurant", "ruk", "pizza hut")], ["favorite"])
    query, document, _ = knowledge_operation(toy_kb, toy_index, state)
    text = template_generate(state, query, document, templates)
    assert text.startswith("according to our information : ")
    assert "favorite" in text


def test_template_missing_domain_errors(toy_kb):
    bare = TemplateSet(entries={})
    state = make_state([("restaurant", "food", "italian")])
    with pytest.raises(TemplateError):
        template_generate(state, structured_query(toy_kb, state), None, bare)


def test_lexicalize_name(toy_kb):
    query = query_for(toy_kb, ("hotel", "type", "guesthouse"), ("hotel", "area", "north"))
    out = lexicalize("[name] is nice", query, toy_kb)
    assert out.text == "acorn guest house is nice"
    assert out.unresolved == ()


def test_lexicalize_zero_matches_reports(toy_kb):
    query = query_for(toy_kb, ("restaurant", "food", "korean"))
    out = lexicalize("[name] is nice", query, toy_kb)
    assert out.text == "[name] is nice"
    assert out.unresolved == ("name",)


def test_lexicalize_two_placeholders(toy_kb):
    query = query_for(toy_kb, ("restaurant", "food", "chinese"))
    out = lexicalize("[name] is at [address]", query, toy_kb)
    assert out.text == "golden wok is at histon road"
    assert out.unresolved == ()


def test_run_turn_first_scenario(toy_kb, toy_index, templates):
    session = Session()
    golds = [
        make_state([("restaurant", "food", "italian"), ("restaurant", "area", "center")]),
        make_state([("restaurant", "food", "italian"), ("restaurant", "area", "center"),
                    ("restaurant", "ruk", "pizza hut")], ["favorite"]),
    ]
    predictor = make_oracle_predictor(golds)
    generator = make_template_generator(templates)
    out1 = run_turn(session, "i want an italian place in the center",
                    predictor, generator, toy_kb, toy_index)
    assert "restaurant 2 match" in out1.query_span
    assert out1.document is None
    assert out1.lexicalized_response == "i found 2 options . pizza hut is a nice choice ."

    out2 = run_turn(session, "what do customers say is their favorite food ?",
                    predictor, generator, toy_kb, toy_index)
    assert out2.document is not None
    assert out2.document.doc_id == "d1"
    assert "customers favorite food" in out2.delexicalized_response
    assert session.turn_index == 2
    assert session.prev_belief == golds[1]


def test_run_turn_passes_utterance_unchanged(toy_kb, toy_index, templates):
    seen = []

    def spy(context, prev):
        seen.append(context.latest_user())
        return prev

    session = Session()
    run_turn(session, "", spy, make_template_generator(templates), toy_kb, toy_index)
    assert seen == [""]


def test_run_turn_wraps_predictor_failure(toy_kb, toy_index, templates):
    def broken(context, prev):
        raise RuntimeError("boom")

    with pytest.raises(PipelineError, match="turn 0"):
        run_turn(Session(), "hi", broken, make_template_generator(templates),
                 toy_kb, toy_index)


def test_oracle_predictor_verbatim():
    gold = make_state([("restaurant", "food", "italian")])
    extended = make_state([("restaurant", "ruk", "pizza hut")], ["favorite"])
    predictor = make_oracle_predictor([gold, extended])
    assert predictor(None, make_state([])) is gold
    assert predictor(None, gold) is extended


def test_oracle_predictor_missing_annotation():
    gold = make_state([("restaurant", "food", "italian")])
    predictor = make_oracle_predictor([gold, None])
    assert predictor(None, make_state([])) is gold
    with pytest.raises(OracleError, match="no gold belief annotation"):
        predictor(None, gold)
    with pytest.raises(OracleError, match="more turns than gold annotations"):
        predictor(None, gold)


def test_heuristic_adds_verbatim_ontology_values(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    session = Session()
    session.utterances.append(("user", "looking for italian food in the center"))
    state = predictor(session.context(), make_state([]))
    constraints = state.constraints()["restaurant"]
    assert constraints["food"] == "italian"
    assert constraints["area"] == "center"


def test_heuristic_sets_ruk_on_topic_overlap(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("hotel", "area", "north")])
    session = Session()
    session.utterances.append(("user", "do they serve breakfast ?"))
    state = predictor(session.context(), prev)
    ruk = state.ruk_triple()
    assert ruk is not None
    assert (ruk.domain, ruk.value) == ("hotel", "acorn guest house")
    assert state.topic == ("breakfast",)


def test_heuristic_no_hits_returns_prev(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("restaurant", "pricerange", "cheap")])
    session = Session()
    session.utterances.append(("user", "thanks, goodbye!"))
    assert predictor(session.context(), prev) == prev


def test_heuristic_longest_match_first(toy_kb, toy_index):
    # "acorn guest house" must win over shorter overlapping values
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    session = Session()
    session.utterances.append(("user", "is acorn guest house in the north ?"))
    state = predictor(session.context(), make_state([]))
    assert state.constraints()["hotel"]["name"] == "acorn guest house"


# regex metacharacters, non-word edges, values that prefix others, and ""
FIND_VALUES = ["c++", "£10", "19:45", "a.m.", "north-east", "st", "star", "5 star", ""]
FIND_FILLER = ["the", "north", "east", "stars", "5", "at", "10"]


def test_find_unclaimed_matches_regex_reference():
    rng = random.Random(0)
    hits = 0
    for _ in range(2000):
        value = rng.choice(FIND_VALUES)
        # the value is drawn three times as often as any other piece, so it repeats
        pieces = [rng.choice([value] * 3 + FIND_VALUES + FIND_FILLER)
                  for _ in range(rng.randint(0, 8))]
        utterance = "".join(p + rng.choice([" ", " ", "", "-", ".", ",", "?"]) for p in pieces)
        claimed = []
        for _ in range(rng.randint(0, 3)):
            lo = rng.randint(0, len(utterance))
            claimed.append((lo, rng.randint(lo, len(utterance))))
        expected = oracle_find_unclaimed(utterance, value, claimed)
        assert _find_unclaimed(utterance, value, claimed) == expected, (utterance, value, claimed)
        hits += expected is not None
    assert 400 < hits < 1600  # both outcomes are well covered


def sample(span, response="resp"):
    return CorruptionSample(context=(("user", "hi"),), belief_span=span,
                            query_span="", document=None, response=response)


ONTOLOGY = {
    ("restaurant", "food"): ("chinese", "italian"),
    ("restaurant", "area"): ("center", "north", "south"),
}


def make_samples(n):
    foods = ["italian", "chinese"]
    areas = ["center", "north", "south"]
    return [sample(serialize_belief(make_state([
        ("restaurant", "food", foods[k % 2]),
        ("restaurant", "area", areas[k % 3])])), response=f"response {k}")
        for k in range(n)]


def test_corrupt_exactly_half():
    out = corrupt_samples(make_samples(10), seed=5, ontology=ONTOLOGY)
    assert sum(1 for s in out if s.y_c == 0) == 5
    assert sum(1 for s in out if s.y_c == 1) == 5
    assert all((s.corruption_type == "none") == (s.y_c == 1) for s in out)


def test_corrupt_deterministic():
    a = corrupt_samples(make_samples(30), seed=7, ontology=ONTOLOGY)
    b = corrupt_samples(make_samples(30), seed=7, ontology=ONTOLOGY)
    assert a == b
    c = corrupt_samples(make_samples(30), seed=8, ontology=ONTOLOGY)
    assert a != c


def test_corrupt_value_swap_is_forced_alternative():
    ontology = {("restaurant", "food"): ("chinese", "italian")}
    base = [sample("restaurant { food = italian }", f"r{k}") for k in range(12)]
    out = corrupt_samples(base, seed=3, ontology=ontology)
    swapped = [s for s in out if s.corruption_type == "replace_values"]
    assert swapped, "at least one value corruption expected at this size"
    for s in swapped:
        assert s.belief_span == "restaurant { food = chinese }"


def test_corrupt_value_swap_differs_and_keeps_topic(toy_kb):
    from seknow import build_ontology
    ontology = build_ontology(toy_kb, include_ruk=True)
    assert ontology[("restaurant", "food")] == ("chinese", "italian")
    assert "pizza hut" in ontology[("restaurant", "ruk")]
    spans = [serialize_belief(make_state(
        [("restaurant", "food", "italian"), ("restaurant", "ruk", "pizza hut")],
        ["favorite"]))] * 20
    out = corrupt_samples([sample(s, f"r{k}") for k, s in enumerate(spans)],
                          seed=1, ontology=ontology)
    for s in out:
        if s.corruption_type != "replace_values":
            continue
        state = parse_belief_span(s.belief_span)
        assert s.belief_span != spans[0]
        assert state.topic == ("favorite",)
        assert state.ruk_triple().value != "pizza hut"


def test_corrupt_missing_alternative_errors():
    ontology = {("restaurant", "food"): ("italian",)}
    base = [sample("restaurant { food = italian }", f"r{k}") for k in range(8)]
    with pytest.raises(CorruptionError, match="restaurant-food"):
        corrupt_samples(base, seed=0, ontology=ontology)


def test_corrupt_replacements_come_from_other_samples():
    samples = make_samples(16)
    out = corrupt_samples(samples, seed=11, ontology=ONTOLOGY)
    spans = {s.belief_span for s in samples}
    responses = {s.response for s in samples}
    for original, corrupted in zip(samples, out):
        if corrupted.corruption_type == "replace_state":
            assert corrupted.belief_span in spans
            assert corrupted.response == original.response
        elif corrupted.corruption_type == "replace_response":
            assert corrupted.response in responses
            assert corrupted.belief_span == original.belief_span


def test_corrupt_needs_two_samples():
    with pytest.raises(CorruptionError):
        corrupt_samples([sample("restaurant { food = italian }")], 0, ONTOLOGY)


def test_corrupt_output_json_stable():
    out1 = corrupt_samples(make_samples(25), seed=42, ontology=ONTOLOGY)
    out2 = corrupt_samples(make_samples(25), seed=42, ontology=ONTOLOGY)
    dump = lambda out: json.dumps([s.__dict__ | {"context": list(s.context)}
                                   for s in out], sort_keys=True)
    assert dump(out1) == dump(out2)
