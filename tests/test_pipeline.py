import json
import random
import sys
from pathlib import Path

import pytest

from oracles import oracle_find_unclaimed, oracle_heuristic_constraints
from seknow.belief import make_state, parse_belief_span, serialize_belief
from seknow.errors import CorruptionError, OracleError, PipelineError, TemplateError
from seknow.kb import Domain, Entity, KnowledgeBase, load_knowledge_base
from seknow.knowops import format_query_span, knowledge_operation, structured_query
from seknow.pipeline import (
    CorruptionSample,
    Session,
    TemplateSet,
    _find_unclaimed,
    corrupt_samples,
    lexicalize,
    load_templates,
    make_heuristic_predictor,
    make_oracle_predictor,
    make_template_generator,
    run_turn,
    template_generate,
)
from seknow.topics import TopicIndex, build_topic_index


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
    assert lexicalize("[name] is nice", query, toy_kb) == ("acorn guest house is nice", ())


def test_lexicalize_zero_matches_reports(toy_kb):
    query = query_for(toy_kb, ("restaurant", "food", "korean"))
    assert lexicalize("[name] is nice", query, toy_kb) == ("[name] is nice", ("name",))


def test_lexicalize_two_placeholders(toy_kb):
    query = query_for(toy_kb, ("restaurant", "food", "chinese"))
    assert lexicalize("[name] is at [address]", query, toy_kb) == (
        "golden wok is at histon road", ())


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
    assert format_query_span(out1.query) == "restaurant 2 match"
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
        return prev, None

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
    for prev, expected in ((make_state([]), gold), (gold, extended)):
        belief, query = predictor(None, prev)
        assert belief is expected and query is None


def test_oracle_predictor_missing_annotation():
    gold = make_state([("restaurant", "food", "italian")])
    predictor = make_oracle_predictor([gold])
    belief, query = predictor(None, make_state([]))
    assert belief is gold and query is None
    with pytest.raises(OracleError, match="more turns than gold annotations"):
        predictor(None, gold)


def test_heuristic_adds_verbatim_ontology_values(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    session = Session()
    session.utterances.append(("user", "looking for italian food in the center"))
    state, query = predictor(session.context(), make_state([]))
    assert query == structured_query(toy_kb, state)
    constraints = state.constraints()["restaurant"]
    assert constraints["food"] == "italian"
    assert constraints["area"] == "center"


def test_heuristic_sets_ruk_on_topic_overlap(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("hotel", "area", "north")])
    session = Session()
    session.utterances.append(("user", "do they serve breakfast ?"))
    state, query = predictor(session.context(), prev)
    assert query == structured_query(toy_kb, state)
    ruk = state.ruk_triple()
    assert ruk is not None
    assert (ruk.domain, ruk.value) == ("hotel", "acorn guest house")
    assert state.topic == ("breakfast",)


def test_heuristic_no_hits_returns_prev(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("restaurant", "pricerange", "cheap")])
    session = Session()
    session.utterances.append(("user", "thanks, goodbye!"))
    assert predictor(session.context(), prev) == (prev, structured_query(toy_kb, prev))


def test_heuristic_longest_match_first(toy_kb, toy_index):
    # "acorn guest house" must win over shorter overlapping values
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    session = Session()
    session.utterances.append(("user", "is acorn guest house in the north ?"))
    state, query = predictor(session.context(), make_state([]))
    assert query == structured_query(toy_kb, state)
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


# values opening with a non-word character, inner punctuation, digits, non-ASCII
# letters, "_" (a word character) and values that are prefixes of other values
ONTOLOGY_VALUES = ["-free", "(north)", "£10", "b&b", "st. john's", "st", "star", "5 star",
                   "5", "19:45", "café", "cafe", "caf", "a.m.", "x_ray", "north",
                   "north-east", "guest house", "guest", "日本", "c++"]
ONTOLOGY_FILLER = ["the", "in", "stars", "cafés", "CAFÉ", "st.", "johns", "x", "10", "ray"]


def test_heuristic_first_word_index_equals_full_scan():
    rng = random.Random(1989)
    slots = ["name", "area", "type", "food"]
    entities = {"hotel": [], "restaurant": []}
    for k, value in enumerate(ONTOLOGY_VALUES):
        for dom in rng.sample(sorted(entities), rng.randint(1, 2)):
            entities[dom].append(Entity(id=f"e{k}", name=f"e{k}",
                                        attributes={rng.choice(slots): value}))
    kb = KnowledgeBase(domains={dom: Domain(name=dom, slot_schema=frozenset(slots),
                                            entities=tuple(ents))
                                for dom, ents in entities.items()})
    predictor = make_heuristic_predictor(kb, TopicIndex(entries={}, thresholds={}))
    found = non_word_start = 0
    for _ in range(1500):
        pieces = [rng.choice(ONTOLOGY_VALUES * 2 + ONTOLOGY_FILLER)
                  for _ in range(rng.randint(0, 7))]
        utterance = "".join(p + rng.choice([" ", " ", "", "-", ".", ",", "'", "("])
                            for p in pieces)
        session = Session()
        session.utterances.append(("user", utterance))
        expected = oracle_heuristic_constraints(kb, " ".join(utterance.lower().split()))
        state, query = predictor(session.context(), make_state([]))
        assert state == make_state(expected), utterance
        assert query == structured_query(kb, state), utterance
        found += bool(expected)
        non_word_start += any(v[:1] in ("-", "(", "£") for _, _, v in expected)
    assert found > 1000 and non_word_start > 20


def _heuristic_dialogs(kb, index, seed: int, dialogs: int) -> tuple[int, int]:
    """Run seeded random dialogs through the heuristic; check every turn's state and query.

    Utterances mix one entity's attribute values, its documents' index topic words
    and filler. Returns (turns, turns whose ruk triple or topic changed)."""
    rng = random.Random(seed)
    entities = [(dom, ent) for dom, domain in kb.domains.items() for ent in domain.entities]
    topics: dict = {}
    for (dom, ent_id, _), words in sorted(index.entries.items()):
        topics.setdefault((dom, ent_id), []).extend(tw.token for tw in words)
    filler = ["please", "the", "is", "there", "what", "about", "nice", "?", "Thanks"]
    predictor = make_heuristic_predictor(kb, index)
    seen = []

    def checked(context, prev):
        state, query = predictor(context, prev)
        assert query == structured_query(kb, state)
        assert state == make_state(state.triples, state.topic)
        seen.append((prev, state))
        return state, query

    generator = make_template_generator()
    for _ in range(dialogs):
        session = Session()
        for _ in range(rng.randint(3, 7)):
            dom, ent = rng.choice(entities)
            words = []
            for pool in (sorted(ent.attributes.values()), topics.get((dom, ent.id), filler)):
                words += rng.sample(pool, min(len(pool), rng.randint(0, 2)))
            words += rng.choices(filler, k=rng.randint(0, 3))
            rng.shuffle(words)
            out = run_turn(session, " ".join(words), checked, generator, kb, index)
            assert out.query == structured_query(kb, out.belief)
    extended = sum((prev.ruk_triple(), prev.topic) != (state.ruk_triple(), state.topic)
                   for prev, state in seen)
    return len(seen), extended


def test_heuristic_hands_back_its_query_and_canonical_state_on_toy_kb(toy_kb, toy_index):
    turns, extended = _heuristic_dialogs(toy_kb, toy_index, seed=1303, dialogs=60)
    assert turns >= 240 and extended >= turns // 10, (turns, extended)


def test_heuristic_hands_back_its_query_and_canonical_state_on_generated_kb(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    sys.dont_write_bytecode, write_bytecode = True, sys.dont_write_bytecode
    try:
        import inputs
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.pop(0)
    db, docs = inputs.make_kb(7, {"restaurant": 12, "hotel": 6, "attraction": 6}, 4)
    (tmp_path / "db.json").write_text(json.dumps(db), "utf-8")
    (tmp_path / "docs.json").write_text(json.dumps(docs), "utf-8")
    kb = load_knowledge_base(str(tmp_path / "db.json"), str(tmp_path / "docs.json"))
    index = build_topic_index(kb, inputs.THRESHOLDS)
    turns, extended = _heuristic_dialogs(kb, index, seed=1304, dialogs=60)
    assert turns >= 240 and extended >= turns // 10, (turns, extended)


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


def test_corrupt_value_swap_differs_and_keeps_topic():
    ontology = {("restaurant", "food"): ("chinese", "italian"),
                ("restaurant", "ruk"): ("golden wok", "pizza hut", "roma ristorante")}
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


def test_corrupt_refuses_to_value_corrupt_an_empty_span():
    # seed 0 corrupts one of the two samples with replace_values, seed 1 with another kind
    base = [sample("", "r0"), sample("", "r1")]
    with pytest.raises(CorruptionError) as exc:
        corrupt_samples(base, seed=0, ontology=ONTOLOGY)
    assert exc.value.detail == "cannot value-corrupt a sample with an empty belief span"
    out = corrupt_samples(base, seed=1, ontology=ONTOLOGY)
    assert [s.corruption_type for s in out if s.y_c == 0] == ["replace_response"]


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
