import random

import pytest

from oracles import lcs_ratio_oracle, oracle_filter_entities
from seknow import (
    Document,
    Domain,
    Entity,
    KnowledgeBase,
    format_query_span,
    fuzzy_similarity,
    knowledge_operation,
    make_state,
    map_query_vector,
    match_entity,
    parse_belief_span,
    read_index,
    retrieve_document,
    structured_query,
)
from seknow.errors import DomainNotFoundError, QueryError
from seknow.knowops import QueryResult, DomainMatches
from seknow.topics import TopicIndex, TopicWord

from conftest import GOLDEN_INDEX_PATH


def rand_kb(rng: random.Random, n_entities: int, domain: str = "restaurant"):
    slots = ["food", "area", "pricerange"]
    values = {"food": ["italian", "chinese", "indian"],
              "area": ["north", "south", "center"],
              "pricerange": ["cheap", "moderate", "expensive"]}
    entities = []
    for k in range(n_entities):
        attrs = {s: rng.choice(values[s]) for s in slots if rng.random() < 0.8}
        entities.append(Entity(id=f"e{k:02d}", name=f"e{k:02d}", attributes=attrs,
                               bookable=rng.random() < 0.5))
    dom = Domain(name=domain, slot_schema=frozenset(slots + ["name"]),
                 entities=tuple(entities))
    return KnowledgeBase(domains={domain: dom})


def test_structured_query_two_matches(toy_kb):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center")])
    result = structured_query(toy_kb, state)
    matches = result.per_domain["restaurant"]
    assert matches.count == 2
    assert matches.entity_ids == ("pizza hut", "roma ristorante")
    assert result.booking_available


def test_structured_query_empty_state(toy_kb):
    assert structured_query(toy_kb, make_state([])).per_domain == {}


def test_structured_query_ruk_only_domain_is_omitted(toy_kb):
    state = make_state([("restaurant", "ruk", "pizza hut")], ["favorite"])
    assert structured_query(toy_kb, state).per_domain == {}


def test_structured_query_equals_bruteforce():
    rng = random.Random(515)
    for _ in range(50):
        kb = rand_kb(rng, rng.randint(1, 6))
        slot = rng.choice(["food", "area", "pricerange"])
        value = rng.choice(["italian", "chinese", "north", "cheap"])
        state = make_state([("restaurant", slot, value)])
        got = structured_query(kb, state).per_domain["restaurant"].entity_ids
        expected = oracle_filter_entities(kb.domains["restaurant"].entities,
                                          {slot: value})
        assert list(got) == expected


def test_structured_query_unknown_slot(toy_kb):
    state = make_state([("restaurant", "moonphase", "full")])
    with pytest.raises(QueryError, match="moonphase"):
        structured_query(toy_kb, state)


def test_structured_query_unknown_domain(toy_kb):
    with pytest.raises(DomainNotFoundError):
        structured_query(toy_kb, make_state([("moon", "area", "dark")]))


def test_format_query_span_counts(toy_kb):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center"),
                        ("train", "destination", "paris")])
    span = format_query_span(structured_query(toy_kb, state))
    assert span == "restaurant 2 match , train no match"


def test_format_query_span_empty():
    assert format_query_span(QueryResult()) == ""


def test_format_query_span_single():
    result = QueryResult(per_domain={"hotel": DomainMatches(1, ("acorn",))})
    assert format_query_span(result) == "hotel 1 match"


def test_map_query_vector_bucket_two_bookable():
    result = QueryResult(per_domain={"restaurant": DomainMatches(
        2, ("a", "b"), bookable_ids=("a",))})
    vec = map_query_vector(result, "restaurant")
    assert vec.bucket == "2" and vec.booking
    assert vec.as_vector() == (0, 0, 1, 0, 0, 1)


def test_map_query_vector_zero():
    vec = map_query_vector(QueryResult(), "restaurant")
    assert vec.bucket == "0" and not vec.booking
    assert vec.as_vector() == (1, 0, 0, 0, 0, 0)


def test_map_query_vector_overflow_bucket():
    result = QueryResult(per_domain={"hotel": DomainMatches(7, tuple("abcdefg"))})
    assert map_query_vector(result, "hotel").bucket == "4+"


def test_map_query_vector_one_hot_property():
    for count in range(9):
        result = QueryResult(per_domain={"d": DomainMatches(count, ("x",) * count)})
        assert sum(map_query_vector(result, "d").as_vector()[:5]) == 1


def test_fuzzy_identity():
    assert fuzzy_similarity("pizza hut", "pizza hut") == 1.0


def test_fuzzy_empty_cases():
    assert fuzzy_similarity("", "abc") == 0.0
    assert fuzzy_similarity("abc", "") == 0.0
    assert fuzzy_similarity("", "") == 1.0


def test_fuzzy_guesthouse_value_matches_oracle():
    got = fuzzy_similarity("guesthouse", "acorn guest house")
    assert got == pytest.approx(lcs_ratio_oracle("guesthouse", "acorn guest house"))
    # LCS is the full 10 characters; lengths are 10 and 17 after normalization
    assert got == pytest.approx(20 / 27)


def test_fuzzy_matches_oracle_on_random_pairs():
    rng = random.Random(321)
    alphabet = "abcde "
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert fuzzy_similarity(a, b) == pytest.approx(lcs_ratio_oracle(a, b))


def test_fuzzy_symmetry_and_bounds():
    rng = random.Random(11)
    for _ in range(200):
        a = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 10)))
        s = fuzzy_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == fuzzy_similarity(b, a)
        if s == 1.0:
            assert " ".join(a.lower().split()) == " ".join(b.lower().split())


def test_match_entity_exact(toy_kb):
    ent = match_entity(toy_kb, "restaurant", "pizza hut")
    assert ent is not None and ent.id == "pizza hut"


def test_match_entity_partial_name(toy_kb):
    ent = match_entity(toy_kb, "hotel", "acorn guest")
    assert ent is not None and ent.id == "acorn guest house"


def test_match_entity_below_floor(toy_kb):
    assert match_entity(toy_kb, "restaurant", "zzzz") is None


def test_match_entity_unknown_domain(toy_kb):
    with pytest.raises(DomainNotFoundError):
        match_entity(toy_kb, "moon", "crater")


def test_match_entity_stability_under_irrelevant_alternative():
    rng = random.Random(77)
    for _ in range(50):
        kb = rand_kb(rng, rng.randint(2, 8))
        query = "e0" + rng.choice(["", "0", "x"])
        winner = match_entity(kb, "restaurant", query, floor=0.0)
        domain = kb.domains["restaurant"]
        scores = {e.id: max(fuzzy_similarity(query, e.name), fuzzy_similarity(query, e.id))
                  for e in domain.entities}
        top = max(scores.values())
        if sum(1 for s in scores.values() if s == top) > 1:
            continue  # tie: adding entities may change the id tie-break
        bigger = KnowledgeBase(domains={"restaurant": Domain(
            name="restaurant", slot_schema=domain.slot_schema,
            entities=domain.entities + (
                Entity(id="zzz unrelated", name="zzz unrelated", attributes={}),))})
        assert match_entity(bigger, "restaurant", query, floor=0.0).id == winner.id


def test_retrieve_document_ranks_exact_topic_first(toy_kb, toy_index):
    entity = toy_kb.entity("restaurant", "pizza hut")
    ranked = retrieve_document(toy_index, "restaurant", entity, ["favorite"])
    assert [d.doc_id for d in ranked] == ["d1", "d2"]
    assert ranked[0].score == 1.0
    assert "favorite" in ranked[0].body


def test_retrieve_document_empty_topic(toy_kb, toy_index):
    entity = toy_kb.entity("restaurant", "pizza hut")
    with pytest.raises(QueryError):
        retrieve_document(toy_index, "restaurant", entity, [])


def test_retrieve_document_no_documents(toy_index):
    ent = Entity(id="bare", name="bare", attributes={})
    assert retrieve_document(toy_index, "restaurant", ent, ["favorite"]) == []


def test_retrieve_document_matches_exhaustive_sort():
    docs = {("restaurant", "e", f"d{k}"): topics for k, topics in enumerate([
        ("breakfast",), ("breakfast", "parking"), ("vegetarian",), ("parking",)])}
    index = TopicIndex(
        entries={key: tuple(TopicWord(t, 1.0) for t in topics)
                 for key, topics in docs.items()},
        thresholds={"restaurant": 1.0})
    entity = Entity(id="e", name="e", attributes={}, documents=tuple(
        Document(f"d{k}", "t", "body") for k in range(4)))
    for topic in (["breakfast"], ["parking", "breakfast"], ["vegetarian"]):
        ranked = retrieve_document(index, "restaurant", entity, topic)
        query = " ".join(topic)
        expected = sorted(
            ((key[2], fuzzy_similarity(query, " ".join(t))) for key, t in docs.items()),
            key=lambda pair: (-pair[1], pair[0]))
        assert [(d.doc_id, pytest.approx(d.score)) for d in ranked] == expected
        assert ranked[0].score == max(d.score for d in ranked)


def test_knowledge_operation_without_ruk(toy_kb, toy_index):
    state = make_state([("restaurant", "food", "italian")])
    result, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None
    assert result.per_domain["restaurant"].count == 2


def test_knowledge_operation_ruk_without_topic(toy_kb, toy_index):
    state = make_state([("restaurant", "ruk", "pizza hut")])
    _, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None


def test_knowledge_operation_full_scenario(toy_kb, toy_index):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center"),
                        ("restaurant", "ruk", "pizza hut")], ["favorite"])
    result, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert result.per_domain["restaurant"].count == 2
    assert document is not None
    assert (document.entity_id, document.doc_id) == ("pizza hut", "d1")
    assert document.score == 1.0


def test_knowledge_operation_unmatched_entity(toy_kb, toy_index):
    state = make_state([("restaurant", "ruk", "qqqq")], ["favorite"])
    _, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None


def test_knowledge_operation_refuses_row_without_document(tmp_path, toy_kb):
    path = tmp_path / "index.tsv"
    path.write_text(GOLDEN_INDEX_PATH.read_text("utf-8")
                    + "restaurant\tpizza hut\td9\tpizza,menu\n", encoding="utf-8")
    state = parse_belief_span("restaurant { ruk = pizza hut } || pizza menu")
    with pytest.raises(QueryError, match=r"index row \(restaurant, pizza hut, d9\) names no "
                                         r"document of entity 'pizza hut'"):
        knowledge_operation(toy_kb, read_index(str(path)), state)
