import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from oracles import (
    lcs_ratio_oracle,
    oracle_filter_entities,
    oracle_inform_success,
    oracle_lcs_length,
    oracle_match_entity,
)
from seknow import knowops
from seknow.belief import make_state, parse_belief_span
from seknow.corpus import DomainGoal
from seknow.errors import DomainNotFoundError, QueryError
from seknow.kb import Document, Domain, Entity, KnowledgeBase, load_knowledge_base
from seknow.knowops import (
    MATCH_FLOOR,
    format_query_span,
    fuzzy_similarity,
    knowledge_operation,
    lcs_length,
    match_entity,
    retrieve_document,
    structured_query,
)
from seknow.metrics import inform_success
from seknow.pipeline import TurnOutput
from seknow.text import pack_keys, packed_lcs
from seknow.topics import TopicIndex, TopicWord, read_index, sidecar_path

from conftest import DB_PATH, DOCS_PATH, GOLDEN_INDEX_PATH

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode  # no __pycache__ there

import inputs  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def rand_kb(rng: random.Random, n_entities: int, domain: str = "restaurant"):
    slots = ["food", "area", "pricerange"]
    values = {"food": ["italian", "chinese", "indian"],
              "area": ["north", "south", "center"],
              "pricerange": ["cheap", "moderate", "expensive"]}
    entities = []
    for k in range(n_entities):
        attrs = {s: rng.choice(values[s]) for s in slots if rng.random() < 0.8}
        entities.append(Entity(id=f"e{k:02d}", name=f"e{k:02d}", attributes=attrs))
    dom = Domain(name=domain, slot_schema=frozenset(slots + ["name"]),
                 entities=tuple(entities))
    return KnowledgeBase(domains={domain: dom})


def test_structured_query_two_matches(toy_kb):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center")])
    result = structured_query(toy_kb, state)
    assert result["restaurant"] == ("pizza hut", "roma ristorante")


def test_structured_query_empty_state(toy_kb):
    assert structured_query(toy_kb, make_state([])) == {}


def test_structured_query_ruk_only_domain_is_omitted(toy_kb):
    state = make_state([("restaurant", "ruk", "pizza hut")], ["favorite"])
    assert structured_query(toy_kb, state) == {}


def test_structured_query_equals_bruteforce():
    rng = random.Random(515)
    for _ in range(50):
        kb = rand_kb(rng, rng.randint(1, 6))
        slot = rng.choice(["food", "area", "pricerange"])
        value = rng.choice(["italian", "chinese", "north", "cheap"])
        state = make_state([("restaurant", slot, value)])
        got = structured_query(kb, state)["restaurant"]
        expected = oracle_filter_entities(kb.domains["restaurant"].entities,
                                          {slot: value})
        assert list(got) == expected


POSTING_SLOTS = ["food", "area", "pricerange"]
POSTING_VALUES = {"food": ["italian", "chinese", "any"], "area": ["north", "south", "any"],
                  "pricerange": ["cheap", "moderate", "expensive"]}


def rand_postings_kb(rng: random.Random) -> KnowledgeBase:
    """Two domains of 0-150 entities: ids repeat, slots go missing, "stars" is never set."""
    domains = {}
    for dom in ("restaurant", "hotel"):
        entities = []
        for _ in range(rng.randint(0, 150)):
            ent_id = f"e{rng.randrange(120):03d}"
            attrs = {s: rng.choice(POSTING_VALUES[s]) for s in POSTING_SLOTS
                     if rng.random() < 0.85}
            entities.append(Entity(id=ent_id, name=ent_id, attributes=attrs))
        domains[dom] = Domain(name=dom, slot_schema=frozenset(POSTING_SLOTS + ["stars"]),
                              entities=tuple(entities))
    return KnowledgeBase(domains=domains)


def rand_constraints(rng: random.Random) -> dict[str, str]:
    """1-3 constraints; "thai" and the "stars" slot are carried by no entity."""
    slots = rng.sample(POSTING_SLOTS + ["stars"], rng.randint(1, 3))
    return {s: rng.choice(POSTING_VALUES.get(s, ["5"]) + ["thai"] * (rng.random() < 0.1))
            for s in slots}


def test_structured_query_postings_equal_bruteforce():
    # 0-150 entities cross the 64-bit edge; ids repeat and slots go missing
    rng = random.Random(2006)
    hits = past_word = 0
    for _ in range(200):
        kb = rand_postings_kb(rng)
        goals = {dom: rand_constraints(rng) for dom in kb.domains}
        state = make_state([(d, s, v) for d, c in goals.items() for s, v in c.items()])
        result = structured_query(kb, state)
        for dom, constraints in goals.items():
            entities = kb.domains[dom].entities
            expected = oracle_filter_entities(entities, constraints)
            assert list(result[dom]) == expected, (dom, constraints)
            hits += bool(expected)
            past_word += len(entities) > 64 and bool(expected) and \
                expected[-1] > kb.domains[dom].id_order[63].id
    assert hits > 80 and past_word > 20


def test_structured_query_memo_equals_bruteforce_over_a_state_sequence(matching_calls):
    # A state repeats the last call, repeats one of the last three, or is new; so a domain
    # keeps its constraints, skips calls and comes back, or changes back to an earlier
    # value. Each result is the exhaustive filter, and Domain.matching runs exactly for
    # the domains whose constraints differ from their own last query's.
    kb = load_knowledge_base(str(DB_PATH), str(DOCS_PATH))
    values: dict[tuple[str, str], set[str]] = {}
    for name, dom in kb.domains.items():
        for ent in dom.entities:
            for slot, value in ent.attributes.items():
                values.setdefault((name, slot), set()).add(value)
    slots_of = {name: sorted(s for d, s in values if d == name) for name in kb.domains}
    rng = random.Random(2020)
    history: list[dict] = []
    last: dict[str, dict] = {}
    earlier: dict[str, list[dict]] = {name: [] for name in kb.domains}
    kept = came_back = changed_back = 0
    for _ in range(600):
        draw = rng.random()
        if history and draw < 0.25:
            goals = history[-1]
        elif history and draw < 0.5:
            goals = rng.choice(history[-3:])
        else:
            goals = {}
            for dom in rng.sample(sorted(kb.domains), rng.randint(1, 2)):
                chosen = rng.sample(slots_of[dom], rng.randint(1, min(2, len(slots_of[dom]))))
                goals[dom] = {s: rng.choice(sorted(values[(dom, s)]) + ["nowhere"])
                              for s in chosen}
        state = make_state([(d, s, v) for d, c in goals.items() for s, v in c.items()])
        matching_calls.clear()
        result = structured_query(kb, state)
        assert list(result) == list(goals)
        expected_calls = []
        for dom, constraints in goals.items():
            assert list(result[dom]) == oracle_filter_entities(
                kb.domains[dom].entities, constraints), (dom, constraints)
            if last.get(dom) == constraints:
                kept += 1
                came_back += bool(history) and dom not in history[-1]
            else:
                expected_calls.append(dom)
                changed_back += constraints in earlier[dom]
            last[dom] = constraints
            earlier[dom].append(constraints)
        assert matching_calls == expected_calls
        history.append(goals)
    assert kept > 300 and came_back > 40 and changed_back > 200


def test_inform_success_equals_oracle_on_postings_kbs():
    rng = random.Random(2007)
    responses = ["[name] is a nice choice .", "call [phone] .", "sorry , no match found ."]
    informed = 0
    for _ in range(200):
        kb = rand_postings_kb(rng)
        outputs = []
        for _ in range(rng.randint(0, 4)):
            dom = rng.choice(sorted(kb.domains))
            belief = make_state([(dom, s, v) for s, v in rand_constraints(rng).items()
                                 if s != "stars"] or [(dom, "area", "north")])
            query = structured_query(kb, belief)
            outputs.append(TurnOutput(belief=belief, query=query, document=None,
                                      delexicalized_response=rng.choice(responses),
                                      lexicalized_response=""))
        goal = {dom: DomainGoal(
            constraints=rand_constraints(rng) if rng.random() < 0.8 else {},
            requestables=("phone",) if rng.random() < 0.5 else ())
            for dom in rng.sample(sorted(kb.domains), rng.randint(1, 2))}
        expected = oracle_inform_success(outputs, goal, kb)
        assert inform_success(outputs, goal, kb) == expected
        informed += expected[0]
    assert 20 < informed < 180


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
    assert format_query_span({}) == ""


def test_format_query_span_single():
    assert format_query_span({"hotel": ("acorn",)}) == "hotel 1 match"


def test_lcs_length_matches_dp_reference():
    # lengths 0-200 cross the 64-bit word edge; small alphabets repeat symbols
    rng = random.Random(2001)
    alphabets = ["a", "ab", "acgt ", "aé日 ", "abcdefghijklmnopqrstuvwxyz "]
    vocab = ["the", "a", "café", "日本", "house", "guest"]
    for case in range(240):
        n, m = rng.randint(0, 200), rng.randint(0, 200)
        if case % 3 == 2:
            symbols = vocab[:rng.randint(1, len(vocab))]
            a = [rng.choice(symbols) for _ in range(n)]
            b = [rng.choice(symbols) for _ in range(m)]
        else:
            symbols = rng.choice(alphabets)
            a = "".join(rng.choice(symbols) for _ in range(n))
            b = "".join(rng.choice(symbols) for _ in range(m))
        expected = oracle_lcs_length(a, b)
        assert lcs_length(a, b) == expected, (a, b)
        assert lcs_length(b, a) == expected, (b, a)


def test_packed_lcs_matches_dp_reference_on_random_key_sets():
    # each key's carry stops in its guard bit: a nonempty key equal to the query carries
    # out of its top bit at the query's first symbol; one-character and empty keys sit
    # between guards, and repeated symbols, non-ASCII text and token sequences share packs
    rng = random.Random(2901)
    alphabets = ["a", "ab", "acgt ", "aé日 ", "abcdefghijklmnopqrstuvwxyz "]
    vocab = ["the", "a", "café", "日本", "house", "guest"]
    full_carry = 0
    for case in range(300):
        tokens = case % 3 == 2
        symbols = vocab[:rng.randint(1, len(vocab))] if tokens else rng.choice(alphabets)

        def draw(n):
            seq = rng.choices(symbols, k=n)
            return seq if tokens else "".join(seq)

        query = draw(rng.randint(0, 40))
        keys = [draw(rng.choice((0, 1, 1, 2, rng.randint(3, 70))))
                for _ in range(rng.randint(1, 12))]
        keys.insert(rng.randint(0, len(keys)), query)
        keys.append(draw(1))
        got = packed_lcs(pack_keys(keys), query)
        assert got == [oracle_lcs_length(key, query) for key in keys], (keys, query)
        full_carry += len(query) > 0  # the key equal to the query carries into its guard
    assert full_carry > 250


def test_packs_are_built_on_first_use():
    kb = load_knowledge_base(str(DB_PATH), str(DOCS_PATH))
    index = read_index(str(GOLDEN_INDEX_PATH), kb)
    # loading builds no lookup: no cached_property value is stored yet
    assert vars(index).keys() == {"entries", "thresholds"}
    for domain in kb.domains.values():
        assert "match_table" not in vars(domain) and "id_order" not in vars(domain)
        assert all("bodies" not in vars(ent) for ent in domain.entities)
    entity = match_entity(kb, "restaurant", "pizza hutt")
    assert entity.id == "pizza hut"
    assert [name for name, domain in kb.domains.items()
            if "match_table" in vars(domain)] == ["restaurant"]
    assert "_by_entity" not in vars(index)
    assert retrieve_document(index, "restaurant", entity, ["favorite"])[0].doc_id == "d1"
    # the first retrieval builds every entity's record, each with its pack
    records = vars(index)["_by_entity"]
    assert sorted(records) == sorted({key[:2] for key in index.entries})
    assert "bodies" in vars(entity)


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


def floor_kb_and_index():
    """One entity "abcde" with one document whose index topic is "abcde" too."""
    entity = Entity(id="abcde", name="abcde", attributes={"name": "abcde"},
                    documents=(Document("d0", "t", "body"),))
    kb = KnowledgeBase(domains={"restaurant": Domain(
        name="restaurant", slot_schema=frozenset({"name"}), entities=(entity,))})
    index = TopicIndex(entries={("restaurant", "abcde", "d0"): (TopicWord("abcde"),)},
                       thresholds={"restaurant": 1.0})
    return kb, index


def test_match_entity_at_the_floor():
    # LCS("abcxy", "abcde") = 3, so the ratio is 2 * 3 / 10, exactly the floor
    kb, _ = floor_kb_and_index()
    assert fuzzy_similarity("abcxy", "abcde") == MATCH_FLOOR
    assert match_entity(kb, "restaurant", "abcxy").id == "abcde"
    assert match_entity(kb, "restaurant", "abxyz") is None  # 2 * 2 / 10


def test_knowledge_operation_returns_a_document_at_the_floor():
    kb, index = floor_kb_and_index()
    state = make_state([("restaurant", "ruk", "abcde")], ["abcxy"])
    _, document, ranking = knowledge_operation(kb, index, state)
    assert document is not None and document.score == MATCH_FLOOR
    assert ranking == (document,)


def test_knowledge_operation_keeps_the_ranking_below_the_floor():
    kb, index = floor_kb_and_index()
    state = make_state([("restaurant", "ruk", "abcde")], ["abxyz"])
    _, document, ranking = knowledge_operation(kb, index, state)
    assert document is None
    assert [(d.doc_id, d.score) for d in ranking] == [("d0", 0.4)]


def test_match_entity_unknown_domain(toy_kb):
    with pytest.raises(DomainNotFoundError):
        match_entity(toy_kb, "moon", "crater")


def test_match_entity_stability_under_irrelevant_alternative():
    rng = random.Random(77)
    for _ in range(50):
        kb = rand_kb(rng, rng.randint(2, 8))
        query = "e0" + rng.choice(["", "0", "x"])
        winner = match_entity(kb, "restaurant", query)  # every query clears MATCH_FLOOR
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
        assert match_entity(bigger, "restaurant", query).id == winner.id


def test_match_entity_equals_bruteforce_with_distinct_ids():
    rng = random.Random(1986)
    words = ["acorn", "guest", "house", "pizza", "hut", "city", "lodge", "garden"]
    decided_by_id = 0
    for _ in range(150):
        entities, ids = [], set()
        for k in range(rng.randint(1, 6)):
            name = " ".join(rng.sample(words, rng.randint(1, 3)))
            if name in ids or rng.random() < 0.6:
                ent_id = f"{rng.choice(words)}{k}"
            else:
                ent_id = name
            ids.add(ent_id)
            entities.append(Entity(id=ent_id, name=name, attributes={}))
        source = rng.choice([rng.choice(entities).name, rng.choice(entities).id])
        query = "".join(c for c in source if rng.random() < 0.8)
        kb = KnowledgeBase(domains={"hotel": Domain(
            name="hotel", slot_schema=frozenset({"name"}), entities=tuple(entities))})
        got = match_entity(kb, "hotel", query)
        expected = oracle_match_entity(entities, query, MATCH_FLOOR)
        assert (got.id if got else None) == expected, (query, entities)
        decided_by_id += expected != oracle_match_entity(entities, query, MATCH_FLOOR,
                                                         ("name",))
    assert decided_by_id >= 10  # ids that outscore their names do change the winner


def test_match_entity_equals_bruteforce_on_unnormalized_keys():
    # names and ids as built in code, not loaded: mixed case and repeated spaces
    rng = random.Random(1977)
    words = ["Acorn", "GUEST", "house", "Pizza", "hut", "city", "a", ""]
    queries = ["", "   ", "acorn guest", "ACORN  GUEST   HOUSE", " pizza  hut ", "x"]
    exact = shared = 0
    for _ in range(300):
        entities = []
        for k in range(rng.randint(0, 8)):
            name = rng.choice(["  ", " "]).join(rng.sample(words, rng.randint(1, 3)))
            ent_id = rng.choice([name, name.upper(), f" {name}  {k} ", f"id{k}"])
            if entities and rng.random() < 0.3:  # one entity's name is another's id
                ent_id = rng.choice(entities).name.title()
            entities.append(Entity(id=ent_id, name=name, attributes={}))
        if entities and rng.random() < 0.7:
            source = rng.choice([rng.choice(entities).name, rng.choice(entities).id])
            query = "".join(c.upper() if rng.random() < 0.3 else c for c in source
                            if rng.random() < 0.9) + rng.choice(["", " ", "  "])
        else:
            query = rng.choice(queries)
        kb = KnowledgeBase(domains={"hotel": Domain(
            name="hotel", slot_schema=frozenset({"name"}), entities=tuple(entities))})
        got = match_entity(kb, "hotel", query)
        expected = oracle_match_entity(entities, query, MATCH_FLOOR)
        assert (got.id if got else None) == expected, (query, entities)
        owners = {e.id for e in entities
                  if 1.0 in (lcs_ratio_oracle(query, e.name), lcs_ratio_oracle(query, e.id))}
        exact += bool(owners)  # the query equals some key: the lookup decides, not the scan
        shared += len(owners) > 1  # an exact key that more than one entity has
    assert exact > 20
    assert shared > 10


def _edit(rng: random.Random, key: str) -> str:
    """``key`` with one to three seeded deletions, insertions or substitutions."""
    chars = list(key)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.choice(["delete", "insert", "substitute"] if i < len(chars) else ["insert"])
        if op == "delete":
            del chars[i]
        elif op == "insert":
            chars.insert(i, rng.choice("abcdefghijklmnopqrstuvwxyz "))
        else:
            chars[i] = rng.choice("abcdefghijklmnopqrstuvwxyz ")
    return "".join(chars)


def test_match_entity_equals_bruteforce_on_edited_benchmark_names(tmp_path):
    db, docs = inputs.make_kb(7, {"restaurant": 12, "hotel": 6, "attraction": 6}, 4)
    (tmp_path / "db.json").write_text(json.dumps(db), encoding="utf-8")
    (tmp_path / "docs.json").write_text(json.dumps(docs), encoding="utf-8")
    kb = load_knowledge_base(str(tmp_path / "db.json"), str(tmp_path / "docs.json"))
    rng = random.Random(2705)
    inexact = matched = 0
    for name, domain in kb.domains.items():
        entities = list(domain.entities)
        for ent in entities:
            for key in (ent.name, ent.id):
                for _ in range(8):
                    query = _edit(rng, key)
                    got = match_entity(kb, name, query)
                    expected = oracle_match_entity(entities, query, MATCH_FLOOR)
                    assert (got.id if got else None) == expected, (name, query)
                    inexact += " ".join(query.split()) not in domain.match_table[0]
                    matched += expected is not None
    assert inexact > 350 and matched > 300, (inexact, matched)


def test_match_entity_tie_across_lengths_goes_to_the_earlier_key():
    # 2 * 5 / (6 + 9) == 2 * 4 / (6 + 6): the length-6 key is scanned first (bound 1.0,
    # against 0.8 for length 9), yet the length-9 key comes first in id order and wins
    longer = Entity(id="abcdexyzw", name="abcdexyzw", attributes={})
    shorter = Entity(id="abcdzz", name="abcdzz", attributes={})
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}), entities=(shorter, longer))})
    assert fuzzy_similarity("abcdef", longer.id) == fuzzy_similarity("abcdef", shorter.id)
    assert fuzzy_similarity("abcdef", longer.id) == 2 / 3
    assert match_entity(kb, "hotel", "abcdef") is longer
    assert oracle_match_entity([shorter, longer], "abcdef", MATCH_FLOOR) == longer.id


def test_match_entity_scans_an_equal_bound_length_up_to_the_best_key():
    # "bcde" (length 4) and "abcdefxyz" (length 9) both score 0.8, their lengths' shared
    # bound; length 4 is scanned first, but the length-9 key is earlier in id order
    keys = ("0zzz", "abcdefxyz", "bcde")
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=tuple(Entity(id=key, name=key, attributes={}) for key in keys))})
    assert list(kb.domains["hotel"].match_table[1]) == [4, 9]
    assert fuzzy_similarity("abcdef", "bcde") == fuzzy_similarity("abcdef", "abcdefxyz") == 0.8
    assert match_entity(kb, "hotel", "abcdef").id == "abcdefxyz"


def test_match_entity_stops_at_the_first_length_that_cannot_reach_the_best(monkeypatch):
    keys = ("abc", "abcdef", "abcdefghi", "abcdefghijkl", "xbcdef", "abcdefghijklmnopqrst")
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"name"}),
        entities=tuple(Entity(id=key, name=key, attributes={}) for key in keys))})
    passes = []
    scan = knowops.packed_lcs
    monkeypatch.setattr(knowops, "packed_lcs",
                        lambda pack, query: passes.append(pack) or scan(pack, query))
    # "abcdef" scores 2 * 5 / 12 > 0.8, the bound of every other length: one pass, over
    # the two length-6 keys
    assert match_entity(kb, "hotel", "abcdeg").id == "abcdef"
    by_length = kb.domains["hotel"].match_table[1]
    assert passes == [by_length[6][1]]
    assert [ent.id for _, ent in by_length[6][0]] == ["abcdef", "xbcdef"]


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
        entries={key: tuple(map(TopicWord, topics))
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


def test_retrieve_document_breaks_score_ties_by_doc_id():
    # entries inserted out of doc_id order; d1 and d3 share their topic words
    index = TopicIndex(entries={("restaurant", "e", doc_id): tuple(map(TopicWord, words))
                                for doc_id, words in (("d3", ("free", "parking")),
                                                      ("d2", ("wifi",)),
                                                      ("d1", ("free", "parking")))},
                       thresholds={"restaurant": 1.0})
    entity = Entity(id="e", name="e", attributes={}, documents=tuple(
        Document(f"d{k}", "t", "body") for k in (3, 1, 2)))
    ranked = retrieve_document(index, "restaurant", entity, ["parking"])
    assert [d.doc_id for d in ranked] == ["d1", "d3", "d2"]
    assert ranked[0].score == ranked[1].score > ranked[2].score


def test_knowledge_operation_without_ruk(toy_kb, toy_index):
    state = make_state([("restaurant", "food", "italian")])
    result, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None
    assert len(result["restaurant"]) == 2


def test_knowledge_operation_ruk_without_topic(toy_kb, toy_index):
    state = make_state([("restaurant", "ruk", "pizza hut")])
    _, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None


def test_knowledge_operation_full_scenario(toy_kb, toy_index):
    state = make_state([("restaurant", "food", "italian"),
                        ("restaurant", "area", "center"),
                        ("restaurant", "ruk", "pizza hut")], ["favorite"])
    result, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert len(result["restaurant"]) == 2
    assert document is not None
    assert (document.entity_id, document.doc_id) == ("pizza hut", "d1")
    assert document.score == 1.0


def test_knowledge_operation_unmatched_entity(toy_kb, toy_index):
    state = make_state([("restaurant", "ruk", "qqqq")], ["favorite"])
    _, document, _ = knowledge_operation(toy_kb, toy_index, state)
    assert document is None


def _refuse_row_without_document(tmp_path, toy_kb, doc_id):
    path = tmp_path / "index.tsv"
    path.write_text(GOLDEN_INDEX_PATH.read_text("utf-8")
                    + f"restaurant\tpizza hut\t{doc_id}\tpizza,menu\n", encoding="utf-8")
    shutil.copyfile(sidecar_path(str(GOLDEN_INDEX_PATH)), sidecar_path(str(path)))
    # read without the KB, the index leaves its rows unchecked for retrieval to find
    state = parse_belief_span("restaurant { ruk = pizza hut } || pizza menu")
    with pytest.raises(QueryError) as info:
        knowledge_operation(toy_kb, read_index(str(path)), state)
    # the row key is written as a tuple repr, as read_index's row errors write it
    assert info.value.detail == (f"index row ('restaurant', 'pizza hut', {doc_id!r}) names no "
                                 "document of entity 'pizza hut'")
    assert len(info.value.detail.splitlines()) == 1


def test_knowledge_operation_refuses_row_without_document(tmp_path, toy_kb):
    _refuse_row_without_document(tmp_path, toy_kb, "d9")


def test_knowledge_operation_refuses_row_without_document_with_line_break(tmp_path, toy_kb):
    _refuse_row_without_document(tmp_path, toy_kb, "d\u20289")
