import json
import random
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from oracles import oracle_filter_entities, oracle_find_unclaimed, oracle_heuristic_constraints
from seknow.belief import make_state, parse_belief_span, serialize_belief
from seknow import pipeline
from seknow.corpus import load_corpus
from seknow.errors import CorruptionError, EvaluationError, LoadError, OracleError, TemplateError
from seknow.kb import Domain, Entity, KnowledgeBase, load_knowledge_base
from seknow.knowops import format_query_span, knowledge_operation, structured_query
from seknow.metrics import PREDICTORS, run_dialog
from seknow.pipeline import (
    CorruptionSample,
    Session,
    _find_unclaimed,
    _other_index,
    _packaged_templates,
    corrupt_samples,
    lexicalize,
    load_templates,
    make_heuristic_predictor,
    make_oracle_predictor,
    make_template_generator,
    run_turn,
    template_generate,
)
from seknow.text import open_input
from seknow.topics import TopicIndex, build_topic_index

from conftest import TOY_CORPUS_PATH


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
    bare = {}
    state = make_state([("restaurant", "food", "italian")])
    with pytest.raises(TemplateError):
        template_generate(state, structured_query(toy_kb, state), None, bare)


def test_packaged_template_file_is_read_once(monkeypatch):
    opened = []
    monkeypatch.setattr(pipeline, "open_input", lambda path: opened.append(path)
                        or open_input(path))
    _packaged_templates.cache_clear()
    first, second = make_template_generator(), make_template_generator()
    assert opened == [str(resources.files("seknow.data").joinpath("templates.tsv"))]
    state = make_state([("hotel", "area", "north")])
    assert first(state, {}, None) == second(state, {}, None) == "sorry , no match found ."
    # the KB check is not cached with the rows: it runs on every call given a KB
    museum = KnowledgeBase(domains={"museum": Domain(
        name="museum", slot_schema=frozenset({"name"}), entities=())})
    for _ in range(2):
        with pytest.raises(LoadError, match="no 'offer' template for domain 'museum'"):
            load_templates(kb=museum)
    assert len(opened) == 1


def test_user_template_file_is_read_on_every_call(tmp_path, templates):
    path = tmp_path / "templates.tsv"
    rows = "".join(f"{d}\t{c}\t{text}\n" for (d, c), text in templates.items())
    path.write_text(rows, encoding="utf-8")
    assert load_templates(str(path)) == templates
    path.write_text(rows.replace("sorry , no match found .", "no luck ."), encoding="utf-8")
    assert load_templates(str(path))[("general", "nomatch")] == "no luck ."


def lexicalized(toy_kb, delex, *triples):
    state = make_state(triples)
    return lexicalize(delex, state, structured_query(toy_kb, state), toy_kb)


def test_lexicalize_name(toy_kb):
    assert lexicalized(toy_kb, "[name] is nice", ("hotel", "type", "guesthouse"),
                       ("hotel", "area", "north")) == "acorn guest house is nice"


def test_lexicalize_zero_matches_reports(toy_kb):
    # an unresolved placeholder stays verbatim
    assert lexicalized(toy_kb, "[name] is nice", ("restaurant", "food", "korean")) == \
        "[name] is nice"


def test_lexicalize_two_placeholders(toy_kb):
    assert lexicalized(toy_kb, "[name] is at [address]", ("restaurant", "food", "chinese")) == \
        "golden wok is at histon road"


def test_offer_names_an_entity_of_the_domain_it_counts(toy_kb, toy_index, templates):
    # both domains match; the offer counts the last-mentioned one, so it names its entity
    state = make_state([("hotel", "stars", "4"), ("restaurant", "food", "chinese")])
    out = run_turn(Session(), "a chinese place too", make_oracle_predictor([state]),
                   make_template_generator(templates), toy_kb, toy_index)
    assert out.query == {"hotel": ("acorn guest house",), "restaurant": ("golden wok",)}
    assert out.delexicalized_response == "i found 1 options . [name] is a nice choice ."
    assert out.lexicalized_response == "i found 1 options . golden wok is a nice choice ."


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

    def spy(history, prev):
        seen.append(history[-1][1])
        return prev

    session = Session()
    run_turn(session, "", spy, make_template_generator(templates), toy_kb, toy_index)
    assert seen == [""]


def test_run_dialog_wraps_predictor_failure(toy_kb, toy_index, templates):
    """run_turn lets a fault through as raised; run_dialog wraps it once."""
    def broken(history, prev):
        if len(history) > 1:  # the second turn
            raise RuntimeError("boom")
        return prev

    generator = make_template_generator(templates)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_turn(Session(utterances=[("user", "hi"), ("system", "hello")]), "hi", broken,
                 generator, toy_kb, toy_index)
    dialog = load_corpus(str(TOY_CORPUS_PATH)).dialogs[0]
    with pytest.raises(EvaluationError) as info:
        run_dialog(dialog, lambda d: broken, generator, toy_kb, toy_index)
    assert info.value.detail == "dialog 'dlg0000': turn 1: boom"
    assert isinstance(info.value.__cause__, RuntimeError)


def test_oracle_predictor_verbatim():
    gold = make_state([("restaurant", "food", "italian")])
    extended = make_state([("restaurant", "ruk", "pizza hut")], ["favorite"])
    predictor = make_oracle_predictor([gold, extended])
    for prev, expected in ((make_state([]), gold), (gold, extended)):
        assert predictor(None, prev) is expected


def test_oracle_predictor_missing_annotation():
    gold = make_state([("restaurant", "food", "italian")])
    predictor = make_oracle_predictor([gold])
    assert predictor(None, make_state([])) is gold
    with pytest.raises(OracleError, match="more turns than gold annotations"):
        predictor(None, gold)


def test_heuristic_adds_verbatim_ontology_values(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    state = predictor((("user", "looking for italian food in the center"),), make_state([]))
    constraints = state.constraints()["restaurant"]
    assert constraints["food"] == "italian"
    assert constraints["area"] == "center"


def test_heuristic_sets_ruk_on_topic_overlap(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("hotel", "area", "north")])
    state = predictor((("user", "do they serve breakfast ?"),), prev)
    assert state.ruk() == ("hotel", "acorn guest house")
    assert state.topic == ("breakfast",)


def test_heuristic_no_hits_returns_prev(toy_kb, toy_index):
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    prev = make_state([("restaurant", "pricerange", "cheap")])
    assert predictor((("user", "thanks, goodbye!"),), prev) == prev


def test_heuristic_longest_match_first(toy_kb, toy_index):
    # "acorn guest house" must win over shorter overlapping values
    predictor = make_heuristic_predictor(toy_kb, toy_index)
    state = predictor((("user", "is acorn guest house in the north ?"),), make_state([]))
    assert state.constraints()["hotel"]["name"] == "acorn guest house"


def test_every_turn_queries_the_belief_it_returns(toy_kb, toy_index):
    # a predictor returns only the belief state; the turn's query is that state's query
    corpus = load_corpus(str(TOY_CORPUS_PATH), toy_kb, toy_index)
    generator = make_template_generator()
    for name, build in PREDICTORS.items():
        factory = build(toy_kb, toy_index)
        turns = extended = 0
        for dialog in corpus.dialogs:
            for out in run_dialog(dialog, factory, generator, toy_kb, toy_index):
                assert out.query == structured_query(toy_kb, out.belief), (name, out.belief)
                for dom, constraints in out.belief.constraints().items():
                    assert list(out.query[dom]) == oracle_filter_entities(
                        toy_kb.domains[dom].entities, constraints)
                turns += 1
                extended += out.belief.ruk() is not None
        assert turns >= 15 and extended >= 3, (name, turns, extended)


# regex metacharacters, non-word edges, values that prefix others, "", non-ASCII letters,
# "²" and "_" (word characters), CJK, and a value that overlaps itself ("x x" in "x x x")
FIND_VALUES = ["c++", "£10", "19:45", "a.m.", "north-east", "st", "star", "5 star", "",
               "café", "x²", "x_ray", "日本", "x x"]
FIND_FILLER = ["the", "north", "east", "stars", "5", "at", "10", "x", "é", "²", "_", "本",
               "日本語", "cafés"]


def test_find_unclaimed_matches_regex_reference():
    # re.finditer resumes after a whole-word match at its end, after any other occurrence
    # at the next index: "x x" at 2 is skipped in the first case and found in the second
    for utterance, value, claimed, expected in [("x x x", "x x", [(0, 1)], None),
                                                ("_x x x", "x x", [], (3, 6)),
                                                (" ab", "", [(0, 3)], (3, 3))]:
        assert oracle_find_unclaimed(utterance, value, claimed) == expected
        assert _find_unclaimed(utterance, value, claimed) == expected, (utterance, value)
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
# letters, "_" (a word character), values that are prefixes of other values, values
# that share their first word run, and a value with no word run
ONTOLOGY_VALUES = ["-free", "(north)", "£10", "b&b", "st. john's", "st", "star", "5 star",
                   "5", "19:45", "café", "cafe", "caf", "a.m.", "x_ray", "north",
                   "north-east", "guest house", "guest", "日本", "c++", "01223 615076",
                   "01223 956127", "the acorn", "the gardenia", "+/-"]
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
        expected = oracle_heuristic_constraints(kb, " ".join(utterance.lower().split()))
        state = predictor((("user", utterance),), make_state([]))
        assert state == make_state(expected), utterance
        found += bool(expected)
        non_word_start += any(v[:1] in ("-", "(", "£") for _, _, v in expected)
    assert found > 1000 and non_word_start > 20


def test_ontology_candidates_are_the_values_holding_a_rarest_run():
    # every value opens with the run every phone number opens with; each is found by its own
    phones = [f"01223 1000{k:02d}" for k in range(50)]
    kb = KnowledgeBase(domains={"hotel": Domain(
        name="hotel", slot_schema=frozenset({"phone"}),
        entities=tuple(Entity(id=f"e{k}", name=f"e{k}", attributes={"phone": phone})
                       for k, phone in enumerate(phones)))})
    for utterance, expected in [("call 01223 100007 please", ["01223 100007"]),
                                ("01223 100042 or 01223 100007 ?", ["01223 100007",
                                                                    "01223 100042"]),
                                ("100013", ["01223 100013"]),
                                ("my number is 01223", [])]:
        assert [value for value, _ in kb.ontology_candidates(utterance)] == expected, utterance


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

    def checked(history, prev):
        state = predictor(history, prev)
        assert state == make_state(state.triples, state.topic)
        seen.append((prev, state))
        return state

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
    extended = sum((prev.ruk(), prev.topic) != (state.ruk(), state.topic)
                   for prev, state in seen)
    return len(seen), extended


def test_heuristic_turn_query_and_canonical_state_on_toy_kb(toy_kb, toy_index):
    turns, extended = _heuristic_dialogs(toy_kb, toy_index, seed=1303, dialogs=60)
    assert turns >= 240 and extended >= turns // 10, (turns, extended)


def test_heuristic_turn_query_and_canonical_state_on_generated_kb(tmp_path):
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
    # a second span, so that a state replacement has a donor that differs
    ontology = {("restaurant", "food"): ("chinese", "italian"),
                ("restaurant", "area"): ("north",)}
    spans = ["restaurant { food = italian }", "restaurant { area = north , food = italian }"]
    base = [sample(spans[k % 2], f"r{k}") for k in range(20)]
    out = corrupt_samples(base, seed=3, ontology=ontology)
    swapped = [(a, s) for a, s in zip(base, out) if s.corruption_type == "replace_values"]
    assert {a.belief_span for a, _ in swapped} == set(spans), \
        "a value corruption of each span expected at this size"
    for original, s in swapped:
        assert s.belief_span == original.belief_span.replace("italian", "chinese")


def test_corrupt_value_swap_differs_and_keeps_topic():
    ontology = {("restaurant", "food"): ("chinese", "italian"),
                ("restaurant", "ruk"): ("golden wok", "pizza hut", "roma ristorante")}
    # a second span, so that a state replacement has a donor that differs
    spans = [serialize_belief(make_state(
        [("restaurant", "food", food), ("restaurant", "ruk", ruk)], ["favorite"]))
        for food, ruk in [("italian", "pizza hut"), ("chinese", "golden wok")]] * 10
    base = [sample(s, f"r{k}") for k, s in enumerate(spans)]
    out = corrupt_samples(base, seed=1, ontology=ontology)
    swapped = [(a, s) for a, s in zip(base, out) if s.corruption_type == "replace_values"]
    assert swapped, "at least one value corruption expected at this size"
    for original, s in swapped:
        state = parse_belief_span(s.belief_span)
        assert s.belief_span != original.belief_span
        assert state.topic == ("favorite",)
        assert state.ruk()[1] != parse_belief_span(original.belief_span).ruk()[1]


def test_corrupt_missing_alternative_errors():
    ontology = {("restaurant", "food"): ("italian",)}
    base = [sample("restaurant { food = italian }", f"r{k}") for k in range(8)]
    with pytest.raises(CorruptionError) as exc:
        corrupt_samples(base, seed=0, ontology=ontology)
    assert exc.value.detail == ("no slot of belief span 'restaurant { food = italian }' "
                                "has an alternative value")


@pytest.mark.parametrize("kind, name", [("replace_state", "belief_span"),
                                        ("replace_response", "response")])
def test_corrupt_refuses_a_donor_kind_only_when_every_sample_has_the_same(kind, name):
    spans = ["restaurant { food = italian }", "restaurant { food = chinese }"]
    base = [sample(spans[k % 2], f"r{k}") for k in range(8)]
    same = [replace(s, **{name: getattr(base[0], name)}) for s in base]
    refused = 0
    for seed in range(20):
        corrupt_samples(base, seed, ONTOLOGY)  # a field that varies is never refused
        try:
            out = corrupt_samples(same, seed, ONTOLOGY)
        except CorruptionError as exc:
            assert exc.detail == (f"{kind} needs a sample whose {name} differs, "
                                  f"but every sample has the same {name}")
            refused += 1
        else:
            assert kind not in {s.corruption_type for s in out}
    assert refused >= 5, refused


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


def test_other_index_never_picks_the_sample_itself():
    rng = random.Random(2021)
    for n in range(2, 7):
        for i in range(n):
            donors = {_other_index(rng, n, i) for _ in range(200)}
            assert donors == set(range(n)) - {i}, (n, i)


def test_corrupt_needs_two_samples():
    with pytest.raises(CorruptionError):
        corrupt_samples([sample("restaurant { food = italian }")], 0, ONTOLOGY)


def test_corrupt_output_json_stable():
    out1 = corrupt_samples(make_samples(25), seed=42, ontology=ONTOLOGY)
    out2 = corrupt_samples(make_samples(25), seed=42, ontology=ONTOLOGY)
    dump = lambda out: json.dumps([s.__dict__ | {"context": list(s.context)}
                                   for s in out], sort_keys=True)
    assert dump(out1) == dump(out2)
