import json
import random

import pytest

from genstates import random_span
from seknow import belief
from seknow import corpus as corpus_mod
from seknow.belief import parse_belief_span
from seknow.corpus import (
    CorpusSpec,
    corpus_stats,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from seknow.errors import GenerationError, LoadError, ParseError

from conftest import TOY_CORPUS_PATH


def test_load_committed_corpus():
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    assert len(corpus.dialogs) == 6
    stats = corpus_stats(corpus)
    assert stats.mean_turns == pytest.approx(3.0)
    assert stats.turns == 18


def test_committed_corpus_matches_generator(toy_kb, toy_index, tmp_path):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=6, original_turns=2, inserted_turns=1),
        seed=7)
    regenerated = tmp_path / "corpus.jsonl"
    save_corpus(corpus, str(regenerated))
    assert regenerated.read_bytes() == TOY_CORPUS_PATH.read_bytes()


def test_generator_deterministic(toy_kb, toy_index, tmp_path):
    spec = CorpusSpec(dialogs=10, original_turns=2, inserted_turns=1)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(generate_synthetic_corpus(toy_kb, toy_index, spec, seed=7), str(a))
    save_corpus(generate_synthetic_corpus(toy_kb, toy_index, spec, seed=7), str(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic_corpus(toy_kb, toy_index, spec, seed=8), str(c))
    assert a.read_bytes() != c.read_bytes()


def test_generated_annotations_resolve_in_index(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=14, inserted_turns=1), seed=3)
    knowledge_turns = 0
    for dialog in corpus.dialogs:
        states = [parse_belief_span(turn.gold_belief_span) for turn in dialog.turns]
        for k, turn in enumerate(dialog.turns):
            if turn.doc_annotation is None:
                continue
            knowledge_turns += 1
            domain, entity_id, _ = turn.doc_annotation
            assert toy_kb.entity(domain, entity_id) is not None
            assert states[k].ruk() == (domain, entity_id)
            assert states[k].topic == tuple(tw.token for tw in toy_index.entries[
                turn.doc_annotation])
            assert k > 0 and states[k].constraints() == states[k - 1].constraints()
    assert knowledge_turns == len(corpus.dialogs)


def test_generator_zero_inserted_turns(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=8, inserted_turns=0), seed=1)
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            assert parse_belief_span(turn.gold_belief_span).ruk() is None


def test_generator_too_many_inserted_turns(toy_kb, toy_index):
    with pytest.raises(GenerationError):
        generate_synthetic_corpus(
            toy_kb, toy_index, CorpusSpec(dialogs=2, inserted_turns=5), seed=0)


def test_save_load_roundtrip(toy_kb, toy_index, tmp_path):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index,
        CorpusSpec(dialogs=5, original_turns=2, inserted_turns=1,
                   requestables=("phone", "address")), seed=21)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus


def test_load_error_names_dialog_and_turn(tmp_path):
    bad = {"dialog_id": "dlgX", "goal": {}, "turns": [
        {"user": "hi", "response": "hello", "belief_span": ""},
        {"user": "x", "response": "y", "belief_span": "restaurant { food = }"},
    ]}
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(LoadError, match=r"dlgX.*turn 1"):
        load_corpus(str(path))


def test_load_refuses_span_that_is_not_utf8(tmp_path):
    bad = {"dialog_id": "dlgZ", "goal": {}, "turns": [
        {"user": "x", "response": "y", "belief_span": "restaurant { area = \ud800 }"}]}
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(str(path))
    # json.dumps writes the surrogate as an escape, refused before any span is parsed
    assert str(err.value) == (f"{path}:1: the lone surrogate escape \\ud800 "
                              "is not valid Unicode text")


def test_load_error_annotation_without_ruk(tmp_path):
    bad = {"dialog_id": "dlgY", "goal": {}, "turns": [
        {"user": "x", "response": "y", "belief_span": "restaurant { food = italian }",
         "doc": {"domain": "restaurant", "entity_id": "pizza hut", "doc_id": "d1"}},
    ]}
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(LoadError, match="without"):
        load_corpus(str(path))


def _one_turn_corpus(path, span, doc=None, dialog_id="d"):
    turn = {"user": "u", "response": "r", "belief_span": span}
    if doc is not None:
        turn["doc"] = dict(zip(("domain", "entity_id", "doc_id"), doc))
    path.write_text(json.dumps({"dialog_id": dialog_id, "turns": [turn]}) + "\n",
                    encoding="utf-8")
    return str(path)


def test_load_refuses_exactly_the_spans_the_parser_refuses(tmp_path):
    rng = random.Random(1818)
    refused = 0
    for n in range(300):
        span = random_span(rng)
        path = _one_turn_corpus(tmp_path / "one.jsonl", span, dialog_id=f"d{n}")
        try:
            parse_belief_span(span)
        except ParseError as exc:
            refused += 1
            with pytest.raises(LoadError) as err:
                load_corpus(path)
            assert str(err.value) == f"{path}:1: dialog 'd{n}' turn 0: {exc}"
        else:
            (dialog,) = load_corpus(path).dialogs
            assert dialog.turns[0].gold_belief_span == span
    assert 50 <= refused <= 250, refused


@pytest.mark.parametrize("span, detail", [
    ("hotel { zeta = 1 , colour = red }", "slot 'colour' is not in the schema of domain 'hotel'"),
    ("hotel { zeta = 1 } moon { a = b } hotel { colour = red }",
     "slot 'colour' is not in the schema of domain 'hotel'"),
    ("moon { a = b } hotel { colour = red }", "unknown domain 'moon'"),
    ("hotel { stars = 4 , colour = red } moon { a = b }",
     "slot 'colour' is not in the schema of domain 'hotel'"),
    ("hotel { stars = 4 } moon { a = b } hotel { colour = red } sun { c = d }",
     "slot 'colour' is not in the schema of domain 'hotel'"),
    ("hotel { stars = 4 } sun { c = d } moon { a = b }", "unknown domain 'sun'"),
])
def test_load_names_the_first_triple_outside_the_schema_in_canonical_order(
        tmp_path, toy_kb, toy_index, span, detail):
    path = _one_turn_corpus(tmp_path / "one.jsonl", span)
    with pytest.raises(LoadError) as err:
        load_corpus(path, toy_kb, toy_index)
    assert str(err.value) == f"{path}:1: dialog 'd' turn 0: {detail}"


# ruk() is hotel's: hotel is mentioned first, though restaurant's ruk key comes first
TWO_RUK_SPAN = ("hotel { stars = 4 } restaurant { ruk = pizza hut } "
                "hotel { ruk = acorn guest house } || breakfast")


def test_doc_annotation_must_be_in_the_ruk_domain(tmp_path):
    assert parse_belief_span(TWO_RUK_SPAN).ruk() == ("hotel", "acorn guest house")
    path = _one_turn_corpus(tmp_path / "one.jsonl", TWO_RUK_SPAN,
                            ("restaurant", "pizza hut", "d1"))
    with pytest.raises(LoadError) as err:
        load_corpus(path)
    assert str(err.value) == (f"{path}:1: dialog 'd' turn 0: document annotation in domain "
                              "'restaurant' but the ruk triple is in domain 'hotel'")
    path = _one_turn_corpus(tmp_path / "one.jsonl", TWO_RUK_SPAN,
                            ("hotel", "acorn guest house", "h1"))
    (dialog,) = load_corpus(path).dialogs
    assert dialog.turns[0].doc_annotation == ("hotel", "acorn guest house", "h1")


def test_load_builds_no_belief_state(monkeypatch, toy_kb, toy_index):
    calls = []
    canonical_state = belief.canonical_state
    monkeypatch.setattr(belief, "canonical_state",
                        lambda *args: calls.append(args) or canonical_state(*args))
    assert len(load_corpus(str(TOY_CORPUS_PATH)).dialogs) == 6
    assert len(load_corpus(str(TOY_CORPUS_PATH), toy_kb, toy_index).dialogs) == 6
    assert calls == []
    parse_belief_span("hotel { stars = 4 }")  # the counter sees a state being built
    assert len(calls) == 1


def test_load_keeps_each_distinct_string_once(toy_kb, toy_index):
    for loaded in (load_corpus(str(TOY_CORPUS_PATH)),
                   load_corpus(str(TOY_CORPUS_PATH), toy_kb, toy_index)):
        turns = [turn for dialog in loaded.dialogs for turn in dialog.turns]
        goals = [goal for dialog in loaded.dialogs for goal in dialog.goal.items()]
        repeated = 0
        for values in ([t.user for t in turns], [t.response for t in turns],
                       [t.delex_response for t in turns], [t.gold_belief_span for t in turns],
                       [t.doc_annotation[0] for t in turns if t.doc_annotation],
                       [t.doc_annotation[1] for t in turns if t.doc_annotation],
                       [name for name, _ in goals],
                       [v for _, goal in goals for v in goal.constraints.values()]):
            distinct = len(set(values))
            assert len(set(map(id, values))) == distinct, values
            repeated += distinct < len(values)
        assert repeated == 7  # every field but the goal values repeats in the toy corpus
        # one table per load: a response equal to a delex text is that same object
        assert any(t.response is t.delex_response for t in turns)
    goal = {"Hotel": {"constraints": {"Area": "north"}, "requestables": ["area"]}}
    (parsed,) = corpus_mod.parse_goal(goal, "goal", "f", {}).values()
    (slot,) = parsed.constraints
    assert slot is parsed.requestables[0]


def test_load_checks_each_distinct_span_once(monkeypatch, tmp_path, toy_kb, toy_index):
    calls = []
    span_fields = corpus_mod.span_fields
    monkeypatch.setattr(corpus_mod, "span_fields",
                        lambda span: calls.append(span) or span_fields(span))
    for args in ((), (toy_kb, toy_index)):
        for _ in range(2):  # the memo is per load: a second load checks every span again
            calls.clear()
            loaded = load_corpus(str(TOY_CORPUS_PATH), *args)
            spans = [t.gold_belief_span for d in loaded.dialogs for t in d.turns]
            assert sorted(calls) == sorted(set(spans)) and len(calls) < len(spans)
    # a span that passed a load without the KB is still checked against it in the next
    path = _one_turn_corpus(tmp_path / "one.jsonl", "hotel { colour = red }")
    load_corpus(path)
    with pytest.raises(LoadError) as err:
        load_corpus(path, toy_kb, toy_index)
    assert str(err.value) == (f"{path}:1: dialog 'd' turn 0: slot 'colour' is not in the "
                              "schema of domain 'hotel'")


def test_load_refuses_a_bad_span_that_repeats_an_earlier_utterance(tmp_path):
    bad = "restaurant { food = }"
    with pytest.raises(ParseError) as parse_err:
        parse_belief_span(bad)
    dialogs = [{"dialog_id": "a", "turns": [{"user": bad, "response": bad, "delex": bad,
                                             "belief_span": ""}]},
               {"dialog_id": "b", "turns": [{"user": "x", "response": "y", "belief_span": ""},
                                            {"user": "x", "response": "y",
                                             "belief_span": bad}]}]
    path = tmp_path / "repeat.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in dialogs), encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(str(path))
    assert str(err.value) == f"{path}:2: dialog 'b' turn 1: {parse_err.value}"


def test_load_missing_file_is_load_error(tmp_path):
    with pytest.raises(LoadError, match="missing.jsonl"):
        load_corpus(str(tmp_path / "missing.jsonl"))


def test_corpus_stats_committed_values():
    stats = corpus_stats(load_corpus(str(TOY_CORPUS_PATH)))
    assert stats.dialogs == 6
    assert stats.slot_types == 7  # stars/type/parking/area/food/phone/pricerange
    assert stats.slot_values == 10
    assert stats.doc_turn_fraction == pytest.approx(6 / 18)


def test_corpus_stats_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    stats = corpus_stats(load_corpus(str(path)))
    assert (stats.dialogs, stats.turns, stats.mean_turns) == (0, 0, 0.0)
    assert (stats.slot_types, stats.slot_values, stats.doc_turn_fraction) == (0, 0, 0.0)
