import json

import pytest

from seknow import (
    CorpusSpec,
    corpus_stats,
    generate_synthetic_corpus,
    load_corpus,
    parse_belief_span,
    save_corpus,
)
from seknow.errors import GenerationError, LoadError

from conftest import TOY_CORPUS_PATH


def test_load_committed_corpus():
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    assert len(corpus.dialogs) == 6
    stats = corpus_stats(corpus)
    assert stats.mean_turns == pytest.approx(3.0)
    assert stats.turn_count == 18


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
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            if turn.doc_annotation is None:
                continue
            domain, entity_id, doc_id = turn.doc_annotation
            assert toy_index.topics(domain, entity_id, doc_id) is not None
            assert toy_kb.entity(domain, entity_id) is not None
            state = parse_belief_span(turn.gold_belief_span)
            assert state.has_ruk() and state.topic


def test_generator_zero_inserted_turns(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=8, inserted_turns=0), seed=1)
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            assert not parse_belief_span(turn.gold_belief_span).has_ruk()


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


def test_load_error_annotation_without_ruk(tmp_path):
    bad = {"dialog_id": "dlgY", "goal": {}, "turns": [
        {"user": "x", "response": "y", "belief_span": "restaurant { food = italian }",
         "doc": {"domain": "restaurant", "entity_id": "pizza hut", "doc_id": "d1"}},
    ]}
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(LoadError, match="without"):
        load_corpus(str(path))


def test_load_missing_file_is_load_error(tmp_path):
    with pytest.raises(LoadError, match="missing.jsonl"):
        load_corpus(str(tmp_path / "missing.jsonl"))


def test_corpus_stats_committed_values():
    stats = corpus_stats(load_corpus(str(TOY_CORPUS_PATH)))
    assert stats.dialog_count == 6
    assert stats.slot_types == 7  # stars/type/parking/area/food/phone/pricerange
    assert stats.slot_values == 10
    assert stats.doc_turn_fraction == pytest.approx(6 / 18)


def test_corpus_stats_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    stats = corpus_stats(load_corpus(str(path)))
    assert (stats.dialog_count, stats.turn_count, stats.mean_turns) == (0, 0, 0.0)
    assert (stats.slot_types, stats.slot_values, stats.doc_turn_fraction) == (0, 0, 0.0)
