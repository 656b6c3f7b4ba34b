"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import json
import math
import os
import random
import time

import pytest

from genstates import random_state
from oracles import lcs_ratio_oracle, oracle_filter_entities, oracle_topic_index
from seknow.belief import make_state, parse_belief_span, serialize_belief
from seknow.corpus import (
    CorpusSpec,
    corpus_stats,
    generate_synthetic_corpus,
    load_corpus,
)
from seknow.kb import Document, KnowledgeBase, load_knowledge_base, validate_knowledge_base
from seknow.knowops import (
    format_query_span,
    fuzzy_similarity,
    knowledge_operation,
    structured_query,
)
from seknow.metrics import (
    bleu,
    combined_score,
    retrieval_metrics,
    rouge_l,
    round_half_up,
)
from seknow.pipeline import CorruptionSample, corrupt_samples
from seknow.topics import DEFAULT_THRESHOLDS, TopicIndex, build_topic_index, write_index

from conftest import TOY_THRESHOLDS, evaluate
from test_knowops import rand_kb


def report(criterion: int, detail: str):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


def test_criterion_1_combined_score_formula():
    start = time.monotonic()
    first = combined_score(93.6, 71.9, 17.3)
    second = combined_score(82.9, 68.7, 19.0)
    assert abs(first - 100.1) <= 0.05
    assert abs(second - 94.8) <= 0.05
    assert round_half_up(first) == 100.1
    assert round_half_up(second) == 94.8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"100.1 and 94.8 reproduced, {elapsed:.3f}s")


def test_criterion_2_topic_extraction_conformance(toy_kb, tmp_path):
    start = time.monotonic()
    index = build_topic_index(toy_kb, TOY_THRESHOLDS)

    domains = {}
    for name, dom in toy_kb.domains.items():
        docs = {(e.id, d.doc_id): (d.title, d.body)
                for e in dom.entities for d in e.documents}
        if docs:
            domains[name] = (len(dom.entities), docs, TOY_THRESHOLDS[name])
    expected = oracle_topic_index(domains)
    oracle_lines = "".join(
        f"{dom}\t{ent}\t{doc}\t{','.join(topics)}\n"
        for (dom, ent, doc), topics in sorted(expected.items()))
    built_path = tmp_path / "index.tsv"
    write_index(index, str(built_path))
    assert built_path.read_text("utf-8") == oracle_lines  # byte-for-byte

    for words in index.entries.values():
        assert 1 <= len(words) <= 3
    assert DEFAULT_THRESHOLDS == {"restaurant": 2.3, "hotel": 2.7,
                                  "taxi": 6.9, "train": 7.3}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"{len(index.entries)} documents match the brute-force oracle, "
              f"{elapsed:.3f}s")


def test_criterion_3_belief_grammar_roundtrips():
    start = time.monotonic()
    rng = random.Random(33033)
    failures = 0
    for _ in range(10_000):
        state = random_state(rng)
        if parse_belief_span(serialize_belief(state)) != state:
            failures += 1
    assert failures == 0

    literal = parse_belief_span("restaurant { food = italian , area = center }")
    assert len(literal.triples) == 2
    assert literal.constraints() == {"restaurant": {"area": "center",
                                                    "food": "italian"}}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"10000 roundtrips, 0 failures, {elapsed:.1f}s")


def test_criterion_4_knowledge_operation(toy_kb, toy_index):
    start = time.monotonic()
    rng = random.Random(44044)
    slots = ["food", "area", "pricerange"]
    values = ["italian", "chinese", "indian", "north", "south", "center",
              "cheap", "moderate", "expensive"]
    for _ in range(500):
        kb = rand_kb(rng, rng.randint(1, 50))
        constraints = {s: rng.choice(values)
                       for s in rng.sample(slots, rng.randint(1, 3))}
        state = make_state([("restaurant", s, v) for s, v in constraints.items()])
        got = structured_query(kb, state)["restaurant"]
        expected = oracle_filter_entities(kb.domains["restaurant"].entities, constraints)
        assert list(got) == expected

    span = format_query_span(structured_query(toy_kb, make_state([
        ("restaurant", "food", "italian"), ("restaurant", "area", "center"),
        ("train", "destination", "paris")])))
    assert span == "restaurant 2 match , train no match"

    checked = 0
    for _ in range(1_000):
        state = _random_toy_state(rng, toy_kb)
        if state.ruk() is not None and state.topic:
            continue
        _, document, _ = knowledge_operation(toy_kb, toy_index, state)
        assert document is None
        checked += 1
    assert checked > 400
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"500 KBs match exhaustive filter, {checked} none-document states, "
              f"{elapsed:.1f}s")


def _random_toy_state(rng, toy_kb):
    triples = []
    domains = rng.sample(sorted(toy_kb.domains), rng.randint(0, 2))
    for dom in domains:
        schema = sorted(toy_kb.domains[dom].slot_schema)
        for slot in rng.sample(schema, rng.randint(1, min(2, len(schema)))):
            triples.append((dom, slot, rng.choice(["italian", "center", "yes", "4"])))
    topic = []
    if rng.random() < 0.6 and domains:
        dom = rng.choice(domains)
        triples.append((dom, "ruk", rng.choice(["pizza hut", "acorn", "zz"])))
        if rng.random() < 0.5:
            topic = [rng.choice(["favorite", "parking", "breakfast"])]
    return make_state(triples, topic)


def test_criterion_5_fuzzy_matching_oracle():
    start = time.monotonic()
    rng = random.Random(55055)
    alphabet = "abcdef gh"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        got = fuzzy_similarity(a, b)
        assert got == lcs_ratio_oracle(a, b)  # exact, same arithmetic
        assert got == fuzzy_similarity(b, a)
        assert 0.0 <= got <= 1.0
    assert fuzzy_similarity("pizza hut", "pizza hut") == 1.0
    elapsed = time.monotonic() - start
    report(5, f"10000 pairs exact vs DP oracle, {elapsed:.1f}s")


def _unique_topics_per_entity(index: TopicIndex) -> bool:
    per_entity = {}
    for (domain, entity_id, _doc), words in index.entries.items():
        joined = " ".join(tw.token for tw in words)
        per_entity.setdefault((domain, entity_id), []).append(joined)
    return all(len(set(v)) == len(v) for v in per_entity.values())


def test_criterion_6_oracle_end_to_end(toy_kb, toy_index):
    start = time.monotonic()
    assert _unique_topics_per_entity(toy_index)
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=50, original_turns=2, inserted_turns=1),
        seed=606)
    clean = evaluate(corpus, toy_kb, toy_index, "oracle")
    assert clean.joint_goal == 100.0
    assert clean.r_at_1 == 100.0
    assert clean.mrr_at_5 == 100.0
    assert clean.success <= clean.inform

    # inject one deliberately ambiguous topic: a twin document with the same
    # topic words as pizza hut's d1 and a smaller doc id wins the tie-break
    twin = Document(doc_id="d0", title="favorite food",
                    body="customers favorite food here is the pepperoni pizza .")
    domains = dict(toy_kb.domains)
    restaurant = domains["restaurant"]
    domains["restaurant"] = dataclasses.replace(restaurant, entities=tuple(
        dataclasses.replace(e, documents=(twin,) + e.documents)
        if e.id == "pizza hut" else e
        for e in restaurant.entities))
    ambiguous_kb = KnowledgeBase(domains=domains)
    entries = dict(toy_index.entries)
    entries[("restaurant", "pizza hut", "d0")] = \
        entries[("restaurant", "pizza hut", "d1")]
    ambiguous_index = TopicIndex(entries=entries, thresholds=toy_index.thresholds)
    shadowed = evaluate(corpus, ambiguous_kb, ambiguous_index, "oracle")
    assert shadowed.r_at_1 < 100.0
    assert shadowed.mrr_at_5 >= shadowed.r_at_1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"clean R@1=100, shadowed R@1={shadowed.r_at_1:.1f}, "
              f"MRR@5={shadowed.mrr_at_5:.1f}, {elapsed:.1f}s")


def test_criterion_7_corruption_procedure():
    start = time.monotonic()
    n = 10_000
    foods = ["italian", "chinese", "indian"]
    areas = ["north", "south", "center"]
    ontology = {("restaurant", "food"): tuple(sorted(foods)),
                ("restaurant", "area"): tuple(sorted(areas))}
    samples = [CorruptionSample(
        context=(("user", f"utterance {k}"),),
        belief_span=serialize_belief(make_state([
            ("restaurant", "food", foods[k % 3]),
            ("restaurant", "area", areas[(k // 3) % 3])])),
        query_span="", document=None, response=f"response {k}")
        for k in range(n)]

    out = corrupt_samples(samples, seed=7777, ontology=ontology)
    corrupted = [s for s in out if s.y_c == 0]
    assert len(corrupted) == n // 2 == 5_000

    counts = {"replace_state": 0, "replace_values": 0, "replace_response": 0}
    for s in corrupted:
        counts[s.corruption_type] += 1
    expected = 5_000 / 3
    sigma = math.sqrt(5_000 * (1 / 3) * (2 / 3))
    for kind, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (kind, count)

    again = corrupt_samples(samples, seed=7777, ontology=ontology)
    dump = lambda result: json.dumps(
        [dataclasses.asdict(s) for s in result], sort_keys=True).encode()
    assert dump(out) == dump(again)  # byte-identical

    for original, swapped in zip(samples, out):
        if swapped.corruption_type == "replace_values":
            assert swapped.belief_span != original.belief_span
    elapsed = time.monotonic() - start
    report(7, f"5000/10000 corrupted, type counts {sorted(counts.values())} "
              f"within 3 sigma of {expected:.1f}, {elapsed:.1f}s")


def test_criterion_8_metric_identities():
    sentences = ["i found 2 options . pizza hut is a nice choice .",
                 "according to our information : breakfast is served daily .",
                 "sorry , no match found ."]
    tokens = [s.split() for s in sentences]
    assert bleu(tokens, tokens) == 100.0
    for sent in tokens:
        assert rouge_l(sent, sent) == 100.0

    rankings = [
        ("g", "a", "b", "c", "d"),
        ("a", "g", "b", "c", "d"),
        ("a", "b", "c", "d", "g"),
        ("a", "b", "c", "d", "e", "f"),
    ]
    mrr5, r1 = retrieval_metrics(rankings, ["g", "g", "g", "g"])
    assert mrr5 == 42.5
    assert r1 == 25.0
    report(8, "BLEU/ROUGE-L identity 100.0, MRR@5 42.5, R@1 25.0")


def test_criterion_9_parallel_determinism(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=50, original_turns=2, inserted_turns=1),
        seed=909)
    reports = [json.dumps(evaluate(corpus, toy_kb, toy_index, "heuristic",
                                   workers=workers).to_dict(), indent=2, sort_keys=True)
               for workers in (1, 8)]
    assert reports[0] == reports[1]
    report(9, f"workers 1 and 8 reports byte-identical ({len(reports[0])} bytes)")


REAL_CORPUS = os.environ.get("SEKNOW_REAL_CORPUS", "data/real/corpus.jsonl")
REAL_DB = os.environ.get("SEKNOW_REAL_DB", "data/real/db.json")
REAL_DOCS = os.environ.get("SEKNOW_REAL_DOCS", "data/real/docs.json")


def test_criterion_10_real_corpus_statistics():
    if not (os.path.exists(REAL_CORPUS) and os.path.exists(REAL_DB)
            and os.path.exists(REAL_DOCS)):
        pytest.skip("real corpus export not supplied; criterion 10 is optional")
    stats = corpus_stats(load_corpus(REAL_CORPUS))
    assert stats.slot_types == 32
    assert stats.slot_values == 2426
    assert abs(stats.mean_turns - 8.93) <= 0.01
    kb = load_knowledge_base(REAL_DB, REAL_DOCS)
    assert not validate_knowledge_base(kb).violations
    entities = [ent for domain in kb.domains.values() for ent in domain.entities]
    assert len(entities) == 291
    assert sum(len(ent.documents) for ent in entities) == 2882
    assert len(kb.domain("restaurant").id_order) == 110
    report(10, "real corpus statistics reproduced")
