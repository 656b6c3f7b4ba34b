import hashlib
import json
import math
import random
import shutil
import sys
from pathlib import Path

import pytest

from oracles import oracle_docs_for_entity, oracle_tokenize, oracle_topic_index, oracle_topic_words
from seknow import topics
from seknow.errors import ConfigError, IndexingError, LoadError
from seknow.kb import Document, Domain, Entity, KnowledgeBase, load_knowledge_base
from seknow.text import load_stopwords, tokenize
from seknow.topics import (
    DEFAULT_THRESHOLDS,
    TopicIndex,
    TopicWord,
    build_topic_index,
    compute_ca_tfidf,
    compute_tfidf,
    extract_candidates,
    read_index,
    write_index,
)

from conftest import GOLDEN_INDEX_PATH, TOY_THRESHOLDS

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode  # no __pycache__ there

import inputs  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_tokenize_keeps_non_stopwords():
    assert tokenize("Free WiFi, free parking!", load_stopwords()) == [
        "free", "wifi", "free", "parking"]


def test_tokenize_empty():
    assert tokenize("", load_stopwords()) == []


def test_tokenize_all_stopwords():
    assert tokenize("a an the", load_stopwords()) == []


# Pieces of random text: 1-char runs, digits, case, stopwords, non-ASCII letters
# ("İ" lowercases to "i" plus a combining dot, the Kelvin sign U+212A to "k"), and
# separators. Few distinct tokens, so TF-IDF scores tie often.
TEXT_PIECES = ["aa", "bb", "cc", "Dd", "DD", "7", "42", "x", "e", "the", "AND", "of",
               "İx", "\u212a9", "b\u212a", "bİ", "ΣΑΣ", "ß",
               " ", " ", ", ", "-", "!", "\t", "'"]
CONTENT_WORDS = ["aa", "bb", "cc", "dd", "42"]


def random_text(rng: random.Random, pieces: int) -> str:
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, pieces)))


def test_tokenize_matches_oracle_on_random_text():
    rng = random.Random(1401)
    for _ in range(3000):
        text = random_text(rng, 12)
        assert tokenize(text, load_stopwords()) == oracle_tokenize(text), text


def test_tokenize_matches_oracle_around_every_bmp_code_point():
    stopwords = load_stopwords()
    for c in range(0x10000):  # surrogates included
        text = "ab" + chr(c) + "cd"
        assert tokenize(text, stopwords) == oracle_tokenize(text), hex(c)


def test_tokenize_matches_oracle_on_every_benchmark_document():
    stopwords = load_stopwords()
    _, docs = inputs.make_kb(1)
    assert len(docs) == 2910
    for doc in docs:
        text = f"{doc['title']} {doc['body']}"
        assert tokenize(text, stopwords) == oracle_tokenize(text), doc["doc_id"]


@pytest.mark.parametrize("text, tokens", [
    ("ab\ud800cd", ["ab", "cd"]),  # a lone surrogate, as surrogateescape decodes to, separates
    ("ab\udcffcd", ["ab", "cd"]),
    ("K9", ["k9"]),
    ("\u212a9 x 7 42", ["k9", "42"]),  # the Kelvin sign lowercases to ASCII k
    ("caf\u00e9s na\u00efve", ["caf", "na", "ve"]),
])
def test_tokenize_named_cases(text, tokens):
    assert tokenize(text, load_stopwords()) == tokens


def test_tokenize_of_title_and_body_joined_is_their_streams_joined():
    rng = random.Random(1402)
    stopwords = load_stopwords()
    for _ in range(3000):
        title, body = random_text(rng, 6), random_text(rng, 12)
        assert tokenize(f"{title} {body}", stopwords) == \
            tokenize(title, stopwords) + tokenize(body, stopwords), (title, body)


def random_tie_kb(rng: random.Random) -> tuple[KnowledgeBase, dict[str, float], dict]:
    """A KB of 1-3 domains over :data:`TEXT_PIECES`, its thresholds, and the oracle's
    ``domains`` argument for it; some entities have no documents."""
    domains, thresholds, oracle_domains = {}, {}, {}
    for d in range(rng.randint(1, 3)):
        name = f"dom{d}"
        entities = tuple(
            Entity(id=f"e{e}", name=f"e{e}", attributes={}, documents=tuple(
                Document(f"d{k}", random_text(rng, 4),
                         f"{random_text(rng, 10)} {rng.choice(CONTENT_WORDS)}")
                for k in range(rng.randint(0, 4))))
            for e in range(rng.randint(1, 5)))
        domains[name] = Domain(name=name, slot_schema=frozenset(), entities=entities)
        thresholds[name] = rng.choice([0.0, 0.2, 0.5, 1.0, 2.0])
        docs = {(ent.id, doc.doc_id): (doc.title, doc.body)
                for ent in entities for doc in ent.documents}
        if docs:
            oracle_domains[name] = (len(entities), docs, thresholds[name])
    return KnowledgeBase(domains=domains), thresholds, oracle_domains


def kernel_scores(domain: Domain) -> tuple[dict, dict, dict[str, float]]:
    """The kernels the build calls, on one domain: each document's distinct tokens with
    their TF-IDF scores and its candidates, keyed by (entity_id, doc_id), and each
    candidate's cumulative average."""
    streams = {(ent.id, doc.doc_id): tokenize(f"{doc.title} {doc.body}", load_stopwords())
               for ent in domain.entities for doc in ent.documents}
    tfidf = compute_tfidf(streams)
    candidates = {key: extract_candidates(*vectors) for key, vectors in tfidf.items()}
    return tfidf, candidates, compute_ca_tfidf(candidates, len(domain.entities))


def test_build_matches_oracle_scores_on_tie_heavy_kbs():
    """The kernels the build calls give the oracle's scores, floats compared exactly,
    and the build keeps the oracle's topic words."""
    rng = random.Random(1403)
    cut_ties = 0
    for _ in range(150):
        kb, thresholds, oracle_domains = random_tie_kb(rng)
        scored = {}
        for name, domain in kb.domains.items():
            tfidf, candidates, ca = kernel_scores(domain)
            for (entity_id, doc_id), words in candidates.items():
                words = [(token, score, ca[token], ca[token] >= thresholds[name])
                         for token, score in words]
                scored[(name, entity_id, doc_id)] = [w for w in words if w[3]] or words[:1]
            for _, scores in tfidf.values():
                ranked = sorted(scores, reverse=True)
                cut_ties += len(ranked) > 3 and ranked[2] == ranked[3]
        assert scored == oracle_topic_words(oracle_domains)  # floats compared exactly
        index = build_topic_index(kb, thresholds)
        assert {key: [tw.token for tw in words] for key, words in index.entries.items()} \
            == oracle_topic_index(oracle_domains)
    assert cut_ties >= 100, cut_ties  # the first-occurrence tie-break decides often


def test_build_runs_through_the_traced_seams(toy_kb, tmp_path):
    """``benchmarks/tracer.py`` times the build by patching these ``topics`` names."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    sys.dont_write_bytecode, write_bytecode = True, sys.dont_write_bytecode
    try:
        from tracer import NAME, PARENT, Tracer
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.pop(0)
    tracer = Tracer()
    tracer.install()
    try:
        topics.write_index(topics.build_topic_index(toy_kb, TOY_THRESHOLDS),
                           str(tmp_path / "index.tsv"))
    finally:
        tracer.restore()
    assert (tmp_path / "index.tsv").read_bytes() == GOLDEN_INDEX_PATH.read_bytes()
    docs = sum(len(ent.documents) for dom in toy_kb.domains.values() for ent in dom.entities)
    calls = {}
    for rec in tracer.spans:
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        if rec[NAME] not in ("topics.build", "topics.write"):
            assert rec[PARENT][NAME] == "topics.build", rec[NAME]
    assert calls == {"topics.build": 1, "text.tokenize": docs, "topics.tfidf": 4,
                     "topics.candidates": docs, "topics.ca_tfidf": 4, "topics.write": 1}


def test_tfidf_token_in_every_doc_scores_zero():
    scores = compute_tfidf({"a": ["pizza", "good"], "b": ["pizza", "bad"]})
    assert scores["a"] == (("pizza", "good"), [0.0, math.log(2)])
    assert scores["b"] == (("pizza", "bad"), [0.0, math.log(2)])


def test_tfidf_three_occurrences_one_doc():
    scores = compute_tfidf({"a": ["wifi", "wifi", "wifi", "desk"], "b": ["desk"]})
    expected = 3 * math.log(2)  # tf=3, idf=ln(2/1)
    assert scores["a"] == (("wifi", "desk"), [expected, 0.0])
    assert scores["a"][1][0] == pytest.approx(2.0794415416798357)


def test_tfidf_single_doc_domain_scores_zero():
    scores = compute_tfidf({"only": ["wifi", "pool", "wifi"]})
    assert scores["only"] == (("wifi", "pool"), [0.0, 0.0])


def test_tfidf_vector_keeps_first_occurrence_and_the_earlier_tie():
    """Each document's distinct tokens come in first-occurrence order with aligned
    scores, and a tie across the third/fourth boundary keeps the earlier token."""
    scores = compute_tfidf({"a": ["pool", "wifi", "bar", "wifi", "desk", "pool", "spa"],
                            "b": ["spa", "gym"]})
    ln2 = math.log(2)
    assert scores["a"] == (("pool", "wifi", "bar", "desk", "spa"),
                           [2 * ln2, 2 * ln2, ln2, ln2, 0.0])
    assert scores["b"] == (("spa", "gym"), [0.0, ln2])
    assert extract_candidates(*scores["a"]) == [("pool", 2 * ln2), ("wifi", 2 * ln2),
                                                ("bar", ln2)]


def test_extract_candidates_tie_break_by_occurrence():
    tokens = ("breakfast", "wifi", "pool", "bar")
    assert extract_candidates(tokens, [4.1, 2.0, 2.0, 1.0]) == [
        ("breakfast", 4.1), ("wifi", 2.0), ("pool", 2.0)]
    assert extract_candidates(tokens, [1.0, 2.0, 4.1, 2.0]) == [
        ("pool", 4.1), ("wifi", 2.0), ("bar", 2.0)]


def test_extract_candidates_fewer_than_three():
    picked = extract_candidates(("wifi", "pool"), [0.5, 1.0])
    assert picked == [("pool", 1.0), ("wifi", 0.5)]


def test_extract_candidates_empty_stream():
    with pytest.raises(IndexingError, match="document has no usable tokens"):
        extract_candidates((), [])


def test_build_names_the_document_with_no_usable_tokens():
    docs = (Document("d1", "pool", "wifi"), Document("d2", "the", "a"))
    kb = KnowledgeBase(domains={"hotel": Domain(name="hotel", slot_schema=frozenset(), entities=(
        Entity(id="e1", name="e1", attributes={}, documents=docs),))})
    with pytest.raises(IndexingError) as err:
        build_topic_index(kb, {"hotel": 1.0})
    assert err.value.detail == ("domain 'hotel' entity 'e1' document 'd2': "
                                "document has no usable tokens")


def test_ca_tfidf_sums_and_divides_by_entities():
    candidates = {
        "d1": [("wifi", 2.0)],
        "d2": [("wifi", 4.0)],
    }
    assert compute_ca_tfidf(candidates, entity_count=3)["wifi"] == pytest.approx(2.0)


def test_ca_tfidf_zero_score():
    assert compute_ca_tfidf({"d": [("wifi", 0.0)]}, 1)["wifi"] == 0.0


def test_default_thresholds_pinned():
    assert DEFAULT_THRESHOLDS == {"restaurant": 2.3, "hotel": 2.7,
                                  "taxi": 6.9, "train": 7.3}


def test_build_matches_golden_file(toy_kb, tmp_path):
    index = build_topic_index(toy_kb, TOY_THRESHOLDS)
    out = tmp_path / "index.tsv"
    write_index(index, str(out))
    assert out.read_bytes() == GOLDEN_INDEX_PATH.read_bytes()


def test_build_matches_bruteforce_oracle(toy_kb):
    index = build_topic_index(toy_kb, TOY_THRESHOLDS)
    domains = {}
    for name, dom in toy_kb.domains.items():
        docs = {(e.id, d.doc_id): (d.title, d.body)
                for e in dom.entities for d in e.documents}
        if docs:
            domains[name] = (len(dom.entities), docs, TOY_THRESHOLDS[name])
    expected = oracle_topic_index(domains)
    got = {key: [tw.token for tw in words] for key, words in index.entries.items()}
    assert got == expected


def test_every_document_has_one_to_three_topics(toy_index):
    for words in toy_index.entries.values():
        assert 1 <= len(words) <= 3


def test_fallback_keeps_single_best(toy_kb, toy_index):
    words = toy_index.entries[("restaurant", "golden wok", "d4")]
    assert [tw.token for tw in words] == ["takeaway"]
    _, candidates, ca = kernel_scores(toy_kb.domains["restaurant"])
    assert candidates[("golden wok", "d4")][0][0] == "takeaway"
    # no candidate clears the threshold, so the best one is kept
    assert all(ca[token] < TOY_THRESHOLDS["restaurant"]
               for token, _ in candidates[("golden wok", "d4")])


def test_threshold_monotonicity(toy_kb):
    _, candidates, ca = kernel_scores(toy_kb.domains["restaurant"])
    for words in candidates.values():
        survivors = [sum(ca[token] >= threshold for token, _ in words)
                     for threshold in (TOY_THRESHOLDS["restaurant"], 2.0)]
        assert survivors[1] <= survivors[0]


def test_build_deterministic_bytes(toy_kb, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_index(build_topic_index(toy_kb, TOY_THRESHOLDS), str(a))
    write_index(build_topic_index(toy_kb, TOY_THRESHOLDS), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_missing_threshold_is_config_error(toy_kb):
    with pytest.raises(ConfigError, match="train"):
        build_topic_index(toy_kb, {"restaurant": 1.0, "hotel": 1.0, "taxi": 6.9})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-too-large-for-a-float"])
def test_non_finite_threshold_is_config_error(toy_kb, value):
    with pytest.raises(ConfigError) as exc:
        build_topic_index(toy_kb, {**TOY_THRESHOLDS, "hotel": value})
    assert exc.value.detail == f"topic threshold {value} for domain 'hotel' is not finite"


def test_non_finite_threshold_of_a_domain_without_documents_is_unused():
    kb = KnowledgeBase(domains={"hotel": Domain(name="hotel", slot_schema=frozenset(["name"]),
                                                entities=(Entity("a", "a", {}),))})
    assert build_topic_index(kb, {"hotel": math.nan}).thresholds == {}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400])
def test_read_index_refuses_non_finite_sidecar_threshold(toy_index, tmp_path, value):
    path = tmp_path / "index.tsv"
    write_index(toy_index, str(path))
    sidecar = tmp_path / "index.tsv.meta.json"
    sidecar.write_text(f'{{"thresholds": {{"hotel": {value}}}}}', encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        read_index(str(path))
    assert str(exc.value) == f"{sidecar}: 'thresholds' must map domain names to finite numbers"


def test_read_index_refuses_four_topic_words(tmp_path):
    path = tmp_path / "index.tsv"
    path.write_text("hotel\tacorn\th1\tpool\nhotel\tacorn\th2\ta,b,c,d\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        read_index(str(path))
    assert str(exc.value) == f"{path}:2: 4 topic words (expected 1-3)"


@pytest.mark.parametrize("words", ["breakfast,,", ",breakfast", "pool, ,parking"])
def test_read_index_refuses_empty_topic_word(tmp_path, words):
    path = tmp_path / "index.tsv"
    path.write_text(f"hotel\tacorn\th1\tpool\nhotel\tacorn guest house\th1\t{words}\n",
                    encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        read_index(str(path))
    assert str(exc.value) == f"{path}:2: empty topic word"


def test_all_stopword_document_is_indexing_error(tmp_path):
    db = {"hotel": {"slots": ["name"], "entities": [
        {"id": "a", "name": "a", "attributes": {}}]}}
    docs = [{"domain": "hotel", "entity_id": "a", "doc_id": "bad",
             "title": "", "body": "a an the of to"}]
    (tmp_path / "db.json").write_text(json.dumps(db))
    (tmp_path / "docs.json").write_text(json.dumps(docs))
    kb = load_knowledge_base(str(tmp_path / "db.json"), str(tmp_path / "docs.json"))
    with pytest.raises(IndexingError, match="bad"):
        build_topic_index(kb, {"hotel": 1.0})


def test_write_read_roundtrip(toy_index, tmp_path):
    path = tmp_path / "index.tsv"
    write_index(toy_index, str(path))
    assert read_index(str(path)) == toy_index


def test_read_index_equals_the_built_index(toy_kb, tmp_path):
    index = build_topic_index(toy_kb, TOY_THRESHOLDS)
    path = tmp_path / "index.tsv"
    write_index(index, str(path))
    read = read_index(str(path), toy_kb)
    assert read == index
    for built in (index, read):  # one TopicWord instance per distinct topic word
        words = [tw for tws in built.entries.values() for tw in tws]
        assert len({id(tw) for tw in words}) == len({tw.token for tw in words}) < len(words)
    for part in (0, 1):  # one domain string per domain, one entity id string per entity
        values = [key[part] for key in read.entries]
        assert len({id(v) for v in values}) == len(set(values)) < len(values)


def test_docs_for_entity_matches_scan(toy_kb, toy_index):
    hand_made = TopicIndex(entries={
        ("hotel", "a", "d2"): (TopicWord("pool"),),
        ("hotel", "a", "d10"): (TopicWord("wifi"), TopicWord("desk")),
        ("hotel", "b", "d0"): (TopicWord("bar"),),
        ("taxi", "a", "d1"): (TopicWord("car"),),
    }, thresholds={})
    for index in (toy_index, hand_made):
        keys = {key[:2] for key in index.entries} | {("hotel", "nowhere")} | {
            (name, ent.id) for name, dom in toy_kb.domains.items() for ent in dom.entities}
        for domain, entity_id in sorted(keys):
            assert index.docs_for_entity(domain, entity_id) == \
                oracle_docs_for_entity(index.entries, domain, entity_id)
    assert hand_made.docs_for_entity("hotel", "a") == [
        ("d10", ("wifi", "desk")), ("d2", ("pool",))]
    hand_made.docs_for_entity("hotel", "a").clear()  # callers get a fresh list
    assert len(hand_made.docs_for_entity("hotel", "a")) == 2


def test_stopword_env_list_is_in_effect(toy_kb, env_stopwords, tmp_path):
    assert tokenize("is it with the wifi", load_stopwords()) == ["is", "it", "with", "wifi"]
    digest = hashlib.sha256(env_stopwords.read_bytes()).hexdigest()
    path = tmp_path / "index.tsv"
    for stopwords in (None, load_stopwords()):
        write_index(build_topic_index(toy_kb, TOY_THRESHOLDS, stopwords), str(path))
        sidecar = json.loads(Path(topics.sidecar_path(str(path))).read_text("utf-8"))
        assert sidecar["stopwords_sha256"] == digest
    with pytest.raises(ConfigError, match="differ from the list in effect"):
        build_topic_index(toy_kb, TOY_THRESHOLDS, frozenset({"x"}))


def test_read_index_refuses_other_stopword_list(tmp_path, env_stopwords):
    path = tmp_path / "index.tsv"  # the golden index, built under the packaged list
    sidecar = Path(topics.sidecar_path(str(path)))
    shutil.copyfile(GOLDEN_INDEX_PATH, path)
    shutil.copyfile(topics.sidecar_path(str(GOLDEN_INDEX_PATH)), sidecar)
    packaged = json.loads(sidecar.read_text("utf-8"))["stopwords_sha256"]
    env_digest = hashlib.sha256(env_stopwords.read_bytes()).hexdigest()
    with pytest.raises(ConfigError) as exc:
        read_index(str(path))
    assert exc.value.detail == (f"{sidecar}: index was built with stopwords sha256 "
                                f"{packaged!r}, but the list in effect has {env_digest}")


@pytest.mark.parametrize("sidecar, error, detail", [
    (None, LoadError, "No such file or directory"),
    ({"stopwords_sha256": "*"}, LoadError, "'thresholds' must map domain names to finite numbers"),
    ({"thresholds": {}}, LoadError, "'stopwords_sha256' must be a string"),
    ({"thresholds": {}, "stopwords_sha256": ""}, ConfigError,
     "index was built with stopwords sha256 '', but the list in effect has *"),
], ids=["missing", "without-thresholds", "without-digest", "empty-digest"])
def test_read_index_requires_its_sidecar(toy_index, tmp_path, sidecar, error, detail):
    path = tmp_path / "index.tsv"
    write_index(toy_index, str(path))
    meta = Path(topics.sidecar_path(str(path)))
    digest = json.loads(meta.read_text("utf-8"))["stopwords_sha256"]
    if sidecar is None:
        meta.unlink()
    else:
        meta.write_text(json.dumps(sidecar).replace("*", digest), encoding="utf-8")
    with pytest.raises(error) as exc:
        read_index(str(path))
    assert str(exc.value) == f"{meta}: {detail.replace('*', digest)}"
