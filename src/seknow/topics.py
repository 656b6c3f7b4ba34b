"""Topic index construction: TF-IDF candidates filtered by cumulative-average score.

Each document gets one to three topic words that serve as its retrieval
index. Per domain, the top three tokens by TF-IDF are taken as candidates,
ties going to the token that occurs first; a candidate survives when its
cumulative average score (the sum of its TF-IDF scores over every document
where it is a candidate, divided by the number of entities in the domain)
clears the domain threshold. Documents whose candidates are all filtered out
keep their single best candidate so every document ends up with at least one
topic word.

TF-IDF here is the unsmoothed textbook form: raw term count times
``ln(N / df)`` with ``N`` the number of documents in the domain and ``df``
the number of those documents containing the token. A document's token
stream is its title and body tokenized as one text, title first.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import mul, truediv

from .errors import ConfigError, IndexingError, LoadError
from .kb import KnowledgeBase, expect, read_json
from .text import (load_stopwords, normalize, open_input, open_output, stopwords_digest,
                   tokenize)

# Per-domain filter thresholds: restaurant, hotel, taxi, train.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "restaurant": 2.3,
    "hotel": 2.7,
    "taxi": 6.9,
    "train": 7.3,
}

MAX_TOPICS = 3

DocKey = tuple[str, str, str]  # (domain, entity_id, doc_id)
# (doc_id, topic words, the topic words space-joined and normalized)
EntityDoc = tuple[str, tuple[str, ...], str]


@dataclass(frozen=True)
class TopicWord:
    token: str
    tfidf: float
    ca_tfidf: float = 0.0
    survived_filter: bool = False


@dataclass(frozen=True)
class TopicIndex:
    entries: dict[DocKey, tuple[TopicWord, ...]]
    thresholds: dict[str, float]
    stopwords_sha256: str = ""

    def topics(self, domain: str, entity_id: str, doc_id: str) -> tuple[str, ...] | None:
        entry = self.entries.get((domain, entity_id, doc_id))
        if entry is None:
            return None
        return tuple(tw.token for tw in entry)

    @cached_property
    def _entity_docs(self) -> dict[tuple[str, str], tuple[EntityDoc, ...]]:
        grouped: dict[tuple[str, str], list[EntityDoc]] = {}
        for (domain, entity_id, doc_id), words in sorted(self.entries.items()):
            topics = tuple(tw.token for tw in words)
            grouped.setdefault((domain, entity_id), []).append(
                (doc_id, topics, normalize(" ".join(topics))))
        return {key: tuple(docs) for key, docs in grouped.items()}

    def entity_docs(self, domain: str, entity_id: str) -> tuple[EntityDoc, ...]:
        """One entity's documents, ascending by doc_id; built once per index, on first use."""
        return self._entity_docs.get((domain, entity_id), ())

    def docs_for_entity(self, domain: str, entity_id: str) -> list[tuple[str, tuple[str, ...]]]:
        """(doc_id, topic words) pairs for one entity, ascending by doc_id."""
        return [(doc_id, topics) for doc_id, topics, _ in self.entity_docs(domain, entity_id)]


def compute_tfidf(doc_tokens: Mapping) -> dict[object, dict[str, float]]:
    """Score every token of every document of one domain.

    ``doc_tokens`` maps an opaque document key to its token stream; the
    result maps that key to ``{token: tf * ln(N / df)}`` with raw counts,
    tokens in first-occurrence order. A token present in every document
    scores zero.
    """
    counts = [Counter(tokens) for tokens in doc_tokens.values()]
    df = Counter(chain.from_iterable(counts))
    idf = dict(zip(df, map(math.log, map(truediv, repeat(len(counts)), df.values()))))
    return {key: dict(zip(tf, map(mul, tf.values(), map(idf.__getitem__, tf))))
            for key, tf in zip(doc_tokens, counts)}


def extract_candidates(tokens: Sequence[str],
                       scores: Mapping[str, float]) -> list[tuple[str, float]]:
    """Top three ``(token, tfidf)`` pairs of one document.

    ``scores`` must score every token. Ties break by earlier first occurrence
    in the token stream: the sort is stable and runs over the distinct tokens
    in that order.
    """
    if not tokens:
        raise IndexingError("document has no usable tokens")
    ranked = sorted(dict.fromkeys(tokens), key=scores.__getitem__, reverse=True)
    return [(token, scores[token]) for token in ranked[:MAX_TOPICS]]


def compute_ca_tfidf(candidates: Mapping[object, Sequence[tuple[str, float]]],
                     entity_count: int) -> dict[str, float]:
    """Cumulative average score per candidate token of one domain.

    Sums the TF-IDF score of each occurrence of a token across every
    document's candidate list and divides by the number of entities in the
    domain (not the number of documents).
    """
    if entity_count < 1:
        raise ConfigError("entity_count must be at least 1")
    totals: dict[str, float] = {}
    for words in candidates.values():
        for token, tfidf in words:
            totals[token] = totals.get(token, 0.0) + tfidf
    return {token: total / entity_count for token, total in totals.items()}


def build_topic_index(kb: KnowledgeBase, thresholds: Mapping[str, float],
                      stopwords: frozenset[str] | None = None) -> TopicIndex:
    """Index every document of the knowledge base with 1-3 topic words.

    ``thresholds`` must give every domain that has documents a finite value
    (the CLI starts from :data:`DEFAULT_THRESHOLDS`). ``stopwords``, if given,
    must be the list in effect.
    """
    in_effect = load_stopwords()
    if stopwords is not None and stopwords != in_effect:
        raise ConfigError("stopwords passed to build_topic_index differ from the list "
                          f"in effect (sha256 {stopwords_digest()})")
    entries: dict[DocKey, tuple[TopicWord, ...]] = {}
    for dom_name, domain in kb.domains.items():
        doc_tokens = {(ent.id, doc.doc_id): tokenize(f"{doc.title} {doc.body}", in_effect)
                      for ent in domain.entities for doc in ent.documents}
        if not doc_tokens:
            continue
        if dom_name not in thresholds:
            raise ConfigError(f"no topic threshold configured for domain '{dom_name}'")
        threshold = thresholds[dom_name]
        if not abs(threshold) <= sys.float_info.max:  # NaN, the infinities, huge ints
            raise ConfigError(f"topic threshold {threshold} for domain '{dom_name}' "
                              "is not finite")

        scores = compute_tfidf(doc_tokens)
        candidates: dict[tuple[str, str], list[tuple[str, float]]] = {}
        for key, tokens in doc_tokens.items():
            try:
                candidates[key] = extract_candidates(tokens, scores[key])
            except IndexingError as exc:
                raise IndexingError(
                    f"domain '{dom_name}' entity '{key[0]}' document '{key[1]}': "
                    f"{exc.detail}") from exc
        ca = compute_ca_tfidf(candidates, entity_count=len(domain.entities))

        for (entity_id, doc_id), words in candidates.items():
            kept = tuple(TopicWord(token, tfidf, ca[token], True)
                         for token, tfidf in words if ca[token] >= threshold)
            if not kept:  # keep the best candidate so the doc stays indexed
                token, tfidf = words[0]
                kept = (TopicWord(token, tfidf, ca[token], False),)
            entries[(dom_name, entity_id, doc_id)] = kept

    used = {dom: float(thresholds[dom]) for dom in sorted(
        {key[0] for key in entries})}
    return TopicIndex(entries=entries, thresholds=used,
                      stopwords_sha256=stopwords_digest())


def write_index(index: TopicIndex, path: str):
    """Write the index file plus its ``<path>.meta.json`` sidecar.

    Index lines are ``domain<TAB>entity_id<TAB>doc_id<TAB>topic1[,topic2[,topic3]]``
    sorted lexicographically, so identical indexes are byte-identical files.
    """
    lines = []
    for (domain, entity_id, doc_id), words in sorted(index.entries.items()):
        topics = ",".join(tw.token for tw in words)
        lines.append(f"{domain}\t{entity_id}\t{doc_id}\t{topics}")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    sidecar = {
        "thresholds": {k: index.thresholds[k] for k in sorted(index.thresholds)},
        "stopwords_sha256": index.stopwords_sha256,
    }
    with open_output(sidecar_path(path)) as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sidecar_path(index_path: str) -> str:
    return index_path + ".meta.json"


def read_index(path: str, kb: KnowledgeBase | None = None) -> TopicIndex:
    """Load an index file written by :func:`write_index`.

    A repeated (domain, entity, doc) row is refused; given the checked ``kb``, so
    is a row naming no entity of it, or no document of that entity when the KB
    holds documents. Score provenance is not persisted, so loaded entries carry
    zero scores and an unset filter flag; only the topic tokens matter downstream.
    """
    doc_ids = None if kb is None else {
        (name, ent.id): {doc.doc_id for doc in ent.documents}
        for name, dom in kb.domains.items() for ent in dom.entities}
    with_docs = doc_ids is not None and any(doc_ids.values())
    entries: dict[DocKey, tuple[TopicWord, ...]] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4 or not parts[3]:
                raise LoadError("expected 'domain\\tentity\\tdoc\\ttopics'",
                                file=path, line=lineno)
            topics = tuple(TopicWord(token=t, tfidf=0.0) for t in parts[3].split(","))
            if not 1 <= len(topics) <= MAX_TOPICS:
                raise LoadError(f"{len(topics)} topic words (expected 1-{MAX_TOPICS})",
                                file=path, line=lineno)
            key = (parts[0], parts[1], parts[2])
            if key in entries:
                raise LoadError(f"duplicate row ({', '.join(key)})", file=path, line=lineno)
            if doc_ids is not None:
                row = f"row ({', '.join(key)})"
                ids = doc_ids.get(key[:2])
                expect(ids is not None, f"{row} names no entity of the knowledge base",
                       path, lineno)
                expect(not with_docs or key[2] in ids,
                       f"{row} names no document of that entity", path, lineno)
            entries[key] = topics
    thresholds: dict[str, float] = {}
    digest = ""
    meta = sidecar_path(path)
    if os.path.exists(meta):
        raw = read_json(meta)
        expect(isinstance(raw, dict), "sidecar must be a JSON object", meta)
        raw_thresholds = raw.get("thresholds", {})
        # the bound refuses NaN, the infinities and ints too large for a float
        expect(isinstance(raw_thresholds, dict)
               and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                       for v in raw_thresholds.values()),
               "'thresholds' must map domain names to finite numbers", meta)
        thresholds = {k: float(v) for k, v in raw_thresholds.items()}
        digest = raw.get("stopwords_sha256", "")
        expect(isinstance(digest, str), "'stopwords_sha256' must be a string", meta)
        if digest and digest != stopwords_digest():
            raise ConfigError(f"{meta}: index was built with stopwords sha256 {digest}, "
                              f"but the list in effect has {stopwords_digest()}")
    return TopicIndex(entries=entries, thresholds=thresholds, stopwords_sha256=digest)
