"""Topic index construction: TF-IDF candidates filtered by cumulative-average score.

Each document gets one to three topic words that serve as its retrieval
index. Per domain, the top three tokens by TF-IDF are taken as candidates;
a candidate survives when its cumulative average score (the sum of its
TF-IDF scores over every document where it is a candidate, divided by the
number of entities in the domain) clears the domain threshold. Documents
whose candidates are all filtered out keep their single best candidate so
every document ends up with at least one topic word.

TF-IDF here is the unsmoothed textbook form: raw term count times
``ln(N / df)`` with ``N`` the number of documents in the domain and ``df``
the number of those documents containing the token. Title tokens are
prepended to the body's token stream.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ConfigError, IndexingError, LoadError
from .kb import KnowledgeBase, expect, read_json
from .text import load_stopwords, open_input, open_output, stopwords_digest, tokenize

# Per-domain filter thresholds: restaurant, hotel, taxi, train.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "restaurant": 2.3,
    "hotel": 2.7,
    "taxi": 6.9,
    "train": 7.3,
}

MAX_TOPICS = 3

DocKey = tuple[str, str, str]  # (domain, entity_id, doc_id)


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
    def _doc_ids(self) -> dict[tuple[str, str], list[str]]:
        grouped: dict[tuple[str, str], list[str]] = {}
        for domain, entity_id, doc_id in sorted(self.entries):
            grouped.setdefault((domain, entity_id), []).append(doc_id)
        return grouped

    def docs_for_entity(self, domain: str, entity_id: str) -> list[tuple[str, tuple[str, ...]]]:
        """(doc_id, topic words) pairs for one entity, ascending by doc_id."""
        return [(doc_id, self.topics(domain, entity_id, doc_id))
                for doc_id in self._doc_ids.get((domain, entity_id), ())]


def compute_tfidf(doc_tokens: Mapping) -> dict[object, dict[str, float]]:
    """Score every token of every document of one domain.

    ``doc_tokens`` maps an opaque document key to its token stream; the
    result maps that key to ``{token: tf * ln(N / df)}`` with raw counts. A
    token present in every document scores zero.
    """
    n_docs = len(doc_tokens)
    df = Counter(token for tokens in doc_tokens.values() for token in set(tokens))
    return {key: {token: tf * math.log(n_docs / df[token])
                  for token, tf in Counter(tokens).items()}
            for key, tokens in doc_tokens.items()}


def extract_candidates(tokens: Sequence[str], scores: Mapping[str, float]) -> list[TopicWord]:
    """Top three tokens of one document by TF-IDF.

    Ties break by earlier first occurrence in the token stream, then
    lexicographically. Cumulative scores and the filter flag are filled in
    later by :func:`build_topic_index`.
    """
    if not tokens:
        raise IndexingError("document has no usable tokens")
    first_pos = {}
    for pos, token in enumerate(tokens):
        first_pos.setdefault(token, pos)
    ranked = sorted(first_pos, key=lambda t: (-scores.get(t, 0.0), first_pos[t], t))
    return [TopicWord(token=t, tfidf=scores.get(t, 0.0)) for t in ranked[:MAX_TOPICS]]


def compute_ca_tfidf(candidates: Mapping[object, Sequence[TopicWord]],
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
        for tw in words:
            totals[tw.token] = totals.get(tw.token, 0.0) + tw.tfidf
    return {token: total / entity_count for token, total in totals.items()}


def build_topic_index(kb: KnowledgeBase,
                      thresholds: Mapping[str, float] | None = None,
                      stopwords: frozenset[str] | None = None) -> TopicIndex:
    """Index every document of the knowledge base with 1-3 topic words.

    ``thresholds`` must cover every domain that has documents; it defaults
    to :data:`DEFAULT_THRESHOLDS`. ``stopwords``, if given, must be the list
    in effect.
    """
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS
    in_effect = load_stopwords()
    if stopwords is not None and stopwords != in_effect:
        raise ConfigError("stopwords passed to build_topic_index differ from the list "
                          f"in effect (sha256 {stopwords_digest()})")
    entries: dict[DocKey, tuple[TopicWord, ...]] = {}
    for dom_name, domain in kb.domains.items():
        doc_tokens: dict[tuple[str, str], list[str]] = {}
        for ent in domain.entities:
            for doc in ent.documents:
                stream = tokenize(doc.title, in_effect) + tokenize(doc.body, in_effect)
                doc_tokens[(ent.id, doc.doc_id)] = stream
        if not doc_tokens:
            continue
        if dom_name not in thresholds:
            raise ConfigError(f"no topic threshold configured for domain '{dom_name}'")
        threshold = thresholds[dom_name]

        scores = compute_tfidf(doc_tokens)
        candidates: dict[tuple[str, str], list[TopicWord]] = {}
        for key, tokens in doc_tokens.items():
            try:
                candidates[key] = extract_candidates(tokens, scores[key])
            except IndexingError as exc:
                raise IndexingError(
                    f"domain '{dom_name}' entity '{key[0]}' document '{key[1]}': "
                    f"{exc.detail}") from exc
        ca = compute_ca_tfidf(candidates, entity_count=len(domain.entities))

        for (entity_id, doc_id), words in candidates.items():
            scored = [
                replace(tw, ca_tfidf=ca[tw.token], survived_filter=ca[tw.token] >= threshold)
                for tw in words
            ]
            kept = [tw for tw in scored if tw.survived_filter]
            if not kept:
                kept = [scored[0]]  # keep the best candidate so the doc stays indexed
            entries[(dom_name, entity_id, doc_id)] = tuple(kept)

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


def read_index(path: str) -> TopicIndex:
    """Load an index file written by :func:`write_index`.

    Score provenance is not persisted, so loaded entries carry zero scores
    and an unset filter flag; only the topic tokens matter downstream.
    """
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
            entries[(parts[0], parts[1], parts[2])] = topics
    thresholds: dict[str, float] = {}
    digest = ""
    meta = sidecar_path(path)
    if os.path.exists(meta):
        raw = read_json(meta)
        expect(isinstance(raw, dict), "sidecar must be a JSON object", meta)
        raw_thresholds = raw.get("thresholds", {})
        expect(isinstance(raw_thresholds, dict)
               and all(type(v) in (int, float) for v in raw_thresholds.values()),
               "'thresholds' must map domain names to numbers", meta)
        thresholds = {k: float(v) for k, v in raw_thresholds.items()}
        digest = raw.get("stopwords_sha256", "")
        expect(isinstance(digest, str), "'stopwords_sha256' must be a string", meta)
        if digest and digest != stopwords_digest():
            raise ConfigError(f"{meta}: index was built with stopwords sha256 {digest}, "
                              f"but the list in effect has {stopwords_digest()}")
    return TopicIndex(entries=entries, thresholds=thresholds, stopwords_sha256=digest)


def check_index(index: TopicIndex, kb: KnowledgeBase, path: str):
    """Refuse rows of the index file ``path`` naming no KB entity or, when the KB
    holds documents, no document of that entity."""
    with_docs = any(ent.documents for dom in kb.domains.values() for ent in dom.entities)
    for domain, entity_id, doc_id in index.entries:
        entity = kb.domains[domain].entity(entity_id) if domain in kb.domains else None
        row = f"row ({domain}, {entity_id}, {doc_id})"
        expect(entity is not None, f"{row} names no entity of the knowledge base", path)
        expect(not with_docs or any(doc.doc_id == doc_id for doc in entity.documents),
               f"{row} names no document of that entity", path)
