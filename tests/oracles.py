"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without
importing the algorithms under test: recursive LCS with memoization, a
from-scratch topic extraction pass, an exhaustive entity filter, a scan of
every index entry per entity, a regex-only ontology value finder, and a
naive n-gram BLEU. Slow is fine; these run on desk-scale inputs only.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from pathlib import Path

STOPWORDS_PATH = Path(__file__).resolve().parent.parent / "src" / "seknow" / "data" / "stopwords.txt"


def lcs_ratio_oracle(a: str, b: str) -> float:
    """LCS ratio by full-table recursion over normalized strings."""
    a = " ".join(a.lower().split())
    b = " ".join(b.lower().split())
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * (len(a) + len(b)) + 1000))

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    return 2.0 * lcs(0, 0) / (len(a) + len(b))


def oracle_tokenize(text: str) -> list[str]:
    stopwords = set(STOPWORDS_PATH.read_text("utf-8").split())
    out = []
    for raw in re.split(r"[^A-Za-z0-9]+", text.lower()):
        if len(raw) >= 2 and raw not in stopwords:
            out.append(raw)
    return out


def oracle_topic_index(domains: dict) -> dict:
    """Reference topic extraction.

    ``domains`` maps a domain name to ``(entity_count, docs)`` where docs
    maps ``(entity_id, doc_id)`` to ``(title, body)``. Returns
    ``(domain, entity_id, doc_id) -> [topic words]`` by exhaustively
    recomputing tf, df, idf, cumulative averages and the threshold filter
    with its single-best fallback.
    """
    result = {}
    for domain, (entity_count, docs, threshold) in domains.items():
        streams = {key: oracle_tokenize(title) + oracle_tokenize(body)
                   for key, (title, body) in docs.items()}
        n_docs = len(streams)
        candidates = {}
        for key, stream in streams.items():
            distinct = []
            for token in stream:
                if token not in distinct:
                    distinct.append(token)
            scored = []
            for token in distinct:
                tf = sum(1 for t in stream if t == token)
                df = sum(1 for other in streams.values() if token in other)
                scored.append((token, tf * math.log(n_docs / df)))
            scored.sort(key=lambda pair: (-pair[1], stream.index(pair[0]), pair[0]))
            candidates[key] = scored[:3]
        cumulative = {}
        for scored in candidates.values():
            for token, value in scored:
                cumulative[token] = cumulative.get(token, 0.0) + value
        averages = {token: total / entity_count for token, total in cumulative.items()}
        for (entity_id, doc_id), scored in candidates.items():
            kept = [token for token, _ in scored if averages[token] >= threshold]
            if not kept:
                kept = [scored[0][0]]
            result[(domain, entity_id, doc_id)] = kept
    return result


def oracle_filter_entities(entities: list, constraints: dict) -> list:
    """Exhaustive filter: ids of entities matching every constraint exactly."""
    out = []
    for ent in entities:
        ok = True
        for slot, value in constraints.items():
            if slot not in ent.attributes or ent.attributes[slot] != value:
                ok = False
        if ok:
            out.append(ent.id)
    return sorted(out)


def oracle_docs_for_entity(entries: dict, domain: str, entity_id: str) -> list:
    """Scan every index entry: (doc_id, topic words) of one entity, sorted."""
    return sorted((doc_id, tuple(tw.token for tw in words))
                  for (dom, ent, doc_id), words in entries.items()
                  if dom == domain and ent == entity_id)


def oracle_find_unclaimed(utterance: str, value: str, claimed: list) -> tuple | None:
    """First whole-word regex match of ``value`` overlapping no claimed span."""
    for match in re.finditer(rf"\b{re.escape(value)}\b", utterance):
        if all(match.end() <= lo or match.start() >= hi for lo, hi in claimed):
            return match.start(), match.end()
    return None


def oracle_bleu(hypotheses: list, references: list) -> float:
    """Naive corpus BLEU-4: explicit n-gram enumeration, no smoothing."""
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    precisions = []
    for n in range(1, 5):
        clipped = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_ngrams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            ref_ngrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total += len(hyp_ngrams)
            for gram in set(hyp_ngrams):
                clipped += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
        if total == 0 or clipped == 0:
            return 0.0
        precisions.append(clipped / total)
    geo_mean = math.exp(sum(math.log(p) for p in precisions) / 4.0)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * brevity * geo_mean


def oracle_lcs_tokens(a: list, b: list) -> int:
    """Token-level LCS length by full matrix."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]
