"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without
importing the algorithms under test: recursive LCS with memoization, a
full-matrix LCS, an exhaustive fuzzy entity match, a from-scratch topic
extraction pass, an exhaustive entity filter, a scan of every index entry
per entity, a regex-only ontology value finder and the full ontology scan
built on it, Inform and Success from their definition, a naive n-gram BLEU
and its per-pair counts from slices, a two-pass greedy METEOR alignment, Joint
Goal and the ruk triple from their definitions, the belief-extension P/R/F1
over lists of states, and the token-cursor
belief-span parser with eager byte offsets and its own canonical ordering.
Slow is fine; these run on desk-scale inputs only. ``oracle_evaluate``
checks the single-pass evaluation driver with these references too: BLEU
from the summed per-pair counts through the production closed form
(``metrics._bleu_score``), METEOR from the greedy alignment, and ROUGE-L
from the full-matrix LCS.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from seknow.belief import ExtendedBeliefState
from seknow.errors import EvaluationError, ParseError

STOPWORDS_PATH = Path(__file__).resolve().parent.parent / "src" / "seknow" / "data" / "stopwords.txt"
ORACLE_STOPWORDS = frozenset(STOPWORDS_PATH.read_text("utf-8").split())


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
    out = []
    for raw in re.split(r"[^A-Za-z0-9]+", text.lower()):
        if len(raw) >= 2 and raw not in ORACLE_STOPWORDS:
            out.append(raw)
    return out


def oracle_topic_words(domains: dict) -> dict:
    """Reference topic extraction, scores included.

    ``domains`` maps a domain name to ``(entity_count, docs, threshold)``
    where docs maps ``(entity_id, doc_id)`` to ``(title, body)``. Returns
    ``(domain, entity_id, doc_id) -> [(token, tfidf, ca_tfidf, survived)]``
    for the kept words, by exhaustively recomputing tf, df, idf, cumulative
    averages and the threshold filter with its single-best fallback.
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
            words = [(token, value, averages[token], averages[token] >= threshold)
                     for token, value in scored]
            kept = [word for word in words if word[3]]
            result[(domain, entity_id, doc_id)] = kept or words[:1]
    return result


def oracle_topic_index(domains: dict) -> dict:
    """:func:`oracle_topic_words` as ``(domain, entity_id, doc_id) -> [topic words]``."""
    return {key: [word[0] for word in words]
            for key, words in oracle_topic_words(domains).items()}


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


def oracle_heuristic_constraints(kb, utterance: str) -> list:
    """(domain, slot, value) triples the heuristic predictor adds for ``utterance``.

    The full scan: every attribute value of the KB, longest first (ties by
    value), is tried with :func:`oracle_find_unclaimed`; a match claims its
    span and adds the value for every (domain, slot) carrying it, sorted.
    """
    pairs = {}
    for dom_name, domain in kb.domains.items():
        for ent in domain.entities:
            for slot, value in ent.attributes.items():
                pairs.setdefault(value, set()).add((dom_name, slot))
    claimed, triples = [], []
    for value in sorted(pairs, key=lambda v: (-len(v), v)):
        span = oracle_find_unclaimed(utterance, value, claimed)
        if span is not None:
            claimed.append(span)
            triples += [(dom, slot, value) for dom, slot in sorted(pairs[value])]
    return triples


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


def oracle_bleu_counts(hypothesis: list, reference: list) -> list:
    """One pair's [1, clipped 1..4-gram counts, totals, hyp length, ref length] from slices."""
    clipped, totals = [], []
    for n in range(1, 5):
        hyp_ngrams = [tuple(hypothesis[i:i + n]) for i in range(len(hypothesis) - n + 1)]
        ref_ngrams = [tuple(reference[i:i + n]) for i in range(len(reference) - n + 1)]
        totals.append(len(hyp_ngrams))
        clipped.append(sum(min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
                           for gram in set(hyp_ngrams)))
    return [1, *clipped, *totals, len(hypothesis), len(reference)]


def oracle_meteor(hypothesis: list, reference: list) -> float:
    """Simplified METEOR x100 from the definition (alpha 0.9, beta 3, gamma 0.5).

    Greedy left-to-right unigram alignment, first on exact tokens, then on
    suffix-stripped stems of every pair still unaligned; chunks are maximal
    runs contiguous in both sentences.
    """
    def stem(token):
        for suffix in ("ingly", "edly", "ing", "ed", "es", "ly", "s"):
            if token.endswith(suffix) and len(token) - len(suffix) >= 3:
                return token[: -len(suffix)]
        return token

    pairs = []
    for key in (lambda t: t, stem):
        for i, h in enumerate(hypothesis):
            if any(i == a for a, _ in pairs):
                continue
            for j, r in enumerate(reference):
                if all(j != b for _, b in pairs) and key(h) == key(r):
                    pairs.append((i, j))
                    break
    if not pairs:
        return 0.0
    m = len(pairs)
    p, r = m / len(hypothesis), m / len(reference)
    f_mean = p * r / (0.9 * p + (1 - 0.9) * r)
    pairs.sort()
    chunks = 1 + sum(1 for (h0, r0), (h1, r1) in zip(pairs, pairs[1:])
                     if (h1, r1) != (h0 + 1, r0 + 1))
    return 100.0 * f_mean * (1.0 - 0.5 * (chunks / m) ** 3.0)


def oracle_lcs_length(a, b) -> int:
    """LCS length of two strings or token lists by the full dynamic-programming matrix."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(hypothesis: list, reference: list) -> float:
    """Sentence-level ROUGE-L x100 (beta 1.2) from the full-matrix LCS."""
    lcs = oracle_lcs_length(hypothesis, reference)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hypothesis), lcs / len(reference)
    beta_sq = 1.2 ** 2
    return 100.0 * (1 + beta_sq) * p * r / (r + beta_sq * p)


def oracle_match_entity(entities: list, ruk_value: str, floor: float,
                        fields: tuple = ("name", "id")) -> str | None:
    """Id of the entity whose best ``fields`` score against ``ruk_value`` is highest.

    Every field of every entity is scored with :func:`lcs_ratio_oracle`; ties
    go to the lowest id, and a best score below ``floor`` gives None.
    """
    scored = [(max(lcs_ratio_oracle(ruk_value, getattr(ent, f)) for f in fields), ent.id)
              for ent in entities]
    if not scored:
        return None
    best = max(score for score, _ in scored)
    if best < floor:
        return None
    return min(ent_id for score, ent_id in scored if score == best)


def oracle_inform_success(outs: list, goal, kb) -> tuple:
    """(informed, succeeded) of one dialog's outputs, written from the definition."""
    from seknow.pipeline import active_domain

    ok_inform = ok_success = True
    for dom, dgoal in goal.items():
        if dgoal.constraints:
            satisfying = set(oracle_filter_entities(kb.domains[dom].entities,
                                                    dgoal.constraints))
            offered = [out for out in outs if "[name]" in out.delexicalized_response
                       and dom in out.query]
            if not any(set(out.query[dom]) & satisfying
                       for out in offered):
                ok_inform = False
        for slot in dgoal.requestables:
            if not any(f"[{slot}]" in out.delexicalized_response for out in outs
                       if active_domain(out.belief) == dom):
                ok_success = False
    return ok_inform, ok_inform and ok_success


def oracle_joint_goal(pred, gold) -> bool:
    """Joint goal from its definition: the sets of non-ruk (domain, slot, value) triples
    are equal."""
    def goal(state):
        return {(domain, slot, value) for domain, slot, value in state.triples if slot != "ruk"}
    return goal(pred) == goal(gold)


def oracle_ruk(state):
    """The ruk triple from its definition: the first triple, in canonical order, whose
    slot is ruk; None without one."""
    for domain, slot, value in state.triples:
        if slot == "ruk":
            return domain, slot, value
    return None


def oracle_domains(state) -> list:
    """Each domain of a triple, once, in order of its first triple."""
    domains = []
    for domain, _, _ in state.triples:
        if domain not in domains:
            domains.append(domain)
    return domains


def oracle_constraints(state) -> list:
    """The non-ruk triples grouped from their definition: (domain, [(slot, value), ...])
    for each domain with a non-ruk triple, domains and slots in triple order."""
    return [(domain, [(s, v) for d, s, v in state.triples if d == domain and s != "ruk"])
            for domain in oracle_domains(state)
            if any(d == domain and s != "ruk" for d, s, _ in state.triples)]


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def extended_prf(preds: list, golds: list) -> dict:
    """Precision/recall/F1 (fractions, undefined reports 0) of the ruk triple and the
    topic: a ruk is correct when its (domain, value) equals the gold one, a topic its
    token set."""
    if len(preds) != len(golds):
        raise EvaluationError(
            f"prediction/gold length mismatch ({len(preds)} vs {len(golds)})")

    def prf(correct, predicted, gold):
        p = correct / predicted if predicted else 0.0
        r = correct / gold if gold else 0.0
        return PRF(p, r, 2 * p * r / (p + r) if p + r else 0.0)

    rukes = [(oracle_ruk(p), oracle_ruk(g)) for p, g in zip(preds, golds)]
    return {
        "ruk": prf(sum(p is not None and g is not None
                       and (p[0], p[2]) == (g[0], g[2]) for p, g in rukes),
                   sum(p is not None for p, _ in rukes), sum(g is not None for _, g in rukes)),
        "topic": prf(sum(bool(p.topic) and bool(g.topic) and set(p.topic) == set(g.topic)
                         for p, g in zip(preds, golds)),
                     sum(bool(p.topic) for p in preds), sum(bool(g.topic) for g in golds)),
    }


def oracle_evaluate(corpus, kb, index, predictor: str, generator=None, goals=None):
    """Three-pass reference for ``evaluate_corpus``.

    Runs every dialog and keeps all outputs, builds corpus-wide lists of
    predictions, golds, rankings and token lists, scores BLEU from the summed
    :func:`oracle_bleu_counts`, METEOR with :func:`oracle_meteor`, ROUGE-L with
    :func:`oracle_rouge_l`, P/R/F1 with :func:`extended_prf` and retrieval with
    ``retrieval_metrics``, scores Joint Goal with :func:`oracle_joint_goal`, and
    walks all outputs once more for Inform and Success, written from the definition.
    """
    from seknow import belief, metrics
    from seknow.pipeline import make_template_generator

    factory = metrics.PREDICTORS[predictor](kb, index)
    generator = generator or make_template_generator()
    if goals is None:
        goals = {d.dialog_id: d.goal for d in corpus.dialogs}
    outputs = {d.dialog_id: metrics.run_dialog(d, factory, generator, kb, index)
               for d in corpus.dialogs}
    hyps, refs, preds, golds, joint, rankings, gold_docs = [], [], [], [], [], [], []
    for dialog in corpus.dialogs:
        for turn, out in zip(dialog.turns, outputs[dialog.dialog_id]):
            gold = belief.parse_belief_span(turn.gold_belief_span)
            preds.append(out.belief)
            golds.append(gold)
            if turn.doc_annotation is None:
                joint.append(oracle_joint_goal(out.belief, gold))
            else:
                rankings.append([doc.key for doc in out.ranking])
                gold_docs.append(turn.doc_annotation)
            hyps.append(out.delexicalized_response.split())
            refs.append((turn.response if turn.delex_response is None
                         else turn.delex_response).split())
    pairs = list(zip(hyps, refs))
    stats = [0] * 11
    for h, r in pairs:
        stats = [a + b for a, b in zip(stats, oracle_bleu_counts(h, r))]
    bleu = metrics._bleu_score(stats)
    meteor = math.fsum(oracle_meteor(h, r) for h, r in pairs) / len(pairs)
    rouge = math.fsum(oracle_rouge_l(h, r) for h, r in pairs) / len(pairs)
    # MRR@5: the mean of 1 / rank of the gold document when it ranks in the top five, else 0;
    # R@1: the share of turns whose top document is the gold one
    reciprocals = [1.0 / (ranking.index(gold) + 1) if gold in ranking[:5] else 0.0
                   for ranking, gold in zip(rankings, gold_docs)]
    hits = [bool(ranking) and ranking[0] == gold for ranking, gold in zip(rankings, gold_docs)]
    mrr5 = 100.0 * math.fsum(reciprocals) / len(rankings) if rankings else 0.0
    r1 = 100.0 * sum(hits) / len(rankings) if rankings else 0.0
    prf = extended_prf(preds, golds)

    informed = succeeded = judged = 0
    for dialog in corpus.dialogs:
        goal = goals.get(dialog.dialog_id)
        if not goal:
            continue
        judged += 1
        ok_inform, ok_success = oracle_inform_success(outputs[dialog.dialog_id], goal, kb)
        informed += ok_inform
        succeeded += ok_success
    inform = 100.0 * informed / judged if judged else 0.0
    success = 100.0 * succeeded / judged if judged else 0.0
    return metrics.MetricsReport(
        joint_goal=100.0 * sum(joint) / len(joint) if joint else 0.0,
        inform=inform, success=success, bleu=bleu, meteor=meteor, rouge_l=rouge,
        combined=(inform + success) * 0.5 + bleu, mrr_at_5=mrr5, r_at_1=r1,
        extended_prf=metrics.ExtendedPrf(
            ruk=metrics.PrfReport(*(100.0 * x for x in prf["ruk"])),
            topic=metrics.PrfReport(*(100.0 * x for x in prf["topic"]))))


_RESERVED = {"{", "}", ",", "=", "||"}
TOPIC_SEPARATOR = "||"


class _Tokens:
    """Whitespace tokens of a span with their byte offsets."""

    def __init__(self, text: str):
        self.items = [(m.group(0), len(text[:m.start()].encode("utf-8")))
                      for m in re.finditer(r"\S+", text)]
        self.pos = 0
        self.end_offset = len(text.encode("utf-8"))

    def peek(self) -> str | None:
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def offset(self) -> int:
        return self.items[self.pos][1] if self.pos < len(self.items) else self.end_offset

    def take(self) -> str:
        token = self.items[self.pos][0]
        self.pos += 1
        return token


def _take_words(toks: _Tokens, stop: set[str], what: str) -> str:
    words = []
    while toks.peek() is not None and toks.peek() not in _RESERVED:
        words.append(toks.take())
    if not words:
        found = toks.peek()
        raise ParseError(f"empty {what}" if found in stop or found is None
                         else f"expected {what}, found {found!r}", toks.offset())
    return " ".join(words)


def oracle_parse_belief_span(text: str):
    """Belief-span parser over a token cursor that records every token's byte offset."""
    toks = _Tokens(text)
    triples: list[tuple[str, str, str]] = []
    topic: list[str] = []
    while toks.peek() is not None and toks.peek() != TOPIC_SEPARATOR:
        domain = _take_words(toks, {"{"}, "domain name")
        if toks.peek() != "{":
            raise ParseError(f"expected '{{' after domain {domain!r}", toks.offset())
        toks.take()
        if toks.peek() == "}":  # block := DOMAIN '{' pair (',' pair)* '}'
            raise ParseError("expected slot name, found '}'", toks.offset())
        while toks.peek() != "}":
            if toks.peek() is None:
                raise ParseError("unbalanced braces: missing '}'", toks.offset())
            slot = _take_words(toks, {"="}, "slot name")
            if toks.peek() != "=":
                raise ParseError(f"missing '=' after slot {slot!r}", toks.offset())
            toks.take()
            value = _take_words(toks, {",", "}"}, "value")
            triples.append((domain, slot, value))
            if toks.peek() == ",":
                toks.take()
                if toks.peek() == "}":
                    raise ParseError("trailing ',' before '}'", toks.offset())
        toks.take()
    if toks.peek() == TOPIC_SEPARATOR:
        toks.take()
        if toks.peek() is None:
            raise ParseError("empty topic segment", toks.offset())
        while toks.peek() is not None:
            if toks.peek() in _RESERVED:
                raise ParseError(f"reserved token {toks.peek()!r} in topic", toks.offset())
            topic.append(toks.take())
    return _oracle_canonical_state(triples, topic, toks.end_offset)


def _oracle_normalize(text: str) -> str:
    return " ".join(text.lower().split())


def _oracle_canonical_state(triples: list, topic: list, end_offset: int):
    """Canonical state from the definition: each field normalized, a repeated (domain,
    slot) keeps its last value, domains in first-mention order, slots sorted with ruk last."""
    triples = [tuple(map(_oracle_normalize, t)) for t in triples]
    domains = []
    for domain, _, _ in triples:
        if domain not in domains:
            domains.append(domain)
    ordered = []
    for domain in domains:
        values = {slot: value for d, slot, value in triples if d == domain}
        slots = sorted(s for s in values if s != "ruk") + (["ruk"] if "ruk" in values else [])
        ordered += [(domain, slot, values[slot]) for slot in slots]
    if topic and not any(slot == "ruk" for _, slot, _ in ordered):
        raise ParseError("a topic requires a ruk triple", end_offset)
    return ExtendedBeliefState(tuple(ordered), tuple(map(_oracle_normalize, topic)))
