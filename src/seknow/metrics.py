"""Metric suite and corpus-level evaluation driver.

Generation metrics: corpus-level BLEU-4 (uniform weights, standard brevity
penalty, no smoothing), sentence-level ROUGE-L with beta = 1.2 averaged over
pairs, and a simplified METEOR (exact + suffix-stripping stem matches, no
synonym module) with alpha = 0.9, beta = 3.0, gamma = 0.5. Task metrics:
Inform / Success over dialog goals, Joint Goal accuracy over original turns,
MRR@5 and R@1 over knowledge-seeking turns, and P/R/F1 of the belief state
extension. Everything is reported on the 0-100 percent scale; the combined
score is ``(inform + success) * 0.5 + bleu``.

The three generation metrics of a pair are one pass over one coding of its
tokens (:func:`_pair_scores`); nothing is kept from one pair to the next.
ROUGE-L's LCS is bounded by METEOR's exact pair count; when those pairs are
in order in both sentences they are a common subsequence, so the LCS is that
count, and only otherwise does the packed LCS pass run.

:func:`evaluate_corpus` takes a corpus and goals the loaders have checked
against the knowledge base and index (:func:`seknow.corpus.load_corpus`). It
scores each dialog as it finishes and keeps only per-metric counts and scores
(per-turn METEOR and ROUGE-L), not turn outputs. An oracle eval parses each
gold span once: its predictor and the scoring share the last dialog's states.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache
from operator import add

from .belief import ExtendedBeliefState, joint_goal_match, parse_belief_span, prf_counts
from .corpus import Dialog, DialogCorpus, DomainGoal
from .errors import ConfigError, EvaluationError, MetricError
from .kb import KnowledgeBase
from .knowops import lcs_length
from .pipeline import (
    Generator,
    Predictor,
    Session,
    TurnOutput,
    active_domain,
    make_heuristic_predictor,
    make_oracle_predictor,
    run_turn,
)
from .topics import TopicIndex

ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5
MRR_CUTOFF = 5
_STEM_SUFFIXES = ("ingly", "edly", "ing", "ed", "es", "ly", "s")


@dataclass(frozen=True)
class PrfReport:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, correct: int, predicted: int, gold: int) -> PrfReport:
        """Percent P/R/F1 (undefined reports 0): the fractions, each times 100."""
        p = correct / predicted if predicted else 0.0
        r = correct / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(100.0 * p, 100.0 * r, 100.0 * f1)


@dataclass(frozen=True)
class ExtendedPrf:
    ruk: PrfReport
    topic: PrfReport


@dataclass(frozen=True)
class MetricsReport:
    joint_goal: float
    inform: float
    success: float
    bleu: float
    meteor: float
    rouge_l: float
    combined: float
    mrr_at_5: float
    r_at_1: float
    extended_prf: ExtendedPrf

    def to_dict(self) -> dict:
        """Every field by name, in field order, each number rounded to 4 places."""
        data = {name: round(value, 4) for name, value in vars(self).items()
                if name != "extended_prf"}
        data["extended_prf"] = {name: {k: round(v, 4) for k, v in vars(prf).items()}
                                for name, prf in vars(self.extended_prf).items()}
        return data


@lru_cache(maxsize=1 << 16)
def _stem(token: str) -> str:
    """Strip the first of :data:`_STEM_SUFFIXES` the token ends with, keeping 3 characters;
    memoized, so each distinct token of a vocabulary is stemmed once."""
    for suffix in _STEM_SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _pair_scores(hypothesis: Sequence[str],
                 reference: Sequence[str]) -> tuple[list[int], float, float]:
    """One pair's BLEU statistics, METEOR and ROUGE-L, all read from one coding of
    its tokens as small ints; an empty reference scores METEOR and ROUGE-L 0.

    BLEU statistics: pairs (1), clipped and total 1..4-gram counts, hypothesis
    and reference lengths; corpus BLEU pools their sums. METEOR pairs each
    hypothesis token, left to right, with the leftmost free reference token
    equal to it (one stack of free positions per code), then each one left
    over with the leftmost free one of equal stem, stemming only tokens still
    free. That exact pass pairs ``min(h_x, r_x)`` of each token ``x``: BLEU's
    clipped unigram count. A longer order's clipped count is the size of the
    gram-set intersection (an n-gram is one int ``prev * vocab + code``), plus
    ``min(counts) - 1`` for each shared gram repeated on both sides, counted
    only when both sides repeat some gram; an order with no shared gram ends
    the count, since every longer gram contains one.

    ROUGE-L's LCS (Lin 2004) is a chain of pairs of equal tokens, increasing in
    both sentences (Hunt & Szymanski 1977), so it uses token ``x`` at most
    ``min(h_x, r_x)`` times: the exact pair count bounds it. The exact pass
    tracks whether its reference positions increase; if they do, its pairs are
    such a chain and the LCS is the count. Otherwise the LCS is one packed pass
    over the two code lists (:func:`~seknow.knowops.lcs_length`).
    """
    codes: dict[str, int] = {}
    hyp = [codes.setdefault(t, len(codes)) for t in hypothesis]
    ref = [codes.setdefault(t, len(codes)) for t in reference]
    vocab, hyp_len, ref_len = len(codes), len(hyp), len(ref)

    free: list[list[int]] = [[] for _ in range(vocab)]
    for j in range(ref_len - 1, -1, -1):
        free[ref[j]].append(j)
    pairs, unaligned = [], []
    last = -1  # the last exact pair's reference position; ref_len once one decreases
    for i, code in enumerate(hyp):
        stack = free[code]
        if stack:
            j = stack.pop()
            pairs.append((i, j))
            last = j if j > last else ref_len
        else:
            unaligned.append(i)
    exact = len(pairs)
    if unaligned and exact < ref_len:
        tokens = list(codes)
        by_stem: dict[str, list[int]] = {}
        for token, stack in zip(tokens, free):
            if stack:
                by_stem.setdefault(_stem(token), []).extend(stack)
        for stack in by_stem.values():
            stack.sort(reverse=True)
        for i in unaligned:
            stack = by_stem.get(_stem(tokens[hyp[i]]))
            if stack:
                pairs.append((i, stack.pop()))
        pairs.sort()

    clipped = [exact, 0, 0, 0]
    hyp_grams, ref_grams = hyp, ref
    for n in range(1, 4 if exact else 1):
        hyp_grams = [g * vocab + t for g, t in zip(hyp_grams, hyp[n:])]
        ref_grams = [g * vocab + t for g, t in zip(ref_grams, ref[n:])]
        hyp_set, ref_set = set(hyp_grams), set(ref_grams)
        common = hyp_set & ref_set
        if not common:
            break
        clipped[n] = len(common)
        if len(hyp_set) < len(hyp_grams) and len(ref_set) < len(ref_grams):
            hyp_count, ref_count = Counter(hyp_grams), Counter(ref_grams)
            for g in common:
                h, r = hyp_count[g], ref_count[g]
                if h > 1 and r > 1:
                    clipped[n] += min(h, r) - 1
    stats = [1, *clipped, *(max(hyp_len - n, 0) for n in range(4)), hyp_len, ref_len]

    meteor = rouge = 0.0
    m = len(pairs)
    if m:
        p, r = m / hyp_len, m / ref_len
        f_mean = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
        chunks = 1
        for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]):
            if h1 != h0 + 1 or r1 != r0 + 1:
                chunks += 1
        meteor = 100.0 * f_mean * (1.0 - METEOR_GAMMA * (chunks / m) ** METEOR_BETA)
    if exact:  # a common token, so a nonzero LCS
        lcs = exact if last < ref_len else lcs_length(hyp, ref)
        p, r = lcs / hyp_len, lcs / ref_len
        beta_sq = ROUGE_BETA ** 2
        rouge = 100.0 * (1 + beta_sq) * p * r / (r + beta_sq * p)
    return stats, meteor, rouge


def _bleu_score(stats: Sequence[int]) -> float:
    """Corpus BLEU-4 from the summed statistics of :func:`_pair_scores`."""
    if not stats[0]:
        raise MetricError("BLEU needs at least one hypothesis/reference pair")
    clipped, totals, (hyp_len, ref_len) = stats[1:5], stats[5:9], stats[9:]
    if any(t == 0 or c == 0 for c, t in zip(clipped, totals)):
        return 0.0
    log_precision = sum(0.25 * math.log(c / t) for c, t in zip(clipped, totals))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def bleu(hypotheses: Sequence[Sequence[str]],
         references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU-4 on the 0-100 scale.

    Uniform 1/4 weights over 1..4-gram precisions, clipped counts pooled
    over the corpus, standard brevity penalty, and no smoothing: a zero
    n-gram precision zeroes the whole score.
    """
    if len(hypotheses) != len(references):
        raise MetricError("BLEU needs aligned hypothesis/reference lists")
    stats = [0] * 11
    for hyp, ref in zip(hypotheses, references):
        stats = [a + b for a, b in zip(stats, _pair_scores(hyp, ref)[0], strict=True)]
    return _bleu_score(stats)


def rouge_l(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Sentence-level ROUGE-L F-measure (recall-weighted, beta = 1.2), x100."""
    if not reference:
        raise MetricError("ROUGE-L needs a nonempty reference")
    return _pair_scores(hypothesis, reference)[2]


def meteor_simplified(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Simplified METEOR, x100: exact then stem unigram matches, no synonyms.

    ``F_mean = P * R / (alpha * P + (1 - alpha) * R)`` and the fragmentation
    penalty is ``gamma * (chunks / matches) ** beta``; chunks are maximal
    runs of matches contiguous in both sentences. The alignment is
    :func:`_pair_scores`'s.
    """
    if not reference:
        raise MetricError("METEOR needs a nonempty reference")
    return _pair_scores(hypothesis, reference)[1]


def retrieval_metrics(rankings: Sequence[Sequence], golds: Sequence) -> tuple[float, float]:
    """(MRR@5, R@1) over knowledge-seeking turns, x100.

    Each ranking is the ordered document keys a turn produced; its gold key
    must be present in the corpus annotation. A turn whose ranking is None
    is an evaluation error (an empty ranking simply scores zero).
    """
    if len(rankings) != len(golds):
        raise EvaluationError("rankings and gold ids must align")
    if not rankings:
        raise EvaluationError("no knowledge-seeking turns to evaluate")
    reciprocals = []
    top1 = 0
    for ranking, gold in zip(rankings, golds):
        if ranking is None:
            raise EvaluationError("turn is missing its document ranking")
        head = list(ranking)[:MRR_CUTOFF]
        if gold in head:
            rank = head.index(gold) + 1
            reciprocals.append(1.0 / rank)
            top1 += rank == 1
    n = len(rankings)
    return 100.0 * math.fsum(reciprocals) / n, 100.0 * top1 / n


def combined_score(inform: float, success: float, bleu_score: float) -> float:
    """Overall score ``(inform + success) * 0.5 + bleu`` (percent scale)."""
    return (inform + success) * 0.5 + bleu_score


def round_half_up(value: float) -> float:
    """Decimal half-up rounding to one decimal, as reports print (0.05 rounds to 0.1)."""
    return float(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def inform_success(outputs: Sequence[TurnOutput], goal: Mapping[str, DomainGoal],
                   kb: KnowledgeBase) -> tuple[bool, bool]:
    """Whether one dialog informs and succeeds on a goal already checked against the KB.

    A goal domain is informed when some turn offers ``[name]`` while its
    matched-entity set intersects the entities satisfying the goal
    constraints (domains without constraints need no entity offer). A
    dialog succeeds when it is informed and every requestable slot's
    placeholder appears in some response attributed to that domain.
    """
    informed = succeeded = True
    for dom_name, dgoal in goal.items():
        if dgoal.constraints:
            satisfying = {e.id for e in kb.domains[dom_name].matching(dgoal.constraints)}
            informed = informed and any(
                "[name]" in out.delexicalized_response
                and not satisfying.isdisjoint(out.query.get(dom_name, ()))
                for out in outputs)
        domain_responses = [out.delexicalized_response for out in outputs
                            if active_domain(out.belief) == dom_name]
        succeeded = succeeded and all(any(f"[{slot}]" in resp for resp in domain_responses)
                                      for slot in dgoal.requestables)
    return informed, informed and succeeded


PredictorFactory = Callable[[Dialog], Predictor]

_last_gold: tuple = (None, ())  # (dialog, its gold states), replaced whole by one assignment


def _gold_states(dialog: Dialog) -> tuple[ExtendedBeliefState, ...]:
    """Parsed gold states of ``dialog``; the last dialog's are kept, matched by identity."""
    global _last_gold
    last = _last_gold
    if last[0] is not dialog:
        _last_gold = last = (dialog, tuple(parse_belief_span(t.gold_belief_span)
                                           for t in dialog.turns))
    return last[1]


def oracle_factory(dialog: Dialog) -> Predictor:
    return make_oracle_predictor(_gold_states(dialog))


def heuristic_factory(kb: KnowledgeBase, index: TopicIndex) -> PredictorFactory:
    predictor = make_heuristic_predictor(kb, index)
    return lambda dialog: predictor


# Predictor name -> (kb, index) -> factory; its keys are the CLI's --predictor choices.
PREDICTORS: dict[str, Callable[[KnowledgeBase, TopicIndex], PredictorFactory]] = {
    "oracle": lambda kb, index: oracle_factory,
    "heuristic": heuristic_factory,
}


def run_dialog(dialog: Dialog, factory: PredictorFactory, generator: Generator,
               kb: KnowledgeBase, index: TopicIndex) -> list[TurnOutput]:
    """Run every turn of one dialog through a fresh session, in order.

    A turn that raises fails the dialog as one ``EvaluationError``,
    ``dialog '<id>': turn <k>: <detail>``.
    """
    session = Session()
    predictor = factory(dialog)
    outputs = []
    for k, turn in enumerate(dialog.turns):
        try:
            outputs.append(run_turn(session, turn.user, predictor, generator, kb, index))
        except Exception as exc:
            raise EvaluationError(f"dialog {dialog.dialog_id!r}: turn {k}: {exc}") from exc
    return outputs


def evaluate_corpus(corpus: DialogCorpus, kb: KnowledgeBase, index: TopicIndex,
                    predictor: PredictorFactory, generator: Generator,
                    goals: Mapping[str, Mapping[str, DomainGoal]] | None = None,
                    workers: int = 1) -> MetricsReport:
    """Run the full pipeline over a corpus and compute every metric.

    The corpus and ``goals`` must be as the loaders return them, checked
    against ``kb`` and ``index``; without ``goals`` each dialog's own goal is
    judged. ``predictor`` maps a dialog to a per-turn predictor, as a
    :data:`PREDICTORS` entry builds it. Dialogs run in corpus order in the
    calling thread. ``workers`` must be at least 1 and changes nothing else;
    only ``benchmarks/workload.py`` passes it.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if goals is None:
        goals = {d.dialog_id: d.goal for d in corpus.dialogs}

    bleu_stats = [0] * 11
    prf = [0] * 6
    meteors: list[float] = []
    rouges: list[float] = []
    joint_hits = joint_turns = 0
    rankings: list[tuple] = []
    gold_docs: list[tuple] = []
    judged: list[tuple[bool, bool]] = []
    for dialog in corpus.dialogs:
        outputs = run_dialog(dialog, predictor, generator, kb, index)
        for turn, out, gold in zip(dialog.turns, outputs, _gold_states(dialog)):
            prf[:] = map(add, prf, prf_counts(out.belief, gold))
            if turn.doc_annotation is None:
                joint_turns += 1
                joint_hits += joint_goal_match(out.belief, gold)
            else:
                rankings.append(tuple(doc.key for doc in out.ranking[:MRR_CUTOFF]))
                gold_docs.append(turn.doc_annotation)
            ref = turn.reference.split()
            if not ref:
                raise MetricError("METEOR needs a nonempty reference")
            stats, meteor, rouge = _pair_scores(out.delexicalized_response.split(), ref)
            bleu_stats[:] = map(add, bleu_stats, stats)
            meteors.append(meteor)
            rouges.append(rouge)
        goal = goals.get(dialog.dialog_id)
        if goal:
            judged.append(inform_success(outputs, goal, kb))

    bleu_score = _bleu_score(bleu_stats)
    joint = 100.0 * joint_hits / joint_turns if joint_turns else 0.0
    # fsum keeps the means exactly invariant under dialog reordering
    meteor = math.fsum(meteors) / len(meteors)
    rouge = math.fsum(rouges) / len(rouges)
    mrr5, r1 = retrieval_metrics(rankings, gold_docs) if rankings else (0.0, 0.0)
    n = len(judged)
    inform = 100.0 * sum(i for i, _ in judged) / n if n else 0.0
    success = 100.0 * sum(s for _, s in judged) / n if n else 0.0
    return MetricsReport(
        joint_goal=joint,
        inform=inform,
        success=success,
        bleu=bleu_score,
        meteor=meteor,
        rouge_l=rouge,
        combined=combined_score(inform, success, bleu_score),
        mrr_at_5=mrr5,
        r_at_1=r1,
        extended_prf=ExtendedPrf(ruk=PrfReport.from_counts(*prf[:3]),
                                 topic=PrfReport.from_counts(*prf[3:])),
    )
