"""Metric suite and corpus-level evaluation driver.

Generation metrics: corpus-level BLEU-4 (uniform weights, standard brevity
penalty, no smoothing), sentence-level ROUGE-L with beta = 1.2 averaged over
pairs, and a simplified METEOR (exact + suffix-stripping stem matches, no
synonym module) with alpha = 0.9, beta = 3.0, gamma = 0.5. Task metrics:
Inform / Success over dialog goals, Joint Goal accuracy over original turns,
MRR@5 and R@1 over knowledge-seeking turns, and P/R/F1 of the belief state
extension. Everything is reported on the 0-100 percent scale; the combined
score is ``(inform + success) * 0.5 + bleu``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal

from .belief import ExtendedBeliefState, extended_prf, joint_goal_match, parse_belief_span
from .corpus import Dialog, DialogCorpus, GoalSpec
from .errors import ConfigError, EvaluationError, MetricError
from .kb import KnowledgeBase
from .knowops import entity_matches, lcs_length
from .pipeline import (
    Generator,
    Predictor,
    Session,
    TurnOutput,
    active_domain,
    make_heuristic_predictor,
    make_oracle_predictor,
    make_template_generator,
    run_turn,
)
from .topics import TopicIndex

ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5
_STEM_SUFFIXES = ("ingly", "edly", "ing", "ed", "es", "ly", "s")


@dataclass(frozen=True)
class PrfReport:
    precision: float
    recall: float
    f1: float


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
        data = asdict(self)
        return _round_floats(data)


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: Sequence[Sequence[str]],
         references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU-4 on the 0-100 scale.

    Uniform 1/4 weights over 1..4-gram precisions, clipped counts pooled
    over the corpus, standard brevity penalty, and no smoothing: a zero
    n-gram precision zeroes the whole score.
    """
    if not hypotheses:
        raise MetricError("BLEU needs at least one hypothesis/reference pair")
    if len(hypotheses) != len(references):
        raise MetricError("BLEU needs aligned hypothesis/reference lists")
    clipped = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            counts = _ngrams(hyp, n)
            refcounts = _ngrams(ref, n)
            totals[n - 1] += sum(counts.values())
            clipped[n - 1] += sum(min(c, refcounts[g]) for g, c in counts.items())
    if any(t == 0 or c == 0 for c, t in zip(clipped, totals)):
        return 0.0
    log_precision = sum(0.25 * math.log(c / t) for c, t in zip(clipped, totals))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def rouge_l(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Sentence-level ROUGE-L F-measure (recall-weighted, beta = 1.2), x100."""
    if not reference:
        raise MetricError("ROUGE-L needs a nonempty reference")
    lcs = lcs_length(hypothesis, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(hypothesis)
    r = lcs / len(reference)
    beta_sq = ROUGE_BETA ** 2
    return 100.0 * (1 + beta_sq) * p * r / (r + beta_sq * p)


def _stem(token: str) -> str:
    for suffix in _STEM_SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def _align(hypothesis: Sequence[str], reference: Sequence[str],
           key: Callable[[str], str], taken_h: set, taken_r: set) -> list[tuple[int, int]]:
    pairs = []
    for i, h in enumerate(hypothesis):
        if i in taken_h:
            continue
        for j, r in enumerate(reference):
            if j in taken_r:
                continue
            if key(h) == key(r):
                pairs.append((i, j))
                taken_h.add(i)
                taken_r.add(j)
                break
    return pairs


def meteor_simplified(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Simplified METEOR, x100: exact then stem unigram matches, no synonyms.

    ``F_mean = P * R / (alpha * P + (1 - alpha) * R)`` and the fragmentation
    penalty is ``gamma * (chunks / matches) ** beta``; chunks are maximal
    runs of matches contiguous in both sentences.
    """
    if not reference:
        raise MetricError("METEOR needs a nonempty reference")
    if not hypothesis:
        return 0.0
    taken_h: set[int] = set()
    taken_r: set[int] = set()
    pairs = _align(hypothesis, reference, lambda t: t, taken_h, taken_r)
    pairs += _align(hypothesis, reference, _stem, taken_h, taken_r)
    m = len(pairs)
    if m == 0:
        return 0.0
    p = m / len(hypothesis)
    r = m / len(reference)
    f_mean = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
    pairs.sort()
    chunks = 1
    for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]):
        if h1 != h0 + 1 or r1 != r0 + 1:
            chunks += 1
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return 100.0 * f_mean * (1.0 - penalty)


def retrieval_metrics(rankings: Sequence[Sequence], golds: Sequence,
                      cutoff: int = 5) -> tuple[float, float]:
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
        head = list(ranking)[:cutoff]
        if gold in head:
            rank = head.index(gold) + 1
            reciprocals.append(1.0 / rank)
            top1 += rank == 1
    n = len(rankings)
    return 100.0 * math.fsum(reciprocals) / n, 100.0 * top1 / n


def combined_score(inform: float, success: float, bleu_score: float) -> float:
    """Overall score ``(inform + success) * 0.5 + bleu`` (percent scale)."""
    return (inform + success) * 0.5 + bleu_score


def round_half_up(value: float, ndigits: int = 1) -> float:
    """Decimal half-up rounding for reporting (0.05 rounds to 0.1)."""
    exponent = Decimal(1).scaleb(-ndigits)
    return float(Decimal(str(value)).quantize(exponent, rounding=ROUND_HALF_UP))


def inform_success(results: Mapping[str, Sequence[TurnOutput]],
                   goals: Mapping[str, GoalSpec],
                   kb: KnowledgeBase) -> tuple[float, float]:
    """Dialog-level Inform and Success rates, x100.

    A goal domain is informed when some turn offers ``[name]`` while its
    matched-entity set intersects the entities satisfying the goal
    constraints (domains without constraints need no entity offer). A
    dialog succeeds when it is informed and every requestable slot's
    placeholder appears in some response attributed to that domain.
    """
    informed_dialogs = 0
    successful_dialogs = 0
    n = 0
    for dialog_id, outputs in results.items():
        goal = goals.get(dialog_id)
        if goal is None or not goal.domains:
            continue
        n += 1
        informed = True
        succeeded = True
        for dom_name, dgoal in goal.domains.items():
            try:
                domain = kb.domain(dom_name)
            except Exception as exc:
                raise EvaluationError(
                    f"goal of dialog '{dialog_id}' references unknown domain "
                    f"'{dom_name}'") from exc
            for slot in dgoal.constraints:
                if slot not in domain.slot_schema:
                    raise EvaluationError(
                        f"goal of dialog '{dialog_id}' uses slot '{slot}' outside "
                        f"the schema of domain '{dom_name}'")
            if dgoal.constraints:
                satisfying = {e.id for e in domain.entities
                              if entity_matches(e, dgoal.constraints)}
                informed_here = any(
                    "[name]" in out.delexicalized_response
                    and dom_name in out.query.per_domain
                    and set(out.query.per_domain[dom_name].entity_ids) & satisfying
                    for out in outputs)
            else:
                informed_here = True
            informed = informed and informed_here
            domain_responses = [out.delexicalized_response for out in outputs
                                if active_domain(out.belief) == dom_name]
            for requestable in dgoal.requestables:
                if not any(f"[{requestable}]" in resp for resp in domain_responses):
                    succeeded = False
        informed_dialogs += informed
        successful_dialogs += informed and succeeded
    if n == 0:
        return 0.0, 0.0
    return 100.0 * informed_dialogs / n, 100.0 * successful_dialogs / n


PredictorFactory = Callable[[Dialog], Predictor]


def oracle_factory(dialog: Dialog) -> Predictor:
    golds = [parse_belief_span(t.gold_belief_span) for t in dialog.turns]
    return make_oracle_predictor(golds)


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
    """Run every turn of one dialog through a fresh session, in order."""
    session = Session()
    predictor = factory(dialog)
    outputs = []
    for turn in dialog.turns:
        try:
            outputs.append(run_turn(session, turn.user, predictor, generator, kb, index))
        except Exception as exc:
            raise EvaluationError(f"dialog '{dialog.dialog_id}': {exc}") from exc
    return outputs


def evaluate_corpus(corpus: DialogCorpus, kb: KnowledgeBase, index: TopicIndex,
                    predictor: str | PredictorFactory = "oracle",
                    generator: Generator | None = None,
                    goals: Mapping[str, GoalSpec] | None = None,
                    workers: int = 1) -> MetricsReport:
    """Run the full pipeline over a corpus and compute every metric.

    ``predictor`` is a :data:`PREDICTORS` name or a factory mapping a dialog
    to a per-turn predictor. Dialogs run in corpus order in the calling
    thread. ``workers`` must be at least 1 and changes nothing else; it is
    accepted so that existing callers keep working.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if isinstance(predictor, str):
        if predictor not in PREDICTORS:
            raise EvaluationError(f"unknown predictor '{predictor}'")
        predictor = PREDICTORS[predictor](kb, index)
    if generator is None:
        generator = make_template_generator()
    if goals is None:
        goals = {d.dialog_id: d.goal for d in corpus.dialogs}
    for dialog in corpus.dialogs:
        for k, turn in enumerate(dialog.turns):
            if turn.doc_annotation is not None and turn.doc_annotation not in index.entries:
                raise EvaluationError(f"dialog '{dialog.dialog_id}': turn {k}: annotated "
                                      f"document {turn.doc_annotation} is not in the index")

    per_dialog = [run_dialog(d, predictor, generator, kb, index) for d in corpus.dialogs]
    results = {d.dialog_id: outs for d, outs in zip(corpus.dialogs, per_dialog)}

    joint_hits: list[bool] = []
    hyps: list[list[str]] = []
    refs: list[list[str]] = []
    preds: list[ExtendedBeliefState] = []
    golds: list[ExtendedBeliefState] = []
    rankings: list[tuple] = []
    gold_docs: list[tuple] = []
    for dialog, outputs in zip(corpus.dialogs, per_dialog):
        for turn, out in zip(dialog.turns, outputs):
            gold = parse_belief_span(turn.gold_belief_span)
            preds.append(out.belief)
            golds.append(gold)
            if turn.doc_annotation is None:
                joint_hits.append(joint_goal_match(out.belief, gold))
            else:
                rankings.append(tuple(doc.key for doc in out.ranking))
                gold_docs.append(turn.doc_annotation)
            hyps.append(out.delexicalized_response.split())
            reference = turn.delex_response if turn.delex_response is not None \
                else turn.response
            refs.append(reference.split())

    joint = 100.0 * sum(joint_hits) / len(joint_hits) if joint_hits else 0.0
    bleu_score = bleu(hyps, refs)
    # fsum keeps the means exactly invariant under dialog reordering
    meteor = math.fsum(meteor_simplified(h, r) for h, r in zip(hyps, refs)) / len(hyps)
    rouge = math.fsum(rouge_l(h, r) for h, r in zip(hyps, refs)) / len(hyps)
    if rankings:
        mrr5, r1 = retrieval_metrics(rankings, gold_docs)
    else:
        mrr5 = r1 = 0.0
    prf = extended_prf(preds, golds)
    inform, success = inform_success(results, goals, kb)
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
        extended_prf=ExtendedPrf(
            ruk=PrfReport(*(100.0 * x for x in prf["ruk"])),
            topic=PrfReport(*(100.0 * x for x in prf["topic"]))),
    )
