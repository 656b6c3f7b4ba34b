import json
import random

import pytest

from oracles import oracle_bleu, oracle_lcs_tokens
from seknow import (
    CorpusSpec,
    bleu,
    combined_score,
    evaluate_corpus,
    generate_synthetic_corpus,
    inform_success,
    load_corpus,
    meteor_simplified,
    retrieval_metrics,
    rouge_l,
)
from seknow.errors import ConfigError, EvaluationError, MetricError
from seknow.metrics import round_half_up
from seknow.pipeline import TemplateSet, make_template_generator

from conftest import GOLDEN_REPORT_PATH, TOY_CORPUS_PATH

VERBOSE_TEMPLATES = TemplateSet(entries={
    (domain, condition): text
    for domain in ("restaurant", "hotel", "train", "taxi", "general")
    for condition, text in (
        ("offer", "i found {count} options . [name] is a nice choice . "
                  "it is at [address] and the phone number is [phone] ."),
        ("nomatch", "sorry , no match found ."),
        ("doc", "according to our information : {body}"),
    )
})


def toks(*sentences):
    return [s.split() for s in sentences]


def test_bleu_identity():
    sents = toks("i found two nice options for you", "the hotel is in the north area")
    assert bleu(sents, sents) == 100.0


def test_bleu_no_fourgram_overlap_is_zero():
    hyps = toks("a b c d e")
    refs = toks("a b x c d")  # shares trigrams at most
    assert bleu(hyps, refs) == 0.0


def test_bleu_short_sentences_zero():
    assert bleu(toks("a b c"), toks("a b c")) == 0.0  # no 4-grams at all


def test_bleu_matches_hand_computation():
    hyps = toks("the cat sat on the mat")
    refs = toks("the cat sat on a mat")
    # p1=5/6, p2=3/5, p3=2/4, p4=1/3, BP=1
    expected = 100.0 * (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    assert bleu(hyps, refs) == pytest.approx(expected)
    assert bleu(hyps, refs) == pytest.approx(53.728497, abs=1e-4)


def test_bleu_three_pair_corpus_matches_oracle():
    hyps = toks("i found 2 options . pizza hut is a nice choice .",
                "sorry , no match found .",
                "according to our information : good pizza here .")
    refs = toks("i found 2 options . roma is a nice choice .",
                "sorry , i found no match .",
                "according to our information : good pizza in town .")
    assert bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs))


def test_bleu_brevity_penalty_matches_oracle():
    hyps = toks("a b c d")
    refs = toks("a b c d e f g")
    assert bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs))
    assert bleu(hyps, refs) < 100.0 * (1.0) ** 0.25  # penalized


def test_bleu_empty_corpus_errors():
    with pytest.raises(MetricError):
        bleu([], [])


def test_rouge_identity():
    assert rouge_l("the cat sat".split(), "the cat sat".split()) == 100.0


def test_rouge_disjoint():
    assert rouge_l("aa bb".split(), "cc dd".split()) == 0.0


def test_rouge_hand_case():
    # LCS("the cat sat", "the cat ran") = 2, P = R = 2/3, so F = 2/3
    assert rouge_l("the cat sat".split(), "the cat ran".split()) == \
        pytest.approx(100.0 * 2 / 3)


def test_rouge_uses_token_lcs():
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        lcs = oracle_lcs_tokens(hyp, ref)
        got = rouge_l(hyp, ref)
        if lcs == 0:
            assert got == 0.0
        else:
            p, r = lcs / len(hyp), lcs / len(ref)
            assert got == pytest.approx(100.0 * (1 + 1.44) * p * r / (r + 1.44 * p))


def test_rouge_empty_reference_errors():
    with pytest.raises(MetricError):
        rouge_l("a".split(), [])


def test_meteor_identity_value():
    sent = "the cat sat on the mat".split()
    m = len(sent)
    expected = 100.0 * (1 - 0.5 * (1 / m) ** 3)
    assert meteor_simplified(sent, sent) == pytest.approx(expected)


def test_meteor_no_match():
    assert meteor_simplified("aa bb".split(), "cc dd".split()) == 0.0


def test_meteor_swapped_words_hand_case():
    # all three unigrams match but form three chunks: penalty = 0.5 * 1 = 0.5
    got = meteor_simplified("the cat sat".split(), "the sat cat".split())
    assert got == pytest.approx(50.0)


def test_meteor_stem_match():
    # "options" aligns to "option" via suffix stripping
    got = meteor_simplified("nice options".split(), "nice option".split())
    assert got > 0.0
    exact_only = meteor_simplified("nice options".split(), "nice xxxx".split())
    assert got > exact_only


def test_retrieval_metrics_all_rank_one():
    rankings = [("g1", "x"), ("g2",), ("g3", "y", "z")]
    golds = ["g1", "g2", "g3"]
    assert retrieval_metrics(rankings, golds) == (100.0, 100.0)


def test_retrieval_metrics_beyond_cutoff():
    rankings = [tuple(f"d{k}" for k in range(8))]
    assert retrieval_metrics(rankings, ["d6"]) == (0.0, 0.0)


def test_retrieval_metrics_mixed_ranks():
    # gold at ranks 1, 2, 5 and absent
    rankings = [
        ("g", "a", "b", "c", "d"),
        ("a", "g", "b", "c", "d"),
        ("a", "b", "c", "d", "g"),
        ("a", "b", "c", "d", "e"),
    ]
    golds = ["g", "g", "g", "g"]
    mrr5, r1 = retrieval_metrics(rankings, golds)
    assert mrr5 == pytest.approx(42.5)
    assert r1 == pytest.approx(25.0)


def test_retrieval_metrics_mrr_at_least_r1():
    rng = random.Random(2)
    for _ in range(50):
        rankings = []
        golds = []
        for _ in range(rng.randint(1, 10)):
            docs = [f"d{k}" for k in range(6)]
            rng.shuffle(docs)
            rankings.append(tuple(docs))
            golds.append(rng.choice(docs + ["missing"]))
        mrr5, r1 = retrieval_metrics(rankings, golds)
        assert mrr5 >= r1


def test_retrieval_metrics_missing_ranking_errors():
    with pytest.raises(EvaluationError):
        retrieval_metrics([None], ["g"])


def test_combined_score_table_values():
    assert round_half_up(combined_score(93.6, 71.9, 17.3), 1) == 100.1
    assert abs(combined_score(93.6, 71.9, 17.3) - 100.1) <= 0.05
    assert round_half_up(combined_score(82.9, 68.7, 19.0), 1) == 94.8
    assert abs(combined_score(82.9, 68.7, 19.0) - 94.8) <= 0.05
    assert combined_score(0, 0, 0) == 0.0


def test_combined_score_linearity():
    base = combined_score(40.0, 30.0, 10.0)
    assert combined_score(40.0, 30.0, 20.0) - base == pytest.approx(10.0)
    assert combined_score(42.0, 30.0, 10.0) - base == pytest.approx(1.0)


def test_inform_success_oracle_with_verbose_templates(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index,
        CorpusSpec(dialogs=8, original_turns=2, inserted_turns=1,
                   requestables=("phone", "address")),
        seed=5, templates=VERBOSE_TEMPLATES)
    report = evaluate_corpus(corpus, toy_kb, toy_index, predictor="oracle",
                             generator=make_template_generator(VERBOSE_TEMPLATES))
    assert report.inform == 100.0
    assert report.success == 100.0


def test_inform_zero_when_offers_never_satisfy(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=3, original_turns=1, inserted_turns=0),
        seed=2)
    # rewrite goals so no offered entity can satisfy them
    from seknow.corpus import Dialog, DialogCorpus, DomainGoal, GoalSpec
    twisted = DialogCorpus(dialogs=tuple(
        Dialog(d.dialog_id,
               GoalSpec(domains={next(iter(d.goal.domains)): DomainGoal(
                   constraints={"area": "nowhere"}, requestables=())}),
               d.turns)
        for d in corpus.dialogs
        if "area" in toy_kb.domain(next(iter(d.goal.domains))).slot_schema))
    report = evaluate_corpus(twisted, toy_kb, toy_index, predictor="oracle")
    assert report.inform == 0.0
    assert report.success == 0.0


def test_informed_but_missing_requestable(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index,
        CorpusSpec(dialogs=4, original_turns=2, inserted_turns=0,
                   requestables=("phone",)),
        seed=9)
    # default templates never emit [phone], so inform holds and success fails
    report = evaluate_corpus(corpus, toy_kb, toy_index, predictor="oracle")
    assert report.inform == 100.0
    assert report.success == 0.0
    assert report.success <= report.inform


def test_inform_unknown_goal_domain_errors(toy_kb, toy_index):
    from seknow.corpus import DomainGoal, GoalSpec
    with pytest.raises(EvaluationError, match="moon"):
        inform_success({"d": []}, {"d": GoalSpec(domains={
            "moon": DomainGoal(constraints={"area": "dark"})})}, toy_kb)


def test_evaluate_oracle_perfect_tracking(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    report = evaluate_corpus(corpus, toy_kb, toy_index, predictor="oracle")
    assert report.joint_goal == 100.0
    assert report.r_at_1 == 100.0
    assert report.mrr_at_5 == 100.0
    assert report.bleu == 100.0  # references were produced by the same generator
    assert report.success <= report.inform


def test_evaluate_heuristic_matches_golden_report(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    report = evaluate_corpus(corpus, toy_kb, toy_index, predictor="heuristic")
    golden = json.loads(GOLDEN_REPORT_PATH.read_text("utf-8"))
    assert report.to_dict() == golden


def test_evaluate_workers_equivalent(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=12, original_turns=2, inserted_turns=1),
        seed=4)
    one = evaluate_corpus(corpus, toy_kb, toy_index, predictor="heuristic", workers=1)
    many = evaluate_corpus(corpus, toy_kb, toy_index, predictor="heuristic", workers=8)
    assert one == many


def test_evaluate_rejects_workers_below_one(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            evaluate_corpus(corpus, toy_kb, toy_index, workers=workers)


def test_evaluate_dialog_order_invariant(toy_kb, toy_index):
    from seknow.corpus import DialogCorpus
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    reordered = DialogCorpus(dialogs=tuple(reversed(corpus.dialogs)))
    a = evaluate_corpus(corpus, toy_kb, toy_index, predictor="heuristic")
    b = evaluate_corpus(reordered, toy_kb, toy_index, predictor="heuristic")
    assert a == b
