import json
import random
import tracemalloc

import pytest

from oracles import (
    oracle_bleu,
    oracle_bleu_counts,
    oracle_evaluate,
    oracle_lcs_length,
    oracle_meteor,
)
from seknow.corpus import (
    CorpusSpec,
    Dialog,
    DialogCorpus,
    DialogTurn,
    DomainGoal,
    GoalSpec,
    generate_synthetic_corpus,
    load_corpus,
    load_goals,
    parse_goal,
)
from seknow.errors import ConfigError, EvaluationError, LoadError, MetricError
from seknow.kb import Document, Domain, Entity, KnowledgeBase
from seknow.metrics import (
    _bleu_counts,
    _stem,
    bleu,
    combined_score,
    inform_success,
    meteor_simplified,
    oracle_factory,
    retrieval_metrics,
    rouge_l,
    round_half_up,
    run_dialog,
)
from seknow.pipeline import TemplateSet, make_template_generator
from seknow.topics import build_topic_index

from conftest import GOLDEN_REPORT_PATH, TOY_CORPUS_PATH, evaluate

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


# Random kernel inputs: three forms of one stem, and ten stems in four forms each.
KERNEL_VOCABS = (["book", "books", "booked"],
                 [stem + suffix for stem in ("book", "room", "stay", "park", "walk", "call",
                                             "open", "rent", "pack", "turn")
                  for suffix in ("", "s", "ed", "ing")])


def toks(*sentences):
    return [s.split() for s in sentences]


def repeated_on_both_sides(hyp, ref, n):
    """Whether some n-gram occurs more than once in both ``hyp`` and ``ref``."""
    grams = [[tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]
             for tokens in (hyp, ref)]
    return any(grams[0].count(g) > 1 and grams[1].count(g) > 1 for g in set(grams[0]))


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


def test_bleu_counts_equal_reference_counts():
    rng = random.Random(2002)
    clipped_pairs = corrected_pairs = 0
    for vocab, longest, pairs in (("abc", 5, 3000), *((v, 30, 400) for v in KERNEL_VOCABS)):
        for _ in range(pairs):
            hyp = rng.choices(vocab, k=rng.randint(0, longest))
            ref = rng.choices(vocab, k=rng.randint(0, longest))
            expected = oracle_bleu_counts(hyp, ref)
            assert _bleu_counts(hyp, ref) == expected, (hyp, ref)
            clipped_pairs += expected[1] < sum(tok in ref for tok in hyp)
            # the count correction for a gram repeated on both sides, beyond unigrams
            corrected_pairs += any(repeated_on_both_sides(hyp, ref, n) for n in (2, 3, 4))
    assert clipped_pairs > 500
    assert corrected_pairs > 150


def test_bleu_empty_corpus_errors():
    with pytest.raises(MetricError):
        bleu([], [])


def test_bleu_misaligned_lists_error():
    with pytest.raises(MetricError) as exc:
        bleu([["a"], ["b"]], [["a"]])
    assert exc.value.detail == "BLEU needs aligned hypothesis/reference lists"


def test_meteor_empty_reference_errors():
    with pytest.raises(MetricError) as exc:
        meteor_simplified("a".split(), [])
    assert exc.value.detail == "METEOR needs a nonempty reference"


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
        lcs = oracle_lcs_length(hyp, ref)
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


def test_meteor_matches_reference_alignment():
    rng = random.Random(1984)
    vocab = ["option", "options", "book", "booked", "booking", "bookings", "cheap",
             "cheaply", "nice", "the", "is"]
    for _ in range(400):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        assert meteor_simplified(hyp, ref) == oracle_meteor(hyp, ref), (hyp, ref)


def test_meteor_leftmost_free_alignment_matches_reference():
    # three words and their stemmable forms: repeats leave several free
    # reference positions for a token, and the leftmost one must be taken
    rng = random.Random(2005)
    words = ["book", "room", "stay", "books", "booked", "rooms", "staying", "stays"]
    repeated = 0
    merged = {len(v): 0 for v in KERNEL_VOCABS}
    for vocab, longest, pairs in ((words, 8, 2000), *((v, 30, 300) for v in KERNEL_VOCABS)):
        for _ in range(pairs):
            hyp = rng.choices(vocab, k=rng.randint(0, longest))
            ref = rng.choices(vocab, k=rng.randint(1, longest))
            assert meteor_simplified(hyp, ref) == oracle_meteor(hyp, ref), (hyp, ref)
            repeated += any(hyp.count(t) and ref.count(t) > 1 for t in vocab)
            if len(vocab) in merged:
                # the stem pass pairs a token through the free stacks of two
                # or more reference forms sharing its stem
                free = {t for t in ref if ref.count(t) > hyp.count(t)}
                merged[len(vocab)] += any(len({f for f in free if _stem(f) == _stem(t)}) > 1
                                          for t in hyp if hyp.count(t) > ref.count(t))
    assert repeated > 500
    assert min(merged.values()) > 30


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
    assert round_half_up(combined_score(93.6, 71.9, 17.3)) == 100.1
    assert abs(combined_score(93.6, 71.9, 17.3) - 100.1) <= 0.05
    assert round_half_up(combined_score(82.9, 68.7, 19.0)) == 94.8
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
        seed=5)
    # only the verbose templates offer [phone] and [address]
    report = evaluate(corpus, toy_kb, toy_index, "oracle",
                      generator=make_template_generator(VERBOSE_TEMPLATES))
    assert report.inform == 100.0
    assert report.success == 100.0


def test_inform_zero_when_offers_never_satisfy(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=3, original_turns=1, inserted_turns=0),
        seed=2)
    # rewrite goals so no offered entity can satisfy them
    twisted = DialogCorpus(dialogs=tuple(
        Dialog(d.dialog_id,
               GoalSpec(domains={next(iter(d.goal.domains)): DomainGoal(
                   constraints={"area": "nowhere"}, requestables=())}),
               d.turns)
        for d in corpus.dialogs
        if "area" in toy_kb.domain(next(iter(d.goal.domains))).slot_schema))
    report = evaluate(twisted, toy_kb, toy_index, "oracle")
    assert report.inform == 0.0
    assert report.success == 0.0


def test_informed_but_missing_requestable(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index,
        CorpusSpec(dialogs=4, original_turns=2, inserted_turns=0,
                   requestables=("phone",)),
        seed=9)
    # default templates never emit [phone], so inform holds and success fails
    report = evaluate(corpus, toy_kb, toy_index, "oracle")
    assert report.inform == 100.0
    assert report.success == 0.0
    assert report.success <= report.inform


def test_inform_unknown_goal_domain_errors(tmp_path, toy_kb, toy_index):
    dialog = json.loads(TOY_CORPUS_PATH.read_text("utf-8").splitlines()[0])
    dialog["goal"] = {"moon": {"constraints": {"area": "dark"}}}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(dialog) + "\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(str(path), toy_kb, toy_index)
    assert str(err.value) == \
        f"{path}:1: goal of dialog 'dlg0000' references unknown domain 'moon'"
    assert "moon" in load_corpus(str(path)).dialogs[0].goal.domains  # unchecked without a KB


@pytest.mark.parametrize("goal, detail", [
    ({"moon": {}}, "goal of dialog 'dlg0005' references unknown domain 'moon'"),
    ({"hotel": {"constraints": {"colour": "red"}}},
     "goal of dialog 'dlg0005' uses slot 'colour' outside the schema of domain 'hotel'"),
])
def test_goal_is_checked_before_any_turn(tmp_path, toy_kb, goal, detail):
    path = tmp_path / "goals.json"
    path.write_text(json.dumps({"dlg0005": goal}), encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_goals(str(path), toy_kb, load_corpus(str(TOY_CORPUS_PATH)))
    assert str(err.value) == f"{path}: {detail}"


@pytest.mark.parametrize("response, delex", [("", None), (" \t ", None), ("hi", "  ")],
                         ids=["empty", "whitespace", "empty-delex"])
def test_empty_reference_is_refused_before_any_turn(tmp_path, response, delex):
    dialogs = [json.loads(line) for line in TOY_CORPUS_PATH.read_text("utf-8").splitlines()]
    turn = dialogs[2]["turns"][1]
    turn["response"] = response
    turn.pop("delex")
    if delex is not None:
        turn["delex"] = delex
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in dialogs), encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(str(path))
    assert str(err.value) == f"{path}:3: dialog 'dlg0002' turn 1: empty reference response"


def test_inform_success_judges_one_dialog(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=1, original_turns=2, inserted_turns=0,
                                      requestables=("phone",)), seed=9)
    dialog = corpus.dialogs[0]
    outputs = run_dialog(dialog, oracle_factory, make_template_generator(), toy_kb, toy_index)
    assert inform_success(outputs, dialog.goal, toy_kb) == (True, False)
    no_requests = GoalSpec(domains={dom: DomainGoal(constraints=g.constraints)
                                    for dom, g in dialog.goal.domains.items()})
    assert inform_success(outputs, no_requests, toy_kb) == (True, True)
    assert inform_success([], no_requests, toy_kb) == (False, False)


def test_goal_names_are_normalized_like_the_db(tmp_path, toy_kb, toy_index):
    # "Hotel" / " Type " / "Guesthouse" name what the db file calls hotel / type / guesthouse
    dialogs = [json.loads(line) for line in TOY_CORPUS_PATH.read_text("utf-8").splitlines()]
    for dialog in dialogs:
        dialog["goal"] = {f" {dom.title()}": {
            "constraints": {f" {slot.title()} ": value.title()
                            for slot, value in goal["constraints"].items()},
            "requestables": [slot.upper() for slot in goal["requestables"]]}
            for dom, goal in dialog["goal"].items()}
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in dialogs), encoding="utf-8")
    original = load_corpus(str(TOY_CORPUS_PATH))
    recased = load_corpus(str(path))
    assert [d.goal for d in recased.dialogs] == [d.goal for d in original.dialogs]
    report = evaluate(recased, toy_kb, toy_index, "oracle")
    assert (report.inform, report.success) == (100.0, 100.0)
    assert report == evaluate(original, toy_kb, toy_index, "oracle")
    assert parse_goal({"Hotel": {"requestables": [" Phone "]}}, "goal", "f") == GoalSpec(
        domains={"hotel": DomainGoal(requestables=("phone",))})


def test_evaluate_oracle_perfect_tracking(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    report = evaluate(corpus, toy_kb, toy_index, "oracle")
    assert report.joint_goal == 100.0
    assert report.r_at_1 == 100.0
    assert report.mrr_at_5 == 100.0
    assert report.bleu == 100.0  # references were produced by the same generator
    assert report.success <= report.inform


def test_evaluate_heuristic_matches_golden_report(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    report = evaluate(corpus, toy_kb, toy_index, "heuristic")
    golden = json.loads(GOLDEN_REPORT_PATH.read_text("utf-8"))
    assert report.to_dict() == golden


def test_evaluate_workers_equivalent(toy_kb, toy_index):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=12, original_turns=2, inserted_turns=1),
        seed=4)
    one = evaluate(corpus, toy_kb, toy_index, "heuristic", workers=1)
    many = evaluate(corpus, toy_kb, toy_index, "heuristic", workers=8)
    assert one == many


def test_evaluate_rejects_workers_below_one(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            evaluate(corpus, toy_kb, toy_index, "oracle", workers=workers)


def test_evaluate_dialog_order_invariant(toy_kb, toy_index):
    corpus = load_corpus(str(TOY_CORPUS_PATH))
    reordered = DialogCorpus(dialogs=tuple(reversed(corpus.dialogs)))
    a = evaluate(corpus, toy_kb, toy_index, "heuristic")
    b = evaluate(reordered, toy_kb, toy_index, "heuristic")
    assert a == b


def _fold_corpus(toy_kb, toy_index, seed):
    """A seeded synthetic corpus of random size, with or without knowledge turns, and
    the templates to evaluate it with: the packaged set, which wrote its references
    (equal pairs under the oracle), or the verbose set (unequal pairs)."""
    rng = random.Random(seed)
    spec = CorpusSpec(dialogs=rng.randint(2, 12), original_turns=rng.randint(1, 3),
                      inserted_turns=rng.randint(0, 1),
                      requestables=("phone", "address")[:rng.randint(0, 2)])
    templates = None if rng.random() < 0.5 else VERBOSE_TEMPLATES
    return generate_synthetic_corpus(toy_kb, toy_index, spec, seed=seed), templates


FOLD_CASES = [*(f"seed-{seed}" for seed in range(6)), "toy-corpus", "reversed",
              "no-knowledge-turns", "goals-without-domains"]


def _fold_case(case, kb, index):
    """(corpus, goals, eval templates) of one fold-versus-reference case; goals None
    means embedded, templates None the packaged set."""
    if case.startswith("seed-"):
        corpus, templates = _fold_corpus(kb, index, int(case[len("seed-"):]))
        return corpus, None, templates
    if case == "toy-corpus":
        return load_corpus(str(TOY_CORPUS_PATH)), None, VERBOSE_TEMPLATES
    if case == "reversed":
        corpus, templates = _fold_corpus(kb, index, 3)
        return DialogCorpus(dialogs=tuple(reversed(corpus.dialogs))), None, templates
    if case == "no-knowledge-turns":
        return generate_synthetic_corpus(
            kb, index, CorpusSpec(dialogs=5, original_turns=2, inserted_turns=0), seed=1), \
            None, VERBOSE_TEMPLATES
    corpus, templates = _fold_corpus(kb, index, 4)
    return corpus, {d.dialog_id: GoalSpec() for d in corpus.dialogs}, templates


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
@pytest.mark.parametrize("case", FOLD_CASES)
def test_evaluate_matches_three_pass_oracle(toy_kb, toy_index, predictor, case):
    corpus, goals, templates = _fold_case(case, toy_kb, toy_index)
    generator = make_template_generator(templates)
    got = evaluate(corpus, toy_kb, toy_index, predictor, generator=generator, goals=goals)
    assert got == oracle_evaluate(corpus, toy_kb, toy_index, predictor,
                                  generator=generator, goals=goals)
    if case == "no-knowledge-turns":
        assert (got.mrr_at_5, got.r_at_1) == (0.0, 0.0)
    if case == "goals-without-domains":
        assert (got.inform, got.success) == (0.0, 0.0)


def test_evaluate_ranks_gold_down_to_five():
    # one entity whose six documents each index one word; the topic "alpha"
    # ranks them in order, so gold document k sits at rank k
    words = ("alpha", "alphx", "alpxx", "alxxx", "axxxx", "zzzzz")
    roma = Entity(id="roma", name="roma", attributes={"name": "roma"}, documents=tuple(
        Document(f"d{k}", "", word) for k, word in enumerate(words, start=1)))
    kb = KnowledgeBase(domains={"restaurant": Domain(
        name="restaurant", slot_schema=frozenset({"name"}), entities=(roma,))})
    index = build_topic_index(kb, {"restaurant": 0.0})
    turns = tuple(DialogTurn(user="tell me about roma", response="it is good .",
                             gold_belief_span="restaurant { ruk = roma } || alpha",
                             doc_annotation=("restaurant", "roma", f"d{k}"))
                  for k in range(1, 7))
    corpus = DialogCorpus(dialogs=(Dialog("d", GoalSpec(), turns),))
    report = evaluate(corpus, kb, index, "oracle")
    assert report == oracle_evaluate(corpus, kb, index, "oracle")
    assert report.mrr_at_5 == pytest.approx(100.0 * (1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5) / 6)
    assert report.r_at_1 == pytest.approx(100.0 / 6)


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_evaluate_empty_corpus_is_metric_error(toy_kb, toy_index, predictor):
    empty = DialogCorpus(dialogs=())
    with pytest.raises(MetricError, match="at least one"):
        evaluate(empty, toy_kb, toy_index, predictor)
    with pytest.raises(MetricError, match="at least one"):
        oracle_evaluate(empty, toy_kb, toy_index, predictor)


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_evaluate_heap_stays_per_dialog(toy_kb, toy_index, predictor):
    corpus = generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=160, original_turns=2, inserted_turns=1),
        seed=0)

    def traced_peak(n):
        part = DialogCorpus(dialogs=corpus.dialogs[:n])
        evaluate(part, toy_kb, toy_index, predictor)  # warm-up
        tracemalloc.start()
        try:
            evaluate(part, toy_kb, toy_index, predictor)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = traced_peak(20), traced_peak(160)
    assert large < 4 * small, (small, large)
