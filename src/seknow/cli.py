"""Command-line surface.

Subcommands: build-index, query, retrieve, run, corrupt, eval, stats, chat.
Exit status is 0 on success, 1 on domain errors (reported as a machine
parsable ``error: <kind>: <detail>`` line on stderr), and 2 on usage errors.
Only ``corrupt`` draws at random, from its ``--seed``; identical invocations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict

from . import corpus as corpus_io
from . import kb as kb_mod
from . import metrics as metrics_mod
from . import pipeline, topics
from .belief import parse_belief_span, serialize_belief, span_fields
from .errors import ConfigError, SeknowError, shown_path
from .knowops import (
    format_query_span,
    match_entity,
    retrieve_document,
    structured_query,
)
from .text import normalize, open_output, sha256_file, stopwords_digest, stopwords_file


def _parse_thresholds(pairs: list[str], kb: kb_mod.KnowledgeBase) -> dict[str, float]:
    """Defaults overridden by each ``domain=value``: a KB domain with documents, a finite value."""
    thresholds = dict(topics.DEFAULT_THRESHOLDS)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--threshold expects domain=value, got {pair!r}")
        domain, _, value = pair.partition("=")
        if normalize(domain) not in kb.document_domains:
            raise ConfigError(f"--threshold domain {domain!r} has no documents "
                              "in the knowledge base")
        try:
            threshold = float(value)
        except ValueError:
            raise ConfigError(f"--threshold value {value!r} is not a number") from None
        if not math.isfinite(threshold):
            raise ConfigError(f"--threshold value {value!r} is not finite")
        thresholds[normalize(domain)] = threshold
    return thresholds


def _load(args):
    """(kb, index, corpus, goals, generator) from the files the subcommand's arguments
    name, None for a file it takes none of; the generator is over ``--templates``. Each
    loader checks its file against those loaded before it, before the first turn."""
    kb = kb_mod.load_knowledge_base(args.kb, getattr(args, "docs", None))
    index = topics.read_index(args.index, kb) if hasattr(args, "index") else None
    corpus = corpus_io.load_corpus(args.corpus, kb, index) if hasattr(args, "corpus") else None
    goals = corpus_io.load_goals(args.goals, kb, corpus) if getattr(args, "goals", None) else None
    generator = None
    if hasattr(args, "templates"):
        generator = pipeline.make_template_generator(pipeline.load_templates(args.templates, kb))
    return kb, index, corpus, goals, generator


def cmd_build_index(args) -> int:
    kb, *_ = _load(args)
    index = topics.build_topic_index(kb, _parse_thresholds(args.threshold, kb))
    topics.write_index(index, args.out)
    print(f"indexed {len(index.entries)} documents -> {args.out}")
    return 0


def cmd_query(args) -> int:
    kb, *_ = _load(args)
    state = parse_belief_span(args.belief)
    print(format_query_span(structured_query(kb, state)))
    return 0


def cmd_retrieve(args) -> int:
    kb, index, *_ = _load(args)
    state = parse_belief_span(args.belief)
    ruk = state.ruk()
    if ruk is None or not state.topic:
        raise ConfigError("the belief span needs a ruk triple and a '||' topic segment")
    domain, name = ruk
    entity = match_entity(kb, domain, name)
    if entity is None:
        print("no entity matched")
        return 0
    for rank, doc in enumerate(retrieve_document(index, domain, entity, state.topic), start=1):
        print(f"{rank}\t{doc.score:.4f}\t{doc.domain}\t{doc.entity_id}\t{doc.doc_id}")
    return 0


def cmd_run(args) -> int:
    kb, index, corpus, _, generator = _load(args)
    factory = metrics_mod.PREDICTORS[args.predictor](kb, index)
    turns = 0
    # each dialog's lines are written as it finishes, so a failure keeps the finished ones
    with open_output(args.out) if args.out else nullcontext(sys.stdout) as fh:
        for dialog in corpus.dialogs:
            outputs = metrics_mod.run_dialog(dialog, factory, generator, kb, index)
            for k, out in enumerate(outputs):
                doc_id = out.document.doc_id if out.document is not None else "-"
                # a document body may hold tabs and line breaks; eval scores the same tokens
                fh.write("\t".join([
                    f"{dialog.dialog_id}:{k}",
                    serialize_belief(out.belief),
                    format_query_span(out.query),
                    doc_id,
                    " ".join(out.delexicalized_response.split()),
                    " ".join(out.lexicalized_response.split()),
                ]) + "\n")
            turns += len(outputs)
    if args.out:
        print(f"wrote {turns} turns -> {args.out}")
    return 0


def cmd_corrupt(args) -> int:
    corpus = corpus_io.load_corpus(args.corpus)
    samples = []
    ontology: dict[tuple[str, str], set[str]] = {}
    for dialog in corpus.dialogs:
        context: list[tuple[str, str]] = []
        for turn in dialog.turns:
            context.append(("user", turn.user))
            samples.append(pipeline.CorruptionSample(
                context=tuple(context),
                belief_span=turn.gold_belief_span,
                query_span="",
                document=None,
                response=turn.response,
            ))
            context.append(("system", turn.response))
            latest, _ = span_fields(turn.gold_belief_span)
            for key, value in latest.items():
                ontology.setdefault(key, set()).add(value)
    frozen = {key: tuple(sorted(vals)) for key, vals in ontology.items()}
    corrupted = pipeline.corrupt_samples(samples, args.seed, frozen)
    with open_output(args.out) as fh:
        for sample in corrupted:
            fh.write(json.dumps(asdict(sample), ensure_ascii=False, sort_keys=True) + "\n")
    n_corrupted = sum(1 for s in corrupted if s.y_c == 0)
    print(f"wrote {len(corrupted)} samples ({n_corrupted} corrupted) -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    kb, index, corpus, goals, generator = _load(args)
    factory = metrics_mod.PREDICTORS[args.predictor](kb, index)
    report = metrics_mod.evaluate_corpus(corpus, kb, index, factory, generator, goals=goals)
    payload = {
        "metrics": report.to_dict(),
        "metadata": {
            "predictor": args.predictor,
            "corpus_sha256": sha256_file(args.corpus),
            "docs_sha256": sha256_file(args.docs),
            "goals_sha256": sha256_file(args.goals) if args.goals else None,
            "index_sha256": sha256_file(args.index),
            "kb_sha256": sha256_file(args.kb),
            "stopwords_sha256": stopwords_digest(),
            "templates_sha256": sha256_file(args.templates or pipeline.PACKAGED_TEMPLATES),
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open_output(args.out) as fh:
            fh.write(text)
    _print_report_table(report)
    return 0


def _prf_cell(prf) -> str:
    r1 = metrics_mod.round_half_up
    return f"{r1(prf.precision)}/{r1(prf.recall)}/{r1(prf.f1)}"


def _print_report_table(report: metrics_mod.MetricsReport):
    r1 = metrics_mod.round_half_up
    rows = [
        ("Joint Goal", f"{r1(report.joint_goal)}"),
        ("Inform", f"{r1(report.inform)}"),
        ("Success", f"{r1(report.success)}"),
        ("BLEU", f"{r1(report.bleu)}"),
        ("METEOR (simplified)", f"{r1(report.meteor)}"),
        ("ROUGE-L", f"{r1(report.rouge_l)}"),
        ("Combined", f"{r1(report.combined)}"),
        ("MRR@5", f"{r1(report.mrr_at_5)}"),
        ("R@1", f"{r1(report.r_at_1)}"),
        ("ruk P/R/F1", _prf_cell(report.extended_prf.ruk)),
        ("topic P/R/F1", _prf_cell(report.extended_prf.topic)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


def cmd_stats(args) -> int:
    stats = asdict(corpus_io.corpus_stats(corpus_io.load_corpus(args.corpus)))
    print(json.dumps({key: round(value, 4) for key, value in stats.items()},
                     indent=2, sort_keys=True))
    return 0


def cmd_chat(args) -> int:
    kb, index, _, _, generator = _load(args)
    predictor = pipeline.make_heuristic_predictor(kb, index)
    session = pipeline.Session()
    print("type a message (ctrl-d to quit)", file=sys.stderr)
    # UTF-8 whatever the locale; a byte that is not UTF-8 reaches tokenize as a lone surrogate
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        out = pipeline.run_turn(session, line, predictor, generator, kb, index)
        print(f"belief: {serialize_belief(out.belief)}", file=sys.stderr)
        print(f"query : {format_query_span(out.query)}", file=sys.stderr)
        print(out.lexicalized_response)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seknow",
        description="Semi-structured knowledge management engine for task-oriented dialog")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build the document topic index")
    p.add_argument("--kb", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", action="append", default=[],
                   metavar="DOMAIN=VALUE", help="override a domain threshold")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("query", help="run the structured query for a belief span")
    p.add_argument("--kb", required=True)
    p.add_argument("--belief", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("retrieve", help="rank documents for a belief span")
    p.add_argument("--kb", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--belief", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("run", help="run the pipeline over a corpus")
    p.add_argument("--kb", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictor", choices=tuple(metrics_mod.PREDICTORS), default="oracle")
    p.add_argument("--templates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("corrupt", help="build consistency-detection samples")
    p.add_argument("--seed", type=int, default=0, help="seed of the corruption draws")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("eval", help="evaluate a predictor over a corpus")
    p.add_argument("--kb", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--goals", help="optional goal file overriding embedded goals")
    p.add_argument("--predictor", choices=tuple(metrics_mod.PREDICTORS), default="oracle")
    p.add_argument("--templates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="print corpus statistics")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("chat", help="interactive inspection with the heuristic predictor")
    p.add_argument("--kb", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_chat, templates=None)  # the packaged set
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if stopwords_file():
            print(f"stopwords: {shown_path(stopwords_file())} (sha256 {stopwords_digest()[:12]})",
                  file=sys.stderr)
        return args.func(args)
    except SeknowError as exc:
        print(f"error: {exc.kind}: {exc.detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
