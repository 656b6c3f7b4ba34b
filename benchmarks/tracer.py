"""Per-layer timing from outside the program.

``Tracer.install`` replaces module attributes of ``seknow.*`` (the names the
callers look up at call time) with wrappers that record a span per call:
name, start, end, parent span, and the dialog/turn being evaluated. Spans
stay in memory; ``write`` dumps them as JSON lines and ``layer_metrics``
reduces them to the per-layer metrics. ``restore`` puts the originals back.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager

# Per-layer metrics in the order they are printed: (name, unit).
LAYER_METRICS = (
    ("kb.load_s", "s"), ("kb.validate_s", "s"),
    ("topics.read_s", "s"), ("corpus.load_s", "s"), ("belief.parse_s", "s"),
    ("text.tokenize_s", "s"), ("topics.build_self_s", "s"), ("topics.tfidf_s", "s"),
    ("topics.candidates_s", "s"), ("topics.ca_tfidf_s", "s"), ("topics.write_s", "s"),
    ("corpus.generate_s", "s"), ("corpus.save_s", "s"),
    ("topics.docs_for_entity_s", "s"), ("topics.docs_for_entity_calls", "count"),
    ("knowops.match_entity_s", "s"), ("knowops.match_entity_calls", "count"),
    ("knowops.fuzzy_calls_per_match", "count"), ("knowops.entity_hit_ratio", "ratio"),
    ("knowops.retrieve_s", "s"), ("knowops.doc_hit_ratio", "ratio"),
    ("knowops.query_s", "s"), ("knowops.query_calls", "count"),
    ("pipeline.predict_s", "s"), ("belief.parses_per_turn", "count"),
    ("pipeline.generate_s", "s"), ("pipeline.lexicalize_s", "s"),
    ("pipeline.turn_ms.p50", "ms"), ("pipeline.turn_ms.p90", "ms"),
    ("pipeline.turn_ms.samples", "count"), ("pipeline.turn_wait_s", "s"),
    ("metrics.score_s", "s"), ("metrics.bleu_s", "s"), ("metrics.meteor_s", "s"),
    ("metrics.rouge_l_s", "s"), ("metrics.inform_success_s", "s"),
    ("metrics.pool_efficiency", "ratio"), ("trace.overhead_s", "s"),
)

# Span record fields.
NAME, START, END, PARENT, DIALOG, TURN, CPU, COUNT, HIT = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.root: list | None = None  # parent for spans opened on pool threads
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        rec = [name, 0, 0, parent, getattr(self._local, "dialog", None),
               getattr(self._local, "turn", None), None, 0, None]
        self.spans.append(rec)  # list.append is atomic under the GIL
        stack.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[END] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def phase(self, name: str):
        """Root span ("setup" or "iteration"); pool-thread spans hang below it."""
        rec = self._open(name)
        self.root = rec
        try:
            yield
        finally:
            self._close(rec)
            self.root = None

    def wrap(self, name: str, fn, *, hit=None, cpu: bool = False):
        """``fn`` recording a span per call; ``hit(result)`` marks useful outcomes."""
        def traced(*args, **kwargs):
            rec = self._open(name)
            if cpu:
                cpu0 = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                if cpu:
                    rec[CPU] = time.thread_time_ns() - cpu0
                self._close(rec)
            if hit is not None:
                rec[HIT] = bool(hit(result))
            return result
        return traced

    def counter(self, fn):
        """``fn`` counting its calls on the innermost open span of the calling thread."""
        def counted(*args, **kwargs):
            stack = self._stack()
            if stack:
                stack[-1][COUNT] += 1  # the span belongs to this thread only
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr: str, name: str | None = None, **opts):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.counter(original) if name is None
                else self.wrap(name, original, **opts))

    def factory(self, factory):
        """Predictor factory whose predictors are timed and tagged with the dialog id."""
        def traced_factory(dialog):
            self._local.dialog = dialog.dialog_id
            return self.wrap("pipeline.predict", factory(dialog))
        return traced_factory

    def run_turn(self, fn):
        traced = self.wrap("pipeline.run_turn", fn, cpu=True)

        def tagged(session, *args, **kwargs):
            self._local.turn = session.turn_index
            try:
                return traced(session, *args, **kwargs)
            finally:
                self._local.turn = None
        return tagged

    def install(self):
        from seknow import corpus, kb, knowops, metrics, pipeline, topics

        floor = knowops.MATCH_FLOOR
        for owner, attr, name in (
            (kb, "load_knowledge_base", "kb.load"),
            (kb, "validate_knowledge_base", "kb.validate"),
            (topics, "read_index", "topics.read"),
            (topics, "build_topic_index", "topics.build"),
            (topics, "tokenize", "text.tokenize"),
            (pipeline, "tokenize", "text.tokenize"),
            (topics, "compute_tfidf", "topics.tfidf"),
            (topics, "extract_candidates", "topics.candidates"),
            (topics, "compute_ca_tfidf", "topics.ca_tfidf"),
            (topics, "write_index", "topics.write"),
            (topics.TopicIndex, "docs_for_entity", "topics.docs_for_entity"),
            (corpus, "load_corpus", "corpus.load"),
            (corpus, "generate_synthetic_corpus", "corpus.generate"),
            (corpus, "save_corpus", "corpus.save"),
            (corpus, "parse_belief_span", "belief.parse"),
            (metrics, "parse_belief_span", "belief.parse"),
            (pipeline, "parse_belief_span", "belief.parse"),
            (knowops, "structured_query", "knowops.query"),
            (pipeline, "structured_query", "knowops.query"),
            (corpus, "template_generate", "pipeline.generate"),
            (corpus, "lexicalize", "pipeline.lexicalize"),
            (pipeline, "lexicalize", "pipeline.lexicalize"),
            (metrics, "evaluate_corpus", "metrics.evaluate"),
            (metrics, "bleu", "metrics.bleu"),
            (metrics, "meteor_simplified", "metrics.meteor"),
            (metrics, "rouge_l", "metrics.rouge_l"),
            (metrics, "inform_success", "metrics.inform_success"),
        ):
            self.patch(owner, attr, name)
        self.patch(knowops, "match_entity", "knowops.match_entity",
                   hit=lambda entity: entity is not None)
        self.patch(knowops, "retrieve_document", "knowops.retrieve",
                   hit=lambda ranking: bool(ranking) and ranking[0].score >= floor)
        self.patch(knowops, "fuzzy_similarity")
        original = metrics.run_turn
        self._patches.append((metrics, "run_turn", original))
        metrics.run_turn = self.run_turn(original)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start_ns": rec[START], "end_ns": rec[END],
                    "parent": None if rec[PARENT] is None else index[id(rec[PARENT])],
                    "dialog": rec[DIALOG], "turn": rec[TURN]}))
                fh.write("\n")

    def layer_metrics(self, setups: int, iterations: int, turns: int,
                      corpus_turns: int, workers: int, overhead_s: float) -> dict[str, float]:
        """Reduce the spans to LAYER_METRICS.

        Set-up layers (kb, index read, corpus load, the span parses inside it)
        are per set-up; every other time or count is per measured iteration.
        """
        child_ns: dict[int, int] = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                key = id(rec[PARENT])
                child_ns[key] = child_ns.get(key, 0) + rec[END] - rec[START]
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for rec in self.spans:
            name, dur = rec[NAME], rec[END] - rec[START]
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns.get(id(rec), 0)
            calls[name] = calls.get(name, 0) + 1

        def per_setup(name):
            return total.get(name, 0) / 1e9 / setups

        def per_iter(name, ns=total):
            return ns.get(name, 0) / 1e9 / iterations

        def by_name(name):
            return [rec for rec in self.spans if rec[NAME] == name]

        def ratio(num, den):
            return num / den if den else 0.0

        matches = by_name("knowops.match_entity")
        retrievals = by_name("knowops.retrieve")
        turn_recs = by_name("pipeline.run_turn")
        turn_ms = sorted((r[END] - r[START]) / 1e6 for r in turn_recs)
        parse_setup = [r for r in by_name("belief.parse") if _root(r)[NAME] == "setup"]
        parses_eval = calls.get("belief.parse", 0) - len(parse_setup)
        score_s = phase_wall = 0.0
        for ev in by_name("metrics.evaluate"):
            inside = [r for r in turn_recs if ev[START] <= r[START] <= ev[END]]
            if inside:
                first = min(r[START] for r in inside)
                last = max(r[END] for r in inside)
                score_s += (ev[END] - last) / 1e9
                phase_wall += (last - first) / 1e9
        turn_cpu = sum(r[CPU] for r in turn_recs) / 1e9
        wait = sum(r[END] - r[START] - r[CPU] for r in turn_recs) / 1e9

        out = {
            "kb.load_s": per_setup("kb.load"),
            "kb.validate_s": per_setup("kb.validate"),
            "topics.read_s": per_setup("topics.read"),
            "corpus.load_s": per_setup("corpus.load"),
            "belief.parse_s": sum(r[END] - r[START] for r in parse_setup) / 1e9 / setups,
            "text.tokenize_s": per_iter("text.tokenize"),
            "topics.build_self_s": per_iter("topics.build", self_ns),
            "topics.tfidf_s": per_iter("topics.tfidf"),
            "topics.candidates_s": per_iter("topics.candidates"),
            "topics.ca_tfidf_s": per_iter("topics.ca_tfidf"),
            "topics.write_s": per_iter("topics.write"),
            "corpus.generate_s": per_iter("corpus.generate"),
            "corpus.save_s": per_iter("corpus.save"),
            "topics.docs_for_entity_s": per_iter("topics.docs_for_entity"),
            "topics.docs_for_entity_calls": calls.get("topics.docs_for_entity", 0) / iterations,
            "knowops.match_entity_s": per_iter("knowops.match_entity"),
            "knowops.match_entity_calls": len(matches) / iterations,
            "knowops.fuzzy_calls_per_match": ratio(sum(r[COUNT] for r in matches), len(matches)),
            "knowops.entity_hit_ratio": ratio(sum(bool(r[HIT]) for r in matches), len(matches)),
            "knowops.retrieve_s": per_iter("knowops.retrieve"),
            "knowops.doc_hit_ratio": ratio(sum(bool(r[HIT]) for r in retrievals),
                                           len(retrievals)),
            "knowops.query_s": per_iter("knowops.query"),
            "knowops.query_calls": calls.get("knowops.query", 0) / iterations,
            "pipeline.predict_s": per_iter("pipeline.predict"),
            "belief.parses_per_turn": ratio(len(parse_setup), setups * corpus_turns)
            + ratio(parses_eval, turns),
            "pipeline.generate_s": per_iter("pipeline.generate"),
            "pipeline.lexicalize_s": per_iter("pipeline.lexicalize"),
            "pipeline.turn_ms.p50": statistics.median(turn_ms) if turn_ms else 0.0,
            "pipeline.turn_ms.p90": _quantile(turn_ms, 0.9),
            "pipeline.turn_ms.samples": float(len(turn_ms)),
            "pipeline.turn_wait_s": wait / iterations,
            "metrics.score_s": score_s / iterations,
            "metrics.bleu_s": per_iter("metrics.bleu"),
            "metrics.meteor_s": per_iter("metrics.meteor"),
            "metrics.rouge_l_s": per_iter("metrics.rouge_l"),
            "metrics.inform_success_s": per_iter("metrics.inform_success"),
            "metrics.pool_efficiency": ratio(turn_cpu, phase_wall * workers),
            "trace.overhead_s": overhead_s,
        }
        assert list(out) == [name for name, _ in LAYER_METRICS]
        return out


def _root(rec: list) -> list:
    while rec[PARENT] is not None:
        rec = rec[PARENT]
    return rec


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
