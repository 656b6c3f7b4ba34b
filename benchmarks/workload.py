"""The units a workload times, through the calls ``seknow build-index`` and
``seknow eval`` make, plus the child process that runs them.

``python3 workload.py <config.json>`` runs the set-ups and the measured loop
of one workload in a fresh process and writes ``result.json`` beside the
config. Three kinds of unit exist:

* ``index``: ``build_topic_index`` + ``write_index`` over the whole KB, in
  a process of its own that loads the KB first, as ``seknow build-index``
  does (in-process on a traced run);
* ``generate``: ``generate_synthetic_corpus`` + ``save_corpus``;
* ``eval``: ``evaluate_corpus`` over a few consecutive dialogs of the eval
  corpus (10 with the oracle, 2 with the heuristic). Units follow each other
  through 10-dialog blocks, every block with the same domain mix.

Every unit is timed in wall seconds and in reference seconds (see
``calibrate.py``). Units of all kinds alternate for the whole run in fixed
shares of its time (``shares``), so that each end-to-end metric is sampled
across all of it. ``peak_rss_mib`` is the peak before the first unit that
is not the workload's own (an eval unit on ``build``, an index unit on the
eval workloads), so that it shows the memory of the workload's own work.
With ``"trace": true`` only the workload's own units run: untraced for half
the time, then the same units again under the tracer.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("SEKNOW_STOPWORDS", None)  # always the packaged list

from seknow import corpus as corpus_mod  # noqa: E402
from seknow import kb as kb_mod  # noqa: E402
from seknow import metrics as metrics_mod  # noqa: E402
from seknow import pipeline, topics  # noqa: E402
from seknow.text import load_stopwords  # noqa: E402

import inputs  # noqa: E402
from calibrate import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


TURNS_PER_DIALOG = inputs.CONSTRAINT_TURNS + inputs.KNOWLEDGE_TURNS
INDEX_TIMEOUT_S = 60


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_kb(files: dict):
    kb = kb_mod.load_knowledge_base(files["db"], files["docs"])
    report = kb_mod.validate_knowledge_base(kb)
    if report.violations:
        raise RuntimeError(f"knowledge base violations: {report.violations[:3]}")
    return kb


def eval_setup(files: dict):
    kb = load_kb(files)
    return kb, topics.read_index(files["index"]), corpus_mod.load_corpus(files["corpus"])


def build_index(kb, path: str):
    """``seknow build-index``: index every document and write index + sidecar."""
    index = topics.build_topic_index(kb, inputs.THRESHOLDS, load_stopwords())
    topics.write_index(index, path)
    return index


def generate(kb, index, seed: int, dialogs: int, path: str):
    spec = corpus_mod.CorpusSpec(dialogs=dialogs, original_turns=inputs.CONSTRAINT_TURNS,
                                 inserted_turns=inputs.KNOWLEDGE_TURNS,
                                 requestables=("phone",))
    corpus_mod.save_corpus(corpus_mod.generate_synthetic_corpus(kb, index, spec, seed), path)


def index_digests(path: str) -> dict:
    return {"index": sha256_file(path), "sidecar": sha256_file(topics.sidecar_path(path))}


def eval_unit(kb, index, corpus, k: int, size: int, predictor: str, workers: int,
              tracer: Tracer | None = None) -> dict:
    """``seknow eval`` over dialogs ``[k*size, (k+1)*size)``; the report is canonical JSON."""
    dialogs = corpus.dialogs[k * size:(k + 1) * size]
    factory = metrics_mod.oracle_factory if predictor == "oracle" \
        else metrics_mod.heuristic_factory(kb, index)
    generator = pipeline.make_template_generator()
    if tracer is not None:
        factory = tracer.factory(factory)
        generator = tracer.wrap("pipeline.generate", generator)
    report = metrics_mod.evaluate_corpus(
        corpus_mod.DialogCorpus(dialogs=dialogs), kb, index,
        predictor=factory, generator=generator, workers=workers)
    metrics = report.to_dict()
    text = json.dumps({"slice": k, "predictor": predictor, "metrics": metrics},
                      indent=2, sort_keys=True)
    return {"unit": k, "turns": sum(len(d.turns) for d in dialogs),
            "digests": {"report": hashlib.sha256(text.encode("utf-8")).hexdigest()},
            "metrics": metrics}


def check_oracle_report(metrics: dict) -> str | None:
    """The oracle replays gold states, so joint goal and the extension P/R/F1 are 100."""
    prf = metrics["extended_prf"]
    perfect = [metrics["joint_goal"]] + [prf[p][k] for p in ("ruk", "topic")
                                         for k in ("precision", "recall", "f1")]
    return None if all(v == 100.0 for v in perfect) else f"oracle report not perfect: {metrics}"


def check_index(path: str, docs: list[dict]) -> str | None:
    """One index row per document, 1-3 topic words, each a word of the document."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            domain, entity, doc_id, words = line.rstrip("\n").split("\t")
            rows[(domain, entity, doc_id)] = words.split(",")
    if len(rows) != len(docs):
        return f"index has {len(rows)} rows for {len(docs)} documents"
    for doc in docs:
        words = rows.get((doc["domain"], doc["entity_id"], doc["doc_id"]))
        vocab = set(re.findall(r"[a-z0-9]+", f"{doc['title']} {doc['body']}".lower()))
        if words is None or not 1 <= len(words) <= 3 or not set(words) <= vocab:
            return f"bad index row for {doc['doc_id']}: {words}"
    return None


def check_generated(path: str, dialogs: int, scratch: str) -> str | None:
    """The saved corpus loads back, saves to the same bytes, and has the asked shape."""
    corpus = corpus_mod.load_corpus(path)
    corpus_mod.save_corpus(corpus, scratch)
    if sha256_file(scratch) != sha256_file(path):
        return "generated corpus does not round-trip"
    if len(corpus.dialogs) != dialogs or any(len(d.turns) != TURNS_PER_DIALOG
                                             for d in corpus.dialogs):
        return "generated corpus has the wrong shape"
    return None


def index_in_fresh_process(config_path: str) -> tuple[float, float]:
    """Wall and reference seconds of one index unit in a new process, as the CLI runs it.

    A build in a process that has built before runs 20-25% slower and
    varies more, because the heap is no longer laid out as it is fresh.
    """
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "index", config_path],
                          capture_output=True, text=True, timeout=INDEX_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"index process exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    timing = json.loads(proc.stdout)
    return timing["wall"], timing["ref"]


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


class Child:
    """One workload's set-ups and units in this process."""

    def __init__(self, cfg: dict, config_path: str):
        self.cfg = cfg
        self.config_path = config_path
        self.fresh_index = not cfg["trace"]  # the tracer sees this process only
        self.files = cfg["files"]
        self.build = cfg["workload"] == "build"
        self.speed = Speed()
        self.setup = None
        self.eval_inputs = None  # the build workload's own index and corpus, for its eval units
        self.own_peak_mib = None  # peak RSS before the first unit of another workload's kind

    def one_setup(self) -> dict:
        self.setup = None  # drop the previous set-up before paying for the next
        fn = (lambda: load_kb(self.files)) if self.build else (lambda: eval_setup(self.files))
        self.setup, wall, ref = self.speed.timed("compute", fn)
        return {"wall": wall, "ref": ref}

    def _kb_index_corpus(self):
        if not self.build:
            return self.setup
        if self.eval_inputs is None:
            self.eval_inputs = eval_setup(self.files)[1:]
        return (self.setup, *self.eval_inputs)

    def unit(self, kind: str, arg: int = 0, tracer: Tracer | None = None) -> dict:
        """One timed unit; an exception becomes ``{"error": ...}`` for the parent to count."""
        cfg, files = self.cfg, self.files
        if self.own_peak_mib is None and (kind == "eval") == self.build:
            self.own_peak_mib = peak_rss_mib()
        kb, index, corpus = self._kb_index_corpus()
        try:
            if kind == "index":
                wall, ref = index_in_fresh_process(self.config_path) if self.fresh_index \
                    else self.speed.timed("memory", lambda: build_index(kb, files["index"]))[1:]
                out = {"digests": index_digests(files["index"]), "ops": cfg["documents"]}
            elif kind == "generate":
                _, wall, ref = self.speed.timed("compute", lambda: generate(
                    kb, index, cfg["seed"], cfg["gen_dialogs"], files["generated"]))
                out = {"digests": {"generated": sha256_file(files["generated"])},
                       "ops": cfg["gen_dialogs"]}
            else:
                predictor = "oracle" if self.build else cfg["predictor"]
                workers = 1 if self.build else cfg["workers"]
                out, wall, ref = self.speed.timed("compute", lambda: eval_unit(
                    kb, index, corpus, arg, cfg["unit_dialogs"][predictor], predictor,
                    workers, tracer))
                out.update(predictor=predictor, block=arg // cfg["units_per_block"][predictor],
                           ops=out["turns"])
        except Exception as exc:  # reported; the parent counts the unit as failed
            return {"kind": kind, "error": f"{type(exc).__name__}: {exc}"}
        out.update(kind=kind, wall=wall, ref=ref)
        return out

    def block(self, b: int) -> list[dict]:
        predictor = "oracle" if self.build else self.cfg["predictor"]
        n = self.cfg["units_per_block"][predictor]
        return [self.unit("eval", (b % self.cfg["blocks"]) * n + i) for i in range(n)]

    def interleaved(self, seconds: float) -> list[dict]:
        """Units of every kind for ``seconds`` (and at least one of each), up to an error.

        Each next unit is of the kind furthest behind its share of the time
        spent so far (``shares``; an eval unit here is a whole block), so the
        kinds alternate through the whole run in fixed proportions.
        """
        shares = self.cfg["shares"]
        spent = dict.fromkeys(shares, 0.0)
        units: list[dict] = []
        t0 = time.perf_counter()
        blocks = 0
        while time.perf_counter() - t0 < seconds or not all(spent.values()):
            total = sum(spent.values())
            kind = max(shares, key=lambda k: shares[k] * total - spent[k])
            t_unit = time.perf_counter()
            if kind == "eval":
                units += self.block(blocks)
                blocks += 1
            else:
                units.append(self.unit(kind))
            spent[kind] += time.perf_counter() - t_unit
            if "error" in units[-1]:
                break
        return units

    def own(self, step: int, tracer: Tracer | None = None) -> list[dict]:
        """Step ``step`` of the workload's own units: index + generate, or one eval unit."""
        if self.build:
            return [self.unit("index"), self.unit("generate")]
        predictor = self.cfg["predictor"]
        units = self.cfg["blocks"] * self.cfg["units_per_block"][predictor]
        return [self.unit("eval", step % units, tracer)]

    def own_steps(self, seconds: float, at_least: int) -> tuple[list[dict], int]:
        """Own steps for ``seconds`` and at least ``at_least`` of them, or to the first error."""
        units: list[dict] = []
        t0 = time.perf_counter()
        steps = 0
        while True:
            group = self.own(steps)
            units += group
            steps += 1
            if any("error" in u for u in group) \
                    or (time.perf_counter() - t0 >= seconds and steps >= at_least):
                return units, steps


def main(config_path: str):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    workdir = os.path.dirname(config_path)
    child = Child(cfg, config_path)

    result: dict = {"setup": []}
    t0 = time.perf_counter()
    while len(result["setup"]) < cfg["setups"] or time.perf_counter() - t0 < cfg["setup_seconds"]:
        result["setup"].append(child.one_setup())
    if not cfg["trace"]:
        result["units"] = child.interleaved(cfg["seconds"])
    else:
        # enough eval turns in the traced pass for pipeline.turn_ms.p90 (>= 10 beyond it)
        at_least = 1 if child.build else -(-140 // (cfg["unit_dialogs"][cfg["predictor"]]
                                                    * TURNS_PER_DIALOG))
        plain, steps = child.own_steps(cfg["seconds"] / 2, at_least)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(cfg["setups"]):
                with tracer.phase("setup"):
                    child.one_setup()
            traced = []
            for step in range(steps):
                with tracer.phase("iteration"):
                    traced += child.own(step, tracer)
        finally:
            tracer.restore()
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        result["units"] = plain
        result["traced_units"] = traced
        plain_wall = sum(u.get("wall", 0.0) for u in plain)
        traced_wall = sum(u.get("wall", 0.0) for u in traced)
        corpus_turns = 0 if child.build else sum(len(d.turns) for d in child.setup[2].dialogs)
        result["layers"] = tracer.layer_metrics(
            setups=cfg["setups"], iterations=steps,
            turns=sum(u.get("turns", 0) for u in traced),
            corpus_turns=corpus_turns, workers=cfg.get("workers", 1),
            overhead_s=(traced_wall - plain_wall) / steps)

    result["checks"] = []
    first = next((u for u in result["units"] if u["kind"] == "eval"), None)
    if not child.build and cfg["workers"] != 1 and first and "error" not in first:
        # byte-stability contract: any worker count gives the workers=1 report
        kb, index, corpus = child.setup
        single = eval_unit(kb, index, corpus, first["unit"],
                           cfg["unit_dialogs"][cfg["predictor"]], cfg["predictor"], 1)
        if single["digests"] != first["digests"]:
            result["checks"].append(f"unit {first['unit']}: workers={cfg['workers']} "
                                    "report differs from workers=1")
    result["peak_rss_mib"] = child.own_peak_mib or peak_rss_mib()
    if child.build:  # its index builds ran in processes of their own
        result["peak_rss_mib"] = max(result["peak_rss_mib"],
                                     peak_rss_mib(resource.RUSAGE_CHILDREN))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def index_main(config_path: str):
    """One index unit in this fresh process; prints its wall and reference seconds."""
    with open(config_path, encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    kb = load_kb(files)
    _, wall, ref = Speed().timed("memory", lambda: build_index(kb, files["index"]))
    print(json.dumps({"wall": wall, "ref": ref}))


if __name__ == "__main__":
    if sys.argv[1] == "index":
        index_main(sys.argv[2])
    else:
        main(sys.argv[1])
