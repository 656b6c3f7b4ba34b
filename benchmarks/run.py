"""Benchmark of the seknow batch harness at the real export's scale.

    python3 benchmarks/run.py --workload build|eval-oracle|eval-heuristic \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|toy] [--record]

Builds seeded inputs (5 domains, 291 entities, 2,910 documents; a 1,000-
dialog eval corpus), runs the workload in a fresh process for ``--seconds``
(see ``workload.py``), checks output digests, prints every metric with its
unit and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Times are in reference seconds (see
``calibrate.py``); the wall-clock figures are printed beside them.
``--trace 1`` reports the per-layer metrics of a traced run instead of the
end-to-end ones. ``--record`` stores the digests of ``--seed`` as the
reference that later runs of that seed must match.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "build": {"predictor": "oracle", "workers": 1},
    "eval-oracle": {"predictor": "oracle", "workers": 1},
    "eval-heuristic": {"predictor": "heuristic", "workers": 2},
}

END_TO_END = (("setup_s", "s"), ("index_docs_per_s", "1/s"), ("gen_dialogs_per_s", "1/s"),
              ("eval_turns_per_s", "1/s"), ("peak_rss_mib", "MiB"))

# Shares of the measured time per unit kind; the workload's own kind first.
SHARES = {
    "build": {"index": 0.55, "generate": 0.25, "eval": 0.2},
    "eval-oracle": {"eval": 0.5, "index": 0.3, "generate": 0.2},
    "eval-heuristic": {"eval": 0.5, "index": 0.3, "generate": 0.2},
}

# Set-ups repeat at least ``setups`` times and for at least ``setup_seconds``.
# An eval unit is ``unit_dialogs`` dialogs; ``block_dialogs`` make one block.
SIZES = {
    "full": {"entities": None, "docs_per_entity": 10, "corpus_dialogs": 1000,
             "block_dialogs": inputs.BLOCK, "unit_dialogs": {"oracle": 10, "heuristic": 2},
             "gen_dialogs": 30, "setups": 5, "setup_seconds": 2.0},
    "toy": {"entities": 3, "docs_per_entity": 3, "corpus_dialogs": 12,
            "block_dialogs": 2, "unit_dialogs": {"oracle": 2, "heuristic": 1},
            "gen_dialogs": 3, "setups": 2, "setup_seconds": 0.0},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--record", action="store_true",
                   help="store this seed's digests as the reference (slow at full size)")
    return p.parse_args(argv)


class Run:
    """Operations attempted and failed, the reasons, and the digests seen."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict[str, str] = {}

    def step(self, ops: int, problem: str | None = None):
        self.attempted += ops
        if problem:
            self.failed += ops
            self.problems.append(problem)

    def digest_problem(self, key: str, digest: str) -> str | None:
        """Mismatch against the recorded digest, or else against the first one seen."""
        expected = (self.reference or {}).get(key) or self.seen.setdefault(key, digest)
        return None if digest == expected else f"{key}: digest {digest[:12]} != {expected[:12]}"

    def check_unit(self, unit: dict, failed_ops: int) -> bool:
        """Count a unit's operations; ``False`` if it failed."""
        if "error" in unit:
            self.step(failed_ops, f"{unit['kind']}: {unit['error']}")
            return False
        if unit["kind"] == "eval":
            problem = self.digest_problem(f"{unit['predictor']}/{unit['unit']}",
                                          unit["digests"]["report"])
            if unit["predictor"] == "oracle":
                import workload

                problem = problem or output_check(workload.check_oracle_report, unit["metrics"])
        else:
            problem = next(filter(None, (self.digest_problem(key, digest)
                                         for key, digest in unit["digests"].items())), None)
        self.step(unit["ops"], problem)
        return problem is None


def write_inputs(seed: int, size: dict, workdir: str) -> tuple[dict, dict, list, dict]:
    entities = inputs.ENTITIES if size["entities"] is None \
        else {d: size["entities"] for d in inputs.ENTITIES}
    db, docs = inputs.make_kb(seed, entities, size["docs_per_entity"])
    files = {name: os.path.join(workdir, name + ext) for name, ext in (
        ("db", ".json"), ("docs", ".json"), ("index", ".tsv"), ("corpus", ".jsonl"),
        ("generated", ".jsonl"))}
    inputs.write_json(db, files["db"])
    inputs.write_json(docs, files["docs"])
    return files, db, docs, inputs.kb_properties(db, docs)


def write_eval_corpus(seed: int, db: dict, docs: list, index_path: str, dialogs: int,
                      path: str) -> dict:
    from seknow import topics

    index = topics.read_index(index_path)
    words = {key: tuple(tw.token for tw in entry) for key, entry in index.entries.items()}
    records, props = inputs.make_corpus(seed, db, docs, words, dialogs)
    inputs.write_jsonl(records, path)
    return props


def prepare(seed: int, size: dict, workdir: str) -> tuple[dict, list, dict, dict]:
    """Inputs, a first index unit, and the eval corpus over that index.

    The index unit is the workload child's kind of unit, in a fresh process,
    so it is also the run's first ``index`` sample.
    """
    import workload

    files, db, docs, props = write_inputs(seed, size, workdir)
    path = os.path.join(workdir, "prepare.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"files": files}, fh)
    wall, ref = workload.index_in_fresh_process(path)
    first = {"kind": "index", "wall": wall, "ref": ref, "ops": len(docs),
             "digests": workload.index_digests(files["index"])}
    props.update(write_eval_corpus(seed, db, docs, files["index"], size["corpus_dialogs"],
                                   files["corpus"]))
    return files, docs, props, first


def output_check(check, *args) -> str | None:
    """The check's complaint; an output it cannot even read is a complaint too."""
    try:
        return check(*args)
    except Exception as exc:
        return f"{check.__name__}: {type(exc).__name__}: {exc}"


def run_child(cfg: dict, workdir: str) -> dict:
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), path],
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def median(values: list[float]) -> float:
    if not values:
        raise SystemExit("error: no successful unit to time")
    return statistics.median(values)


def end_to_end(result: dict, good: list[dict], per_block: dict, key: str) -> dict:
    """End-to-end metrics from ``key`` ("ref" or "wall") seconds of the good units.

    Eval rates are per block: turns over the summed seconds of its units.
    """
    def rates(kind: str) -> list[float]:
        return [u["ops"] / u[key] for u in good if u["kind"] == kind]

    blocks: dict[int, list[dict]] = {}
    for i, u in enumerate(u for u in good if u["kind"] == "eval"):
        blocks.setdefault(i // per_block[u["predictor"]], []).append(u)
    return {
        "setup_s": median([s[key] for s in result["setup"]]),
        "index_docs_per_s": median(rates("index")),
        "gen_dialogs_per_s": median(rates("generate")),
        "eval_turns_per_s": median([
            sum(u["turns"] for u in units) / sum(u[key] for u in units)
            for units in blocks.values() if len(units) == per_block[units[0]["predictor"]]]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seknow", "__init__.py")):
        print(f"error: no seknow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workload

    size = SIZES[args.size]
    mode = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{args.size}-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.record:
        return record(args, size, workdir)

    reference = load_digests().get(args.size, {}).get(str(args.seed))
    run = Run(reference)
    files, docs, props, first_index = prepare(args.seed, size, workdir)
    per_block = {p: size["block_dialogs"] // n for p, n in size["unit_dialogs"].items()}
    ops = {"index": len(docs), "generate": size["gen_dialogs"],
           "eval": size["unit_dialogs"][mode["predictor"]] * workload.TURNS_PER_DIALOG}
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "files": files, "documents": len(docs),
           "gen_dialogs": size["gen_dialogs"], "unit_dialogs": size["unit_dialogs"],
           "units_per_block": per_block,
           "blocks": size["corpus_dialogs"] // size["block_dialogs"],
           "setups": size["setups"], "setup_seconds": size["setup_seconds"],
           "shares": SHARES[args.workload], **mode}
    result = run_child(cfg, workdir)
    if not args.trace:
        result["units"].insert(0, first_index)
    good = [u for u in result["units"] if run.check_unit(u, ops[u["kind"]])]
    checks = result["checks"] + [output_check(workload.check_index, files["index"], docs)]
    if any(u["kind"] == "generate" for u in result["units"]):
        checks.append(output_check(workload.check_generated, files["generated"],
                                   size["gen_dialogs"], os.path.join(workdir, "roundtrip.jsonl")))
    if any(checks):  # a failed output check fails every operation of the run
        run.problems += [c for c in checks if c]
        run.failed = run.attempted
    for plain, traced in zip(result["units"], result.get("traced_units", ())):
        run.step(traced.get("ops", 0), None if traced.get("digests") == plain.get("digests")
                 else "traced output differs from untraced output")

    wall = {}
    if args.trace:
        metrics = result["layers"]
        import tracer
        units = dict(tracer.LAYER_METRICS)
    else:
        metrics = end_to_end(result, good, per_block, "ref")
        wall = end_to_end(result, good, per_block, "wall")
        units = dict(END_TO_END)

    counts = {kind: sum(u["kind"] == kind for u in good) for kind in ("index", "generate", "eval")}
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"set-ups {len(result['setup'])}  units {counts}")
    for key, value in props.items():
        print(f"input    {key} = {value}")
    for name, value in metrics.items():
        extra = f"   (wall clock: {wall[name]:.6f})" if name in wall else ""
        print(f"metric   {name:<32} {value:>14.6f} {units[name]}{extra}")
    fail_ratio = run.failed / max(run.attempted, 1)
    print(f"metric   {'fail_ratio':<32} {fail_ratio:>14.6f} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"problem  {problem}", file=sys.stderr)
    if reference is None:
        print("digests  (no reference for this seed) " + json.dumps(run.seen, sort_keys=True),
              file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record(args, size: dict, workdir: str) -> int:
    """Compute and store every reference digest of ``--seed`` (write path, all eval units)."""
    import workload

    files, _, _, _ = prepare(args.seed, size, workdir)
    kb, index, corpus = workload.eval_setup(files)
    workload.generate(kb, index, args.seed, size["gen_dialogs"], files["generated"])
    digests = {**workload.index_digests(files["index"]),
               "generated": workload.sha256_file(files["generated"])}
    for predictor, n in size["unit_dialogs"].items():
        for k in range(size["corpus_dialogs"] // n):
            digests[f"{predictor}/{k}"] = workload.eval_unit(
                kb, index, corpus, k, n, predictor, 1)["digests"]["report"]
    stored = load_digests()
    stored.setdefault(args.size, {})[str(args.seed)] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests for size {args.size} seed {args.seed}")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
