#!/usr/bin/env python3
"""Benchmark of the ``nbproc`` command line on inputs generated from a seed.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``.  Workloads:

- ``desk``: ``nbproc run --model gamma-nb --K 100`` on a 500-document,
  2000-term synthetic corpus, 20 iterations after 5 warm-up sweeps.
- ``paper``: ``nbproc run --model nb-hdp --K 400`` on a 1740-document,
  13649-term synthetic corpus, 10 iterations after 3 warm-up sweeps.
- ``all``: both in turn, one result line each (not for automation).

``nbproc validate --quick`` is not a workload: it fails a Geweke check at
some seeds (see README.md).

The inputs (UCI ``docword.txt``/``vocab.txt``) are written before any
timing starts.  Each run is a closed loop with one user: one child process
runs the command to completion before the next starts, and another child
starts only while, at the last child's duration, it would end within
``--seconds`` of measuring (so there is at least one).  Every child's
output is checked, and a child that fails a check counts in ``failed``;
the end-to-end metrics are medians over the children that ran to the end.
With ``--trace 1`` the run instead makes one untraced and one traced child
(``perfbench/traced.py``) and reports per-layer metrics derived from the
traced child's spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print every metric with its unit and direction and the workload's input
properties; ``.perfbench/<workload>-<seed>/result.json`` keeps them with
every child's figures.  Exit status is 0 when a result was printed, and 2
when the benchmark could not set up or the traced child did not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"

# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0
TRAIN_FRAC = 0.6
CHILD = "import sys; from nbproc.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a fit of `model` on a synthetic corpus."""

    name: str
    model: str
    K: int
    iters: int
    burnin: int
    init_iters: int
    spec: dict  # SyntheticSpec fields of the generated corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            model="gamma-nb",
            K=100,
            iters=20,
            burnin=10,
            init_iters=5,
            spec=dict(k_true=20, vocab_size=2000, num_docs=500, topic_sharpness=0.05, r=5.0, p=0.9),
        ),
        # nb-hdp, not crf-hdp: crf-hdp fails its first sweep at K = 400 (see README.md).
        Workload(
            "paper",
            model="nb-hdp",
            K=400,
            iters=10,
            burnin=5,
            init_iters=3,
            spec=dict(k_true=50, vocab_size=13649, num_docs=1740, topic_sharpness=0.02, r=1.0, p=2.0 / 3.0),
        ),
    )
}

# name -> (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sweeps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed with the end-to-end metrics but not part of the result line:
# perplexity is a check more than a cost, and the failed share is the
# result's `failed` / `attempted`.
REPORTED = {
    "heldout_perplexity": ("per-word", "lower"),
    "failed_runs": ("share", "lower"),
}
PER_LAYER = {
    "corpus.load_s": ("s", "lower"),
    "corpus.load_lines_per_s": ("1/s", "higher"),
    "corpus.split_s": ("s", "lower"),
    "models.initialize_s": ("s", "lower"),
    "models.sweep_s": ("s", "lower"),
    "models.sweep_self_s": ("s", "lower"),
    "models.assign_cells_per_s": ("1/s", "higher"),
    "models.topics_s": ("s", "lower"),
    "models.topics_cells": ("count", "lower"),
    "distributions.crt_s": ("s", "lower"),
    "distributions.crt_trials": ("count", "lower"),
    "evaluation.accumulate_s": ("s", "lower"),
    "evaluation.perplexity_s": ("s", "lower"),
    "evaluation.dense_bytes": ("B", "lower"),
    "cli.other_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}
# Spans a traced fit must contain.
FIT_SPANS = ("corpus.load", "corpus.split", "models.initialize", "models.sweep", "models.topics",
             "distributions.crt", "evaluation.accumulate", "evaluation.perplexity")


class CheckFailed(Exception):
    """A child's exit status or output is wrong."""


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    run_s: float
    peak_rss_mb: float
    lines: list  # (seconds since start, stdout line)
    log: Path

    def stderr_tail(self) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-5:])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("NBPROC_THREADS", None)  # one worker, as the command line defaults to
    env["NBPROC_COMMIT"] = "perfbench"  # no `git` lookup outside the checkout
    return env


def run_child(cmd: list, log: Path, deadline: float) -> Child:
    """Run `cmd` to completion; time it and take its own peak RSS."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise CheckFailed("no time left before the run deadline")
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            lines = [(time.perf_counter() - start, line.rstrip("\n")) for line in proc.stdout]
            _, status, usage = os.wait4(proc.pid, 0)
            run_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, run_s, usage.ru_maxrss / 1024.0, lines, log)


def fit_argv(w: Workload, inputs: Path, seed: int, out: Path) -> list:
    return [
        "run", "--model", w.model,
        "--docword", str(inputs / "docword.txt"), "--vocab", str(inputs / "vocab.txt"),
        "--train-frac", str(TRAIN_FRAC), "--seed", str(seed), "--K", str(w.K),
        "--iters", str(w.iters), "--burnin", str(w.burnin), "--init-iters", str(w.init_iters),
        "--out", str(out),
    ]


def make_inputs(w: Workload, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs and return its input properties.

    Generating the paper corpus takes seconds, so the inputs of a seed are
    kept in `inputs` and reused by later runs with that seed.
    """
    props_path = inputs / "properties.json"
    if props_path.is_file():
        with open(props_path, encoding="utf-8") as fh:
            return json.load(fh)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        from nbproc import HyperParams, RandomSource, SyntheticSpec
        from nbproc import split_train_test, synthesize_corpus, write_bag_of_words
    except ImportError as exc:
        raise SetupError(f"cannot import nbproc from {SRC}: {exc}") from None

    staging = inputs.with_name(inputs.name + ".partial")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    corpus, _ = synthesize_corpus(HyperParams(), SyntheticSpec(**w.spec), RandomSource(seed))
    write_bag_of_words(corpus, staging / "docword.txt", staging / "vocab.txt")
    # The split the program makes at this seed (`nbproc.cli.run`).
    split = split_train_test(corpus, TRAIN_FRAC, RandomSource(seed).child(2))
    train_tokens = split.total_train
    train_cells = sum(len(np.unique(t)) for t in split.train_tokens)
    with open(staging / "docword.txt", "rb") as fh:
        lines = sum(1 for _ in fh)
    J, V = corpus.num_docs, corpus.vocab_size
    props = {
        "J": J,
        "V": V,
        "K": w.K,
        "tokens": corpus.total_tokens,
        "docword_lines": lines,
        "train_tokens": train_tokens,
        "train_cells": train_cells,
        "train_tokens_per_cell": train_tokens / train_cells,
        "train_tokens_x_K": train_tokens * w.K,
        "K_x_V": w.K * V,
        "J_x_V_bytes": J * V * 8,
    }
    with open(staging / "properties.json", "w", encoding="utf-8") as fh:
        json.dump(props, fh)
    staging.rename(inputs)
    return props


def sha256_of(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_fit(w: Workload, child: Child, out: Path, props: dict) -> tuple[dict, list]:
    """Check one fit; return its end-to-end figures and the checks it failed."""
    report_path = out / "report.json"
    if child.returncode != 0 or not report_path.is_file():
        raise CheckFailed(f"exit status {child.returncode}, no report.json: {child.stderr_tail()}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    runtime = report["runtime_seconds"]
    if not 0 < runtime < child.run_s:
        raise CheckFailed(f"runtime_seconds {runtime!r} is not inside the child's wall time {child.run_s:.3f}")
    perplexity = report["perplexity"]
    problems = []
    if (out / ".incomplete").exists():
        problems.append(".incomplete remains after a successful exit")
    if not (isinstance(perplexity, (int, float)) and math.isfinite(perplexity) and 0 < perplexity < props["V"]):
        problems.append(f"held-out perplexity {perplexity!r} is not a finite value below V = {props['V']}")
    figures = {
        "run_s": child.run_s,
        "setup_s": child.run_s - runtime,
        "sweeps_per_s": w.iters / runtime,
        "peak_rss_mb": child.peak_rss_mb,
        "heldout_perplexity": perplexity,
        "trace_sha256": sha256_of(out / "trace.csv"),
    }
    return figures, problems


def run_once(w: Workload, seed: int, inputs: Path, work: Path, index: int, deadline: float, spans=None):
    """Run and check one child; `spans` makes it the traced child."""
    out = work / f"out{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = fit_argv(w, inputs, seed, out)
    if spans is None:
        cmd = [sys.executable, "-u", "-c", CHILD, *argv]
    else:
        cmd = [sys.executable, "-u", str(TRACED), "--spans", str(spans), "--run-id", f"{w.name}-{seed}", "--", *argv]
    child = run_child(cmd, out / "stderr.log", deadline)
    return child, out


def span_metrics(spans: list, w: Workload, props: dict) -> dict:
    """Per-layer metrics from the traced child's spans."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    missing = [n for n in FIT_SPANS if n not in by_name]
    if missing:
        raise CheckFailed(f"the traced run recorded no {', '.join(missing)} span; the program no longer calls it")

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    sweeps = by_name["models.sweep"]
    sweep_self, topics, crt, trials = [], [], [], []
    for s in sweeps:
        kids = children.get(s["id"], [])
        sweep_self.append(dur(s) - sum(dur(k) for k in kids))
        topics.append(sum(dur(k) for k in kids if k["name"] == "models.topics"))
        crt.append(sum(dur(k) for k in kids if k["name"] == "distributions.crt"))
        trials.append(sum(k["work"] for k in kids if k["name"] == "distributions.crt"))
    (root,) = by_name["cli.main"]
    load_s = total("corpus.load")
    self_s = statistics.median(sweep_self)
    return {
        "corpus.load_s": load_s,
        "corpus.load_lines_per_s": props["docword_lines"] / load_s,
        "corpus.split_s": total("corpus.split"),
        "models.initialize_s": total("models.initialize"),
        "models.sweep_s": statistics.median(dur(s) for s in sweeps),
        "models.sweep_self_s": self_s,
        "models.assign_cells_per_s": props["train_tokens_x_K"] / self_s,
        "models.topics_s": statistics.median(topics),
        "models.topics_cells": props["K_x_V"],
        "distributions.crt_s": statistics.median(crt),
        "distributions.crt_trials": statistics.median(trials),
        "evaluation.accumulate_s": statistics.median(dur(s) for s in by_name["evaluation.accumulate"]),
        "evaluation.perplexity_s": statistics.median(dur(s) for s in by_name["evaluation.perplexity"]),
        "evaluation.dense_bytes": props["J_x_V_bytes"],
        "cli.other_s": dur(root) - sum(dur(k) for k in children.get(root["id"], [])),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One benchmark run; returns the result line."""
    work = WORK / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_key = hashlib.sha256(json.dumps(w.spec, sort_keys=True).encode()).hexdigest()[:12]
    inputs = WORK / "inputs" / f"{w.name}-{seed}-{spec_key}"
    props = make_inputs(w, seed, inputs)

    figures, failures, hashes = [], [], set()
    attempted = 0

    def attempt(spans=None):
        """Run one child; its figures count if it ran to the end, even if a check failed."""
        nonlocal attempted
        attempted += 1
        child, out = run_once(w, seed, inputs, work, attempted, deadline, spans)
        try:
            fig, problems = check_fit(w, child, out, props)
        except CheckFailed as exc:
            failures.append(f"child {attempted}: {exc}")
            return None
        hashes.add(fig["trace_sha256"])
        if len(hashes) > 1:
            problems.append(f"trace.csv differs between repeats at seed {seed}")
        if problems:
            failures.append(f"child {attempted}: {'; '.join(problems)}")
        figures.append(fig)
        return fig

    if trace:
        untraced = attempt()
        spans_path = work / "spans.jsonl"
        traced = attempt(spans_path)
        if untraced is None or traced is None:
            raise CheckFailed("; ".join(failures))
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        metrics = span_metrics(spans, w, props)
        metrics["trace_overhead_s"] = traced["run_s"] - untraced["run_s"]
        units = PER_LAYER
    else:
        started = time.monotonic()
        while True:
            begun = time.monotonic()
            attempt()
            # Start another child only if it should end within `seconds`.
            if time.monotonic() - started + (time.monotonic() - begun) > seconds:
                break
        metrics = {name: statistics.median(f[name] for f in figures) for name in END_TO_END} if figures else {}
        units = END_TO_END

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units if name in metrics},
    }
    shown = dict(metrics)
    if figures:
        shown["heldout_perplexity"] = statistics.median(f["heldout_perplexity"] for f in figures)
    shown["failed_runs"] = len(failures) / attempted
    print_report(w, seed, attempted, props, shown, {**units, **REPORTED}, failures)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, "inputs": props, "result": result,
                   "children": figures, "failures": failures}, fh, indent=2)
        fh.write("\n")
    return result


def print_report(w, seed, attempted, props, shown, units, failures) -> None:
    print(f"workload {w.name}  seed {seed}  children {attempted}  (closed loop, one child at a time)")
    print("  inputs: " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    for name, (unit, better) in units.items():
        if name in shown:
            print(f"  {name:32s} {shown[name]:16.6g} {unit:8s} {better} is better")
    for failure in failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nbproc" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/nbproc", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            results.append(measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline))
    except (SetupError, CheckFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
