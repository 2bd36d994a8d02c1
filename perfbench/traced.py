"""Run one ``nbproc`` command in process, with a span around each layer call.

    python3 perfbench/traced.py --spans SPANS.jsonl --run-id ID -- <nbproc arguments>

The spans come from this file alone: before ``nbproc.cli.main`` runs, the
module attributes in ``LAYERS`` are replaced by wrappers that time each
call.  Each name is one the program looks up at call time, so the wrapper
sees every call made through it.  A name that no longer exists stops the
run with an error instead of reporting its layer as zero.

The spans are kept in memory and written as JSON lines when the command
ends, whether it succeeds or not: id, name, start, end, parent id, run id
and, where ``LAYERS`` gives one, a work count.  Times are
``time.perf_counter`` seconds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import numpy as np

# (module, attribute, span name, work count taken from the call's arguments)
LAYERS = (
    ("nbproc.cli", "load_bag_of_words", "corpus.load", None),
    ("nbproc.cli", "split_train_test", "corpus.split", None),
    ("nbproc.cli", "initialize", "models.initialize", None),
    ("nbproc.cli", "gibbs_sweep", "models.sweep", None),
    ("nbproc.models", "update_topics", "models.topics", None),
    # Bernoulli trials of the exact CRT sampler: the sum of the counts m.
    ("nbproc.models", "sample_crt_array", "distributions.crt", lambda m, *_: int(np.sum(m))),
    ("nbproc.cli", "accumulate", "evaluation.accumulate", None),
    ("nbproc.cli", "heldout_perplexity", "evaluation.perplexity", None),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans of one run, nested by the call stack of the wrapped functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, work) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": span_id, "name": name, "parent": parent, "run": self.run_id, "work": work})
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[span_id].update(start=start, end=end)

    def call(self, name: str, work, fn, args=(), kwargs=None):
        """Call `fn` inside a span named `name`."""
        span_id = self._open(name, work)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._close(span_id, start, time.perf_counter())

    def wrap(self, module_name: str, attr: str, name: str, work_of) -> None:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(
                f"{module_name}.{attr} no longer exists; update LAYERS in perfbench/traced.py "
                f"so that layer {name!r} is still measured"
            )
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            work = work_of(*args, **kwargs) if work_of is not None else None
            return self.call(name, work, original, args, kwargs)

        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file the spans are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- followed by the nbproc arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import nbproc.cli

    tracer = Tracer(args.run_id)
    for layer in LAYERS:
        tracer.wrap(*layer)
    try:
        return tracer.call(ROOT_SPAN, None, nbproc.cli.main, (command,))
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
