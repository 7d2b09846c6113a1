"""Outside-in tracing of one `swat` command.

Run as a script, it imports `swat.cli` in a fresh interpreter, wraps the
public functions of each pipeline module on the attribute their callers look
up, runs ``swat.cli.main(argv)`` in-process and writes the recorded spans to
a JSON file when the command ends:

    python3 perfbench/tracer.py --src SRC --spans OUT.json --trace-id ID -- <swat argv>

Spans stay in memory until then.  Each span holds its name, start, end
(``time.perf_counter`` seconds), the index of its parent span and the trace
id; counters ride along per span name.  ``self_times`` turns the spans into
per-name self time: a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

# Bookkeeping done by a wrapper after the wrapped call (counting tokens, say)
# runs inside a span of this name, so its time is not charged to the caller's
# self time.  It is not reported as a layer.
BOOKKEEPING = "trace.count"


class Recorder:
    """In-memory span recorder for one single-threaded trace."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "trace": self.trace_id}
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (top was {popped})")

    def add(self, name: str, counter: str, value: int) -> None:
        bucket = self.counts.setdefault(name, {})
        bucket[counter] = bucket.get(counter, 0) + int(value)

    def wrap(self, name: str, fn, counters=None):
        """Wrap ``fn`` in a span; ``counters(args, result)`` -> {counter: n}."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.add(name, "calls", 1)
            if counters is not None:
                book = self.open(BOOKKEEPING)
                try:
                    for counter, value in counters(args, result).items():
                        self.add(name, counter, value)
                finally:
                    self.close(book)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per span name, bookkeeping spans excluded."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        if span["name"] == BOOKKEEPING:
            continue
        own = span["end"] - span["start"] - _covered(children.get(index, []), span["start"], span["end"])
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _tokens(args, result) -> dict[str, int]:
    dataset = args[1]  # FeatureSpec.encode_dataset(self, dataset)
    return {"tokens": sum(len(s.categorical_ids) for s in dataset.samples)}


def _nbytes(args, result) -> dict[str, int]:
    arrays = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(a.nbytes for a in arrays)}


# (span name, [(module, owner attribute path, attribute)], counters).  Each
# site is the attribute a caller on the pipeline path looks up: `swat.cli`
# imports the bucket constructors by name, while `predictor` reaches `heads`
# and `labels` through the module, and methods are looked up on the class.
SITES = [
    ("cli.main", [("swat.cli", "", "main")], None),
    ("dataio.load_csv", [("swat.dataio", "", "load_csv")], lambda a, r: {"rows": len(r)}),
    ("dataio.split", [("swat.dataio", "", "split")], None),
    ("dataio.write_predictions", [("swat.dataio", "", "write_predictions")], None),
    ("buckets.from_percentiles",
     [("swat.cli", "", "from_percentiles"), ("swat.buckets", "", "from_percentiles")], None),
    ("buckets.ablation_choice", [("swat.cli", "", "ablation_choice")], None),
    ("predictor.encode_dataset", [("swat.predictor", "FeatureSpec", "encode_dataset")], _tokens),
    ("predictor.train", [("swat.predictor", "", "train")], None),
    ("predictor.forward_batch", [("swat.predictor", "Model", "forward_batch")], None),
    ("predictor.backward_batch", [("swat.predictor", "Model", "backward_batch")], None),
    ("predictor.adamw_update", [("swat.predictor", "AdamState", "update")], None),
    ("predictor.predict", [("swat.predictor", "Model", "predict")], None),
    ("predictor.save", [("swat.predictor", "Model", "save")], None),
    ("predictor.load", [("swat.predictor", "Model", "load")], None),
    ("labels.matrix", [("swat.labels", "", "matrix")], _nbytes),
    ("heads.geo_coefficients", [("swat.heads", "", "geo_coefficients")], _nbytes),
    ("heads.sigmoid", [("swat.heads", "", "sigmoid")], None),
    ("heads.clamp_probs", [("swat.heads", "", "clamp_probs")], None),
    ("heads.loss_batch", [("swat.heads", "", "loss_batch")], None),
    ("heads.expectation_batch", [("swat.heads", "", "expectation_batch")], None),
    ("metrics.evaluate", [("swat.metrics", "", "evaluate")], lambda a, r: {"pairs": r.xauc_pairs}),
]


def install(recorder: Recorder) -> list[str]:
    """Wrap every site; returns the sites that could not be found."""
    missing = []
    wrapped: dict[int, object] = {}  # one wrapper per original function
    for name, sites, counters in SITES:
        for module_name, owner_path, attr in sites:
            owner = sys.modules.get(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}:{owner_path}.{attr}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if id(fn) not in wrapped:
                wrapped[id(fn)] = recorder.wrap(name, fn, counters)
            replacement = wrapped[id(fn)]
            setattr(owner, attr, classmethod(replacement) if is_classmethod else replacement)
    return missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the swat package")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the swat arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import swat.cli  # noqa: PLC0415 -- the import is what is being timed

    import_s = time.perf_counter() - started
    if not Path(swat.cli.__file__).resolve().is_relative_to(src):
        print(f"swat imported from {swat.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = Recorder(args.trace_id)
    missing = install(recorder)
    code = swat.cli.main(argv)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"trace": args.trace_id, "import_s": import_s, "exit": code,
                   "missing": missing, "spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
