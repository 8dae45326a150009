"""Run one fibdirichlet CLI invocation in-process with its layers wrapped.

    python3 bench/layertrace.py STATS_JSON STDOUT_FILE ARG...

Imports the package (from ``PYTHONPATH``), replaces every traced function in
every module namespace that binds it, and in the references captured at
import time (``ArithFn.fn``, ``NAMED_FUNCTIONS``, ``CLOSED_FORMS``,
``EULER_SERIES``).  Then it runs ``cli.main(ARG...)`` with stdout sent to
STDOUT_FILE and exits with its status.  The program itself is unchanged.

Each call records its span (id, parent, name, start, end) in memory.  Once a
(function, caller) pair passes ``SPAN_LIMIT`` calls, its further calls are
only added up, so the trace stays small.  At exit STATS_JSON receives, per
(function, caller): calls, total time, self time (total minus the time of the
wrapped functions it called) and errors, plus the argument and result counts
that the benchmark's per-layer ratios need.  The spans go to STATS_JSON with
``.spans`` appended, as the native-endian ``array`` columns that
``STATS_JSON["spans"]["columns"]`` names, one after the other, each
``STATS_JSON["spans"]["count"]`` long; ``label`` indexes ``["labels"]``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "numtheory": ("factorize", "mobius", "divisors", "is_prime", "liouville",
                  "euler_phi", "mangoldt_base"),
    "fib": ("fib", "fib_mod", "divisor_has_rank", "fib_factorization", "rank"),
    "contraction": ("contributors", "alpha_contract", "divisor_union_ranks",
                    "closed_mu_alpha", "closed_mu_alpha2", "closed_mu_alpha3",
                    "closed_lambda_alpha", "closed_delta23"),
    "verify": ("check_theorem1", "euler_product_check", "run_suite"),
    "cache": ("load_cache_file", "apply_records", "collect_records",
              "save_cache_file"),
    "cli": ("main", "emit_rows"),
}

# Functions whose first argument is tallied for a distinct-argument ratio.
DISTINCT_ARGS = ("numtheory.factorize", "fib.fib_factorization")

# Results tallied per function: divisors listed, true rank tests, records read.
RESULT_COUNTS = {"numtheory.divisors": "numtheory.divisors.items",
                 "fib.divisor_has_rank": "fib.divisor_has_rank.true",
                 "cache.load_cache_file": "cache.records_loaded"}

SPAN_LIMIT = 100_000
SPAN_COLUMNS = (("id", "q"), ("parent", "q"), ("label", "i"),
                ("start_s", "d"), ("end_s", "d"))


class Tracer:
    def __init__(self, error_type: type) -> None:
        self.error_type = error_type
        self.labels: list[str] = []
        self.stack: list[list] = []      # [label, child_s, span_id]
        self.depth: dict[str, int] = defaultdict(int)
        # (label, caller) -> [calls, total_s, self_s, errors]
        self.pairs: dict[tuple[str, str], list] = {}
        self.args: dict[str, set] = {label: set() for label in DISTINCT_ARGS}
        self.counts: dict[str, int] = defaultdict(int)
        self.next_span = 0
        self.spans = {name: array(code) for name, code in SPAN_COLUMNS}

    def wrap(self, label: str, fn):
        index = len(self.labels)
        self.labels.append(label)
        stack = self.stack
        depth = self.depth
        pairs = self.pairs
        seen = self.args.get(label)
        clock = time.perf_counter
        span_id, span_parent, span_label, span_start, span_end = (
            self.spans[name] for name, _ in SPAN_COLUMNS)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            caller = parent[0] if parent else "-"
            key = (label, caller)
            stat = pairs.get(key)
            if stat is None:
                stat = pairs[key] = [0, 0.0, 0.0, 0]
            stat[0] += 1
            if stat[0] <= SPAN_LIMIT:
                span = self.next_span
                self.next_span += 1
            else:
                span = -1
            parent_span = parent[2] if parent else -1
            frame = [label, 0.0, span if span >= 0 else parent_span]
            stack.append(frame)
            depth[label] += 1
            if seen is not None:
                seen.add(args[0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                stat[3] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[label] -= 1
                if depth[label] == 0:
                    stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if span >= 0:
                    span_id.append(span)
                    span_parent.append(parent_span)
                    span_label.append(index)
                    span_start.append(start)
                    span_end.append(end)
            if label in RESULT_COUNTS:
                self.counts[RESULT_COUNTS[label]] += (
                    bool(result) if label == "fib.divisor_has_rank"
                    else len(result))
            return result

        return traced

    def write(self, path: str) -> None:
        stats = {
            "pairs": [{"function": f, "caller": c, "calls": s[0],
                       "total_s": s[1], "self_s": s[2], "errors": s[3]}
                      for (f, c), s in sorted(self.pairs.items())],
            "counts": {**self.counts,
                       **{f"{k}.distinct": len(v) for k, v in self.args.items()}},
            "spans": {"count": len(self.spans["id"]),
                      "columns": SPAN_COLUMNS, "labels": self.labels},
        }
        with open(path, "w") as handle:
            json.dump(stats, handle, indent=1, sort_keys=True)
        with open(path + ".spans", "wb") as handle:
            for column in self.spans.values():
                column.tofile(handle)


def _patch(package: str, tracer: Tracer) -> None:
    """Swap each traced function wherever the package holds a reference."""
    swap: dict[int, object] = {}
    for short, names in TRACED.items():
        # Reach the module through sys.modules: ``fibdirichlet.fib`` as an
        # attribute is the re-exported function, not the module.
        importlib.import_module(f"{package}.{short}")
        module = sys.modules[f"{package}.{short}"]
        for name in names:
            original = getattr(module, name)
            swap[id(original)] = tracer.wrap(f"{short}.{name}", original)
    arith_fn = sys.modules[f"{package}.numtheory"].ArithFn

    def replace(value):
        if id(value) in swap:
            return swap[id(value)]
        if isinstance(value, arith_fn) and id(value.fn) in swap:
            object.__setattr__(value, "fn", swap[id(value.fn)])
        elif isinstance(value, tuple) and any(id(v) in swap for v in value):
            return tuple(swap.get(id(v), v) for v in value)
        elif isinstance(value, dict):
            for key, item in value.items():
                value[key] = replace(item)
        return value

    modules = [m for name, m in sorted(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    for module in modules:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if not attr.startswith("__"):
                namespace[attr] = replace(value)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    stats_path, stdout_path, cli_args = argv[0], argv[1], argv[2:]
    numtheory = importlib.import_module("fibdirichlet.numtheory")
    tracer = Tracer(numtheory.BudgetExceededError)
    _patch("fibdirichlet", tracer)
    cli = sys.modules["fibdirichlet.cli"]
    saved = sys.stdout
    with open(stdout_path, "w") as out:
        sys.stdout = out
        try:
            status = cli.main(cli_args)
        finally:
            sys.stdout = saved
    tracer.write(stats_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
