"""Cold-process benchmark of the fibdirichlet CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --frontier

Run from the root of a source checkout.  Every invocation of the CLI is a
fresh ``python3 -m fibdirichlet.cli`` process over the checkout's ``src/``,
because that is how users run it: each starts with cold process-global memos.
One closed-loop caller runs one child at a time.

Workloads (``WORKLOADS``): ``theorem1``, ``contract``, ``series`` and
``rank``.  The seed picks only the three ``rank`` primes; the other inputs
are fixed.  Every output is checked: exit status, the workload's own output
check, and the sha256 of stdout (and of a written cache file) against
``bench/golden.json`` where that holds a digest for the invocation.  The
golden set holds the default-seed invocations as the commit that added the
benchmark wrote them; changes meant to keep outputs byte-identical gate on it.

With ``--trace 0`` the metrics are end-to-end: ``wall_s`` and ``cpu_s`` are
medians over the timed passes (one pass runs the workload's invocations
once), ``peak_rss_mb`` the largest child max RSS, and ``setup_s`` the median
cold start plus, for ``contract``, the median warm-cache write.

The times are given at a fixed host speed.  On a virtual machine whose cores
are shared with other tenants, the same pass can take twice as long from one
minute to the next, which no run length averages out.  So while a child
runs, it is stopped every ``PROBE_EVERY_S`` seconds for a short probe of the
benchmark's own (``probe_work``, never the library's code), and the probe
runs once more before and after it.  The child's wall time leaves out the
stops, and its times are scaled by ``PROBE_S`` over the mean probe time: they
read as seconds on a host where the probe takes ``PROBE_S``.  The benchmark
and its children are pinned to one CPU, so the probe measures the core the
child runs on.  The measured, unscaled medians are printed on ``#`` lines.
Traced runs and ``--frontier`` are not probed.

``--frontier`` reports, never asserts, how far ``verify theorem1`` and
``contract mu 3`` get under the default budget within ``FRONTIER_LIMIT_S``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.5
# A round figure for ``probe_work``'s time on the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on (CPython 3.11), where it took 0.025
# to 0.05 s as other tenants' load came and went.
PROBE_S = 0.035
CHILD_TIMEOUT_S = 120   # a child running longer is killed and counts as failed
FRONTIER_LIMIT_S = 30
CACHE_ARG = "{cache}"

# --- independent Fibonacci arithmetic (never the library's) ---


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F(n) mod m, F(n+1) mod m) by fast doubling."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a) % m, (a * a + b * b) % m
        if bit == "1":
            a, b = b, (a + b) % m
    return a, b


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n up to ~10^8)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_rank(r: int, p: int) -> bool:
    """True iff r is the rank of apparition of p: p | F(r), p ∤ F(r/q)."""
    if r < 1 or fib_pair_mod(r, p)[0] != 0:
        return False
    return all(fib_pair_mod(r // q, p)[0] != 0 for q in prime_factors(r))


def rank_primes(seed: int, count: int = 3, lo: int = 10**7,
                hi: int = 11 * 10**6) -> list[int]:
    """``count`` distinct primes p in [lo, hi] of full rank p - (5|p).

    Full rank makes the library's scan length about p for every seed, so the
    seed changes the inputs and not the amount of work.
    """
    rng = random.Random(seed)
    chosen: list[int] = []
    while len(chosen) < count:
        p = rng.randrange(lo | 1, hi, 2)
        if p in chosen or prime_factors(p) != [p]:
            continue
        full = p - 1 if p % 5 in (1, 4) else p + 1
        if is_rank(full, p):
            chosen.append(p)
    return chosen


# --- host speed probe (the benchmark's own code, never the library's) ---


def probe_work() -> int:
    """A small fixed piece of work of the program's kinds.

    Trial-division factorisations kept in a dict and products modulo a
    127-bit prime: its time follows the host's speed the way the workloads'
    times do.
    """
    memo = {}
    for n in range(2, 12000):
        m, p, factors = n, 2, []
        while p * p <= m:
            while m % p == 0:
                m //= p
                factors.append(p)
            p += 1
        memo[n] = factors
    x, mod = 3, (1 << 127) - 1
    for _ in range(12000):
        x = (x * x + 1) % mod
    return len(memo) + x % 1000


def probe_s() -> float:
    """Wall time of one ``probe_work`` in this process."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


# --- output checks: each returns an error text, or None when correct ---


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def check_fib1(stdout: str, argv: list[str]) -> Optional[str]:
    return None if stdout == "1\n" else "fib 1 did not print 1"


def check_pi_alpha(stdout: str, argv: list[str]) -> Optional[str]:
    return None if stdout == "PASS pi-alpha [x<=120]\n" else "pi-alpha did not pass"


def check_theorem1(stdout: str, argv: list[str]) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != 5 or not all(line.startswith("PASS ") for line in lines):
        return f"expected five PASS lines, got {lines!r}"
    return None


def check_contract(stdout: str, argv: list[str]) -> Optional[str]:
    rows = _csv_rows(stdout)
    n_max = int(argv[3])
    if [row["n"] for row in rows] != [str(n) for n in range(1, n_max + 1)]:
        return "rows are not n = 1..n_max"
    for row in rows:
        if row["match"] != "yes" or row["direct"] == "budget-exceeded":
            return f"row n={row['n']} direct={row['direct']} match={row['match']}"
    return None


def check_series(stdout: str, argv: list[str]) -> Optional[str]:
    rows = _csv_rows(stdout)
    if [row["which"] for row in rows] != ["lambda", "mu", "mu2", "mu3"]:
        return "expected rows lambda, mu, mu2, mu3"
    failing = [row["which"] for row in rows if row["passed"] != "True"]
    return f"not passed for {failing}" if failing else None


def check_alpha(stdout: str, argv: list[str]) -> Optional[str]:
    p = int(argv[1])
    try:
        r = int(stdout)
    except ValueError:
        return f"no integer in {stdout!r}"
    return None if is_rank(r, p) else f"{r} is not the rank of {p}"


# --- workloads ---


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]                 # CACHE_ARG marks the cache path
    check: Callable[[str, list[str]], Optional[str]]
    warm_cache: bool = False              # start from a copy of the warm cache

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: Callable[[int], list[Invocation]]


FIB1 = Invocation(("fib", "1"), check_fib1)
WARM_CACHE_WRITER = Invocation(("verify", "pi-alpha", "--x", "120", "--cache",
                                CACHE_ARG), check_pi_alpha)

WORKLOADS = {w.name: w for w in (
    Workload("theorem1", "the paper's identity at x = 100: verify's own loops,"
             " divisor re-factoring and F(d*m) recomputation",
             lambda seed: [Invocation(("verify", "theorem1", "--x", "100"),
                                      check_theorem1)]),
    Workload("contract", "contract mu 3 120 from a warm cache: contraction,"
             " rank tests, mu on huge divisors, cache read and rewrite",
             lambda seed: [Invocation(("contract", "mu", "3", "120", "--cache",
                                       CACHE_ARG), check_contract,
                                      warm_cache=True)]),
    Workload("series", "series --s 3 --n 200000: mu on every n <= N through the"
             " closed forms, no Fibonacci or cache work",
             lambda seed: [Invocation(("series", "--s", "3", "--n", "200000"),
                                      check_series)]),
    Workload("rank", "alpha of three seed-chosen full-rank primes in"
             " [1e7, 1.1e7], each in its own process: the rank scan only",
             lambda seed: [Invocation(("alpha", str(p)), check_alpha)
                           for p in rank_primes(seed)]),
)}


# --- running children ---


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    speed: float         # PROBE_S over the mean probe time during the run


@dataclass
class Runner:
    root: Path
    work: Path
    golden: dict
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def cache_path(self) -> Path:
        return self.work / "run.cache"

    @property
    def warm_path(self) -> Path:
        return self.work / "warm.cache"

    def env(self) -> dict:
        env = dict(os.environ)
        env.pop("FIBDIRICHLET_CACHE", None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        return env

    def spawn(self, command: list[str], probe: bool = True
              ) -> tuple[float, float, int, int, str, str, float]:
        """Run one child to exit.

        Returns (wall, cpu, maxrss_kb, status, stdout, stderr, speed).  With
        ``probe``, the host speed is probed before, during and after the run
        (see the module docstring); otherwise the speed is 1.
        """
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        probes = [probe_s()] if probe else []
        paused = 0.0
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(command, stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL, cwd=self.root,
                                     env=self.env())
            exited = os.pidfd_open(child.pid)   # readable once it exits
            try:
                due = start + PROBE_EVERY_S
                while True:
                    select.select([exited], [], [],
                                  max(0.0, due - time.perf_counter()))
                    pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() < due:
                        continue
                    if time.perf_counter() - start > CHILD_TIMEOUT_S:
                        child.kill()   # counts as failed
                    elif probe:
                        paused += self.probe_stopped(child.pid, probes)
                    due = time.perf_counter() + PROBE_EVERY_S
                wall = time.perf_counter() - start - paused
            except BaseException:   # interrupted: leave no child behind
                child.kill()
                child.wait()
                raise
            finally:
                os.close(exited)
        child.returncode = os.waitstatus_to_exitcode(status)
        if probe:
            probes.append(probe_s())
        speed = PROBE_S / statistics.fmean(probes) if probe else 1.0
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                child.returncode, out_path.read_text(), err_path.read_text(),
                speed)

    @staticmethod
    def probe_stopped(pid: int, probes: list[float]) -> float:
        """Stop the child, probe, resume it; return how long it was stopped."""
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        # WNOWAIT: an exit stays for the caller's wait4 to collect.
        info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        if info.si_code == os.CLD_STOPPED:
            probes.append(probe_s())
            os.kill(pid, signal.SIGCONT)
        return time.perf_counter() - start

    def invoke(self, inv: Invocation, tracer: Optional[Path] = None) -> Result:
        """Run one invocation and check it; tracer names a stats file to write."""
        if inv.warm_cache:
            shutil.copyfile(self.warm_path, self.cache_path)
        elif CACHE_ARG in inv.argv:
            self.cache_path.unlink(missing_ok=True)
        argv = [str(self.cache_path) if a == CACHE_ARG else a for a in inv.argv]
        if tracer is None:
            command = [sys.executable, "-m", "fibdirichlet.cli", *argv]
        else:
            traced_out = self.work / "traced.out"
            traced_out.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "layertrace.py"),
                       str(tracer), str(traced_out), *argv]
        wall, cpu, rss, status, stdout, stderr, speed = self.spawn(
            command, probe=tracer is None)
        if tracer is not None:
            stdout = traced_out.read_text() if traced_out.exists() else ""
        error = None
        if status != 0:
            error = f"exit {status}: {stderr.strip()[-300:]}"
        else:
            error = inv.check(stdout, argv)
        error = error or self.check_digest("stdout", inv.key, stdout.encode())
        if error is None and CACHE_ARG in inv.argv:
            error = self.check_digest("cache_file", inv.key,
                                      self.cache_path.read_bytes())
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{inv.key}: {error}")
        return Result(wall, cpu, rss, stdout, speed)

    def check_digest(self, kind: str, key: str, data: bytes) -> Optional[str]:
        expected = self.golden.get(kind, {}).get(key)
        digest = hashlib.sha256(data).hexdigest()
        if expected is not None and digest != expected:
            return f"{kind} sha256 {digest} differs from golden {expected}"
        return None

    def setup(self, invocations: list[Invocation]) -> float:
        """Median cold start, plus the median warm-cache write if needed."""
        self.invoke(FIB1)   # compiles bytecode once per checkout; not timed
        steps = [FIB1]
        if any(inv.warm_cache for inv in invocations):
            steps.append(WARM_CACHE_WRITER)
        scaled = measured = 0.0
        for step in steps:
            results = [self.invoke(step) for _ in range(SETUP_REPEATS)]
            scaled += statistics.median(r.wall_s * r.speed for r in results)
            measured += statistics.median(r.wall_s for r in results)
        if len(steps) > 1:
            shutil.copyfile(self.cache_path, self.warm_path)
        print(f"# setup_s measured = {measured:.6g} s")
        return scaled


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"n={n}; p{pct}={value:.6g}"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_context(seed: int, root: Path) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode())
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "seed": seed, "git_commit": commit,
            "src_sha256": source.hexdigest(),
            "loadavg_before": _read("/proc/loadavg").strip()}


def timed_passes(runner: Runner, invocations: list[Invocation],
                 seconds: float) -> list[list[Result]]:
    """Repeat the invocations until ``seconds`` would be exceeded."""
    passes: list[list[Result]] = []
    start = time.perf_counter()
    while True:
        passes.append([runner.invoke(inv) for inv in invocations])
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(r.wall_s for r in p) for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def end_to_end(passes: list[list[Result]], setup_s: float) -> dict:
    walls = [sum(r.wall_s * r.speed for r in p) for p in passes]
    cpus = [sum(r.cpu_s * r.speed for r in p) for p in passes]
    peak = max(r.maxrss_kb for p in passes for r in p) / 1024
    for name, values in (("wall_s", walls), ("cpu_s", cpus)):
        print(f"# {name} per pass: {' '.join(f'{v:.3f}' for v in values)}; "
              + percentile_note(values))
    measured = statistics.median(sum(r.wall_s for r in p) for p in passes)
    speeds = [r.speed for p in passes for r in p]
    print(f"# wall_s measured = {measured:.6g} s; host speed against the "
          f"probe {min(speeds):.3f}..{max(speeds):.3f}")
    return {"wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak, "MB"),
            "setup_s": (setup_s, "s")}


# (function, stats) in report order.  "contraction.closed_forms" sums the
# five closed_* functions.  ``distinct_ratio`` is distinct first arguments
# over calls, ``true_ratio`` true results over calls.
LAYER_METRICS = (
    ("numtheory.factorize", ("calls", "self_s", "distinct_ratio", "errors")),
    ("numtheory.mobius", ("calls", "total_s")),
    ("numtheory.divisors", ("calls", "items", "self_s")),
    ("numtheory.is_prime", ("calls", "self_s")),
    ("numtheory.liouville", ("total_s",)),
    ("numtheory.euler_phi", ("total_s",)),
    ("numtheory.mangoldt_base", ("total_s",)),
    ("fib.fib", ("calls", "self_s")),
    ("fib.fib_mod", ("calls", "self_s")),
    ("fib.divisor_has_rank", ("calls", "true_ratio", "total_s")),
    ("fib.fib_factorization", ("calls", "distinct_ratio", "total_s")),
    ("fib.rank", ("calls", "self_s")),
    ("contraction.contributors", ("calls", "total_s")),
    ("contraction.alpha_contract", ("calls", "self_s", "total_s")),
    ("contraction.divisor_union_ranks", ("self_s", "total_s")),
    ("contraction.closed_forms", ("calls", "self_s")),
    ("verify.check_theorem1", ("self_s",)),
    ("verify.euler_product_check", ("self_s",)),
    ("verify.run_suite", ("total_s",)),
    ("cache.load_cache_file", ("total_s",)),
    ("cache.apply_records", ("total_s",)),
    ("cache.collect_records", ("total_s",)),
    ("cache.save_cache_file", ("total_s",)),
    ("cli.main", ("self_s",)),
    ("cli.emit_rows", ("total_s",)),
)
CLOSED_FORMS = tuple(f"contraction.{name}" for name in (
    "closed_mu_alpha", "closed_mu_alpha2", "closed_mu_alpha3",
    "closed_lambda_alpha", "closed_delta23"))


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat.endswith("_ratio") else "count"


def per_layer(stats: list[dict], overhead_s: float) -> dict:
    """Sum the traced invocations' stats into the named per-layer metrics."""
    sums: dict[str, float] = defaultdict(int)
    for s in stats:
        for pair in s["pairs"]:
            for stat in ("calls", "total_s", "self_s", "errors"):
                sums[f"{pair['function']}.{stat}"] += pair[stat]
        for name, value in s["counts"].items():
            sums[name] += value
    for stat in ("calls", "self_s"):
        sums[f"contraction.closed_forms.{stat}"] = sum(
            sums[f"{f}.{stat}"] for f in CLOSED_FORMS)
    for f, count in (("numtheory.factorize", "distinct"),
                     ("fib.fib_factorization", "distinct"),
                     ("fib.divisor_has_rank", "true")):
        calls = sums[f"{f}.calls"]
        sums[f"{f}.{count}_ratio"] = sums[f"{f}.{count}"] / calls if calls else 0.0
    names = [f"{f}.{stat}" for f, stat_names in LAYER_METRICS
             for stat in stat_names] + ["cache.records_loaded"]
    metrics = {name: (sums[name], _unit(name)) for name in names}
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def run_workload(args: argparse.Namespace, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    work = root / ".bench_build" / "bench"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, json.loads(GOLDEN_PATH.read_text()))
    context = run_context(args.seed, root)
    invocations = workload.invocations(args.seed)
    print(f"# workload {workload.name}: {workload.why}")
    print("# argv: " + " | ".join(inv.key for inv in invocations))

    setup_s = runner.setup(invocations)
    passes = timed_passes(runner, invocations, args.seconds)
    metrics = end_to_end(passes, setup_s)
    if args.trace:
        stats = []
        traced_wall = 0.0
        for i, inv in enumerate(invocations):
            stats_path = work / f"trace-{workload.name}-{i}.json"
            stats_path.unlink(missing_ok=True)
            traced = runner.invoke(inv, tracer=stats_path)
            traced_wall += traced.wall_s
            if traced.stdout != passes[0][i].stdout:
                runner.failures.append(f"{inv.key}: traced stdout differs "
                                       "from the untraced run")
            if stats_path.exists():
                stats.append(json.loads(stats_path.read_text()))
        untraced = statistics.median(sum(r.wall_s for r in p) for p in passes)
        metrics = per_layer(stats, traced_wall - untraced)

    context["loadavg_after"] = _read("/proc/loadavg").strip()
    failed = len(runner.failures)
    print("# context " + json.dumps(context, sort_keys=True))
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(f"# fail_ratio = {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


FRONTIER = (
    ("verify theorem1", lambda x: ["verify", "theorem1", "--x", str(x)],
     range(60, 200, 10)),
    ("contract mu 3", lambda n: ["contract", "mu", "3", str(n)],
     range(100, 200, 10)),
)


def run_frontier(root: Path) -> int:
    """Largest x finishing within the limit, and the first x that does not."""
    work = root / ".bench_build" / "bench"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, {})
    report = {"limit_s": FRONTIER_LIMIT_S, "context": run_context(DEFAULT_SEED, root)}
    for name, make_argv, xs in FRONTIER:
        largest, first_failure = None, None
        for x in xs:
            command = [sys.executable, "-m", "fibdirichlet.cli", *make_argv(x)]
            wall, _, _, status, stdout, _, _ = runner.spawn(command, probe=False)
            over_budget = status == 3 or "budget-exceeded" in stdout
            print(f"# {name} x={x}: exit {status}, {wall:.2f} s"
                  + (", budget exceeded" if over_budget else ""))
            if status != 0 or over_budget or wall > FRONTIER_LIMIT_S:
                first_failure = {"x": x, "exit": status, "wall_s": wall,
                                 "budget_exceeded": over_budget}
                break
            largest = {"x": x, "wall_s": wall}
        report[name] = {"largest_finished": largest, "first_not_finished": first_failure}
    print(json.dumps(report, sort_keys=True))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true",
                        help="report the scale frontier instead")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # The probe and the children run on one CPU, so that the probe measures
    # the speed of the core the children get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "fibdirichlet" / "cli.py").is_file():
        print("error: run from the root of a fibdirichlet checkout "
              "(no src/fibdirichlet/cli.py here)", file=sys.stderr)
        return 2
    if args.frontier:
        return run_frontier(root)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
