"""Benchmark for induced_trees: one workload, one seed, one process.

    python3 perfbench/run.py --workload tf-layered --seed 1 --seconds 15 --trace 0

The load is a closed loop: each op starts after the previous one ends, in
this one process, with no extra threads.  A run sets the workload up at
least three times and for at least two seconds (the median is `setup_s`),
then runs whole passes over the workload's ops for about `--seconds`:
the pass count whose end is nearest to it, at least two.  Every op is
checked, and every pass must reproduce the first pass's certificate
digest and per-op outcomes.  `par2_ms` pools every op's score from every
pass; the median and the tail are taken over each op's median score.

Timings are in ms (and `setup_s` in s) at the reference host speed.  The
host this runs on is shared, and its speed drifts by a fifth or more over
minutes.  So a run also times a fixed slice of interpreter work,
`reference_work`, that no change to the package touches: between ops,
one for every REF_EVERY_S since the last, and around each set-up.  Each
op's time is scaled by REF_SLICE_MS over the median of the REF_WINDOW
slices nearest to it.  A failed op's PAR-2 score is not scaled.  The
stamp's `host_speed` is REF_SLICE_MS over the run's median slice time.

`--trace 0` prints the end-to-end metrics.  `--trace 1` sets up once with
the tracer on, runs one untraced and one traced pass, checks that their
digests and per-op outcomes match, and prints the per-layer metrics.  The
last stdout line is the result object; the line before it carries the
stamp (versions, digests, failure kinds).  Exit code 0 means the run
completed; with `correct` false it still completes.

Scoring is PAR-2: a failed op, or one over the workload's per-op limit,
scores twice that limit.  Timeouts are enforced with SIGALRM.  The
interpreter's default recursion limit is required, never raised, so depth
defects keep showing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RECURSION_LIMIT = 1000
SETUP_REPEATS = 3  # at least; more until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
MIN_PASSES = 2
TAIL_OPS_BEYOND = 5  # ops the tail leaves above it: ten samples in MIN_PASSES passes
SETUP_LAYERS = ("generators.", "graph.format_edge_list")
REF_SLICE_MS = 1.5  # about a slice's median time on the 2-core x86-64 VM, Python 3.11.7,
                    # that measured baseline.json
REF_EVERY_S = 0.05
REF_WINDOW = 11


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in
    the package swallows it."""


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame):
        if cls.armed:
            raise OpTimeout()


def timed(call, limit_s: float):
    """(elapsed_ns, value, failure kind or None) of one op under the limit."""
    value, failure = None, None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    _Alarm.armed = True
    start = time.perf_counter_ns()
    try:
        value = call()
        _Alarm.armed = False
    except OpTimeout:
        failure = "timeout"
    except Exception as exc:  # any exception is the op's failure, recorded by type
        failure = f"exception:{type(exc).__name__}"
    finally:
        elapsed = time.perf_counter_ns() - start
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if failure is None and elapsed > limit_s * 1e9:
        failure = "timeout"
    return elapsed, value, failure


def reference_work() -> int:
    """A fixed slice of interpreter work, about REF_SLICE_MS long: integer
    arithmetic, set and list growth and big-int masks, the operations the
    finders spend their time in."""
    x = 0
    for i in range(10000):
        x += i * i % 7
    seen, order, mask = set(), [], 0
    for i in range(2000):
        seen.add(i * 7919 % 2003)
        order.append(i)
        mask |= 1 << (i % 700)
    return x + len(seen) + len(order) + mask.bit_count()


class HostSpeed:
    """Times of reference slices, to scale the work timed between them."""

    def __init__(self):
        self.starts_ns: list[int] = []
        self.slices_ns: list[int] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter_ns()
            reference_work()
            self.starts_ns.append(start)
            self.slices_ns.append(time.perf_counter_ns() - start)

    def sample_due(self) -> None:
        """One slice per REF_EVERY_S since the last, up to half a window,
        so that a long op has slices close to it on both sides."""
        due = int((time.perf_counter_ns() - self.starts_ns[-1]) / (REF_EVERY_S * 1e9))
        self.sample(min(due, REF_WINDOW // 2))

    def factor(self, at_ns: int) -> float:
        """REF_SLICE_MS over the median of the REF_WINDOW slices nearest
        to `at_ns`."""
        i = bisect.bisect_left(self.starts_ns, at_ns)
        lo = max(0, min(i - REF_WINDOW // 2, len(self.starts_ns) - REF_WINDOW))
        return REF_SLICE_MS * 1e6 / statistics.median(self.slices_ns[lo:lo + REF_WINDOW])

    @property
    def sampled_s(self) -> float:
        return sum(self.slices_ns) / 1e9


class PassResult:
    def __init__(self):
        self.keys: list[str] = []
        self.scores_ms: list[float] = []
        self.speed = HostSpeed()
        self.failures: list[str | None] = []
        self.ratios: list[float] = []
        self.cert_hash = hashlib.sha256()
        self.wall_s = 0.0

    @property
    def digest(self) -> str:
        return self.cert_hash.hexdigest()

    @property
    def outcome_digest(self) -> str:
        text = "\n".join(f"{k}={f or 'ok'}" for k, f in zip(self.keys, self.failures))
        return hashlib.sha256(text.encode()).hexdigest()


def freeze() -> None:
    """Move the inputs and the reference data out of the collector's view,
    so that collections during ops scan only what the package allocates."""
    gc.collect()
    gc.freeze()


def more_passes(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether another pass ends the run nearer to `seconds` than stopping
    now: a run of slow passes neither stops short nor runs on by nearly a
    whole pass."""
    return elapsed + elapsed / passes / 2 < seconds


def tail_percentile(ops_per_pass: int) -> float:
    return 100.0 * (1.0 - TAIL_OPS_BEYOND / ops_per_pass) if ops_per_pass else 0.0


def run_pass(workload, inputs, tracer=None) -> PassResult:
    from workloads import Checked

    res = PassResult()
    limit = workload.op_limit_s
    op_starts, op_ms = [], []
    gc.collect()
    started = time.perf_counter()
    res.speed.sample()
    for idx, op in enumerate(workload.ops(inputs)):
        if tracer is not None:
            tracer.op = idx
        op_starts.append(time.perf_counter_ns())
        elapsed, value, failure = timed(op.call, limit)
        if tracer is not None:
            tracer.op = -1
        checked = Checked(failure)
        if failure is None:
            try:
                checked = op.check(value)
            except Exception:  # an answer the check cannot read is a wrong answer
                checked = Checked("verification")
        res.keys.append(op.key)
        res.failures.append(checked.failure)
        ok = checked.failure is None
        op_ms.append(elapsed / 1e6 if ok else None)
        if ok and checked.ratio is not None:
            res.ratios.append(checked.ratio)
        if checked.cert is not None:
            res.cert_hash.update(f"{op.key}\n{checked.cert}\n".encode())
        res.speed.sample_due()
    res.wall_s = time.perf_counter() - started - res.speed.sampled_s
    res.speed.sample()
    res.scores_ms = [2e3 * limit if ms is None else ms * res.speed.factor(at)
                     for at, ms in zip(op_starts, op_ms)]
    return res


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(passes, setup_times) -> dict[str, float]:
    """par2_ms is the mean of every op's score in every pass.  op_p50_ms
    and op_tail_ms are taken over each op's median score across the
    passes, so that one slow pass of an op moves neither; with at least
    MIN_PASSES passes, the ops above the tail have at least ten scores."""
    first = passes[0]
    failed = sum(f is not None for f in first.failures)
    per_op = sorted(statistics.median(s) for s in zip(*(p.scores_ms for p in passes)))
    return {
        "par2_ms": statistics.fmean(x for p in passes for x in p.scores_ms),
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": per_op[max(0, len(per_op) - TAIL_OPS_BEYOND - 1)],
        "ok_ratio": 1.0 - failed / len(first.failures),
        "tree_over_bound_mean": statistics.fmean(first.ratios) if first.ratios else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def consistency_errors(passes, labels) -> list[str]:
    errors = []
    for p, label in zip(passes[1:], labels[1:]):
        if p.keys != passes[0].keys or p.failures != passes[0].failures:
            errors.append(f"{label}: per-op outcomes differ from {labels[0]}")
        if p.digest != passes[0].digest:
            errors.append(f"{label}: certificate digest differs from {labels[0]}")
    return errors


def run(workload, seed: int, seconds: float, trace: bool, scale: dict, workdir: Path):
    """Returns (stamp, result) for one run."""
    import spans
    from workloads import WRONG_OUTPUT, add_references

    stamp: dict = {}
    if not trace:
        setup_spans, speed = [], HostSpeed()
        setups_started = time.perf_counter()
        while (len(setup_spans) < SETUP_REPEATS
               or time.perf_counter() - setups_started < SETUP_SECONDS):
            inputs = None
            gc.collect()
            speed.sample(REF_WINDOW // 2)
            started = time.perf_counter_ns()
            inputs = workload.setup(seed, workdir, scale)
            setup_spans.append((started, time.perf_counter_ns()))
        speed.sample(REF_WINDOW // 2)
        setup_times = [(end - start) / 1e9 * speed.factor((start + end) // 2)
                       for start, end in setup_spans]
        add_references(inputs)
        freeze()
        passes = []
        started = time.monotonic()
        while (len(passes) < MIN_PASSES
               or more_passes(time.monotonic() - started, len(passes), seconds)):
            passes.append(run_pass(workload, inputs))
        labels = [f"pass {i}" for i in range(len(passes))]
        metrics = end_to_end(passes, setup_times)
        slices = [ns for p in passes for ns in p.speed.slices_ns]
        stamp["host_speed"] = round(REF_SLICE_MS * 1e6 / statistics.median(slices), 4)
    else:
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        try:
            inputs = workload.setup(seed, workdir, scale)
        finally:
            setup_tracer.uninstall()
        add_references(inputs)
        freeze()
        plain = run_pass(workload, inputs)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        passes, labels = [plain, traced], ["untraced pass", "traced pass"]
        setup_tracer.write(workdir.parent / f"spans-{workload.name}-setup.csv")
        tracer.write(workdir.parent / f"spans-{workload.name}-pass.csv")
        # A layer that never ran reads 0.
        metrics = defaultdict(int, layer_metrics(tracer, setup_tracer))
        metrics["ops.fail_ratio"] = sum(f is not None for f in plain.failures) / len(plain.keys)
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        stamp["trace_missing"] = tracer.missing
    gc.unfreeze()
    errors = consistency_errors(passes, labels)
    wrong = sorted({f for p in passes for f in p.failures if f in WRONG_OUTPUT})
    errors += [f"wrong output: {kind}" for kind in wrong]
    first = passes[0]
    stamp.update({
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "recursion_limit": sys.getrecursionlimit(),
        "op_limit_s": workload.op_limit_s, "passes": len(passes),
        "ops_per_pass": len(first.keys),
        "tail_percentile": round(tail_percentile(len(first.keys)), 4),
        "digest": first.digest, "outcome_digest": first.outcome_digest,
        "failures": dict(sorted(Counter(f for f in first.failures if f).items())),
        "errors": errors,
    })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": not errors,
        "attempted": sum(len(p.keys) for p in passes),
        "failed": sum(f is not None for p in passes for f in p.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }
    return stamp, result


def layer_metrics(tracer, setup_tracer) -> dict[str, float]:
    """Per-layer metrics of the traced pass, except set-up work (generators
    and formatting), which comes from the traced set-up."""
    out = {k: v for k, v in tracer.layer_metrics().items() if not k.startswith(SETUP_LAYERS)}
    out.update((k, v) for k, v in setup_tracer.layer_metrics().items()
               if k.startswith(SETUP_LAYERS))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        print(f"error: recursion limit is {sys.getrecursionlimit()}, "
              f"the benchmark needs the default {DEFAULT_RECURSION_LIMIT}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "induced_trees" / "__init__.py").is_file():
        print(f"error: package sources not found under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _Alarm.fire)
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stamp, result = run(workload, args.seed, args.seconds, bool(args.trace),
                            workload.full, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
