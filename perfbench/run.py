"""cechfib benchmark: one seeded workload, run end to end, answers checked.

    python3 perfbench/run.py --workload refine|classify|fiber|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in this one
process as a closed loop with one client and one job at a time.  Set-up
is repeated several times, before and after the measured passes: an
import of cechfib in a fresh interpreter, then input generation and
document writing; ``setup_s`` is the median.
Every time is scaled to a nominal machine speed, sampled all through
the run by ``speed.py``.
Passes over the workload's jobs then repeat while the next pass is
expected to end within ``--seconds``; at least one pass always runs.
With ``--trace 1`` half of that time runs untraced and half with spans
installed around every public cechfib function, and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is one JSON object.  ``--workload all`` runs every
workload in a fresh process of its own, one after the other, and
prefixes each metric of its last line with the workload's name.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import MIN_SAMPLES, NOMINAL_S, Sampler

HASH_SEED = "0"
SETUP_BEFORE, SETUP_AFTER = 5, 4
STATE_DIR = ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _reexec_with_fixed_hash_seed(root: Path):
    """Set-iteration order changes how much work some scans do, so every
    run uses one hash seed and compiles cechfib from source."""
    wanted = {"PYTHONHASHSEED": HASH_SEED, "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONPYCACHEPREFIX": str(root / STATE_DIR / "no-pycache")}
    if all(os.environ.get(k) == v for k, v in wanted.items()):
        return
    env = dict(os.environ, **wanted)
    sys.stdout.flush()
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import cechfib, cechfib.cli, cechfib.io
print(time.perf_counter() - t)
"""


def _time_import(src: Path):
    """Seconds to import cechfib in a fresh interpreter, startup excluded."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def _import_cechfib(src: Path):
    cf = importlib.import_module("cechfib")
    importlib.import_module("cechfib.cli")
    importlib.import_module("cechfib.io")
    if Path(cf.__file__).resolve().parent != (src / "cechfib").resolve():
        raise SystemExit(f"imported cechfib from {cf.__file__}, not {src}")
    return cf


def _quantile(values, q):
    """Inclusive-method quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _harrell_davis(values, q, steps=64):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by how much of Beta(q(n+1), (1-q)(n+1)) falls
    in each one's 1/n of [0, 1].  A job's time carries about 10% of
    noise even after scaling; the plain quantile reads one or two jobs
    and keeps all of it, this one averages it over the jobs nearby."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ts = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t)) for t in ts))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Runner:
    def __init__(self, cf, workload, sampler, tracer=None):
        self.cf = cf
        self.sampler = sampler
        self.workload = workload
        self.tracer = tracer
        self.digests = {}        # job name -> digest of its first report
        self.failures = {}       # job name -> first error
        self.attempted = 0
        self.failed = 0
        self.trace_marks = []    # per traced pass: (first span, end span, counters)

    def _outcome(self, job, value):
        """(error or None, digest, report bytes, result) for one job."""
        if job.api is not None:
            text = json.dumps(value, sort_keys=True).encode()
            return job.check(value), hashlib.sha256(text).hexdigest(), 0, value
        if value != job.expect:
            return (f"exit code {value}, want {job.expect}", None, 0, None)
        data = job.out.read_bytes()
        report = json.loads(data)
        return job.check(report), hashlib.sha256(data).hexdigest(), len(data), report

    def run_pass(self):
        gc.collect()      # every pass starts from the same heap state
        tracer = self.tracer
        if tracer:
            harness = tracer.func_id("harness", "harness.job")
            tracer.counters = {}
            first_span = tracer.mark()
        rows, results, spans = [], {}, []
        self._samples_at_edge()
        with self.sampler:
            for job in self.workload.jobs:
                rows.append(self._run_job(job, tracer, harness if tracer else None,
                                          results, spans))
        self._samples_at_edge()
        for row, (t0, t1) in zip(rows, spans):
            row["seconds"] = self.sampler.scaled(t0, t1)
            row["raw_seconds"] = t1 - t0
        extra = self.workload.pass_check(results) if self.workload.pass_check else {}
        for row in rows:
            row["error"] = row["error"] or extra.get(row["name"])
            if row["error"] is None and row["digest"] is not None:
                first = self.digests.setdefault(row["name"], row["digest"])
                if first != row["digest"]:
                    row["error"] = "report bytes differ from an earlier pass"
            self.attempted += 1
            if row["error"] is not None:
                self.failed += 1
                self.failures.setdefault(row["name"], row["error"])
        if tracer:
            self.trace_marks.append((first_span, tracer.mark(), tracer.counters))
        return rows

    def _samples_at_edge(self):
        """Speed samples before the first job and after the last, so that
        the jobs at either end are scaled by a stretch as wide as the
        others'."""
        for _ in range(MIN_SAMPLES // 2):
            self.sampler.sample()

    def _run_job(self, job, tracer, harness, results, spans):
        if job.out is not None and job.out.exists():
            job.out.unlink()
        sid = tracer.open(harness) if tracer else None
        t0 = time.perf_counter()
        try:
            value, raised = job.execute(self.cf), None
        except Exception as exc:   # a crashing job is a failed job
            value, raised = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.close(sid)
        spans.append((t0, t1))
        error, digest, size = raised, None, 0
        if raised is None:
            try:
                error, digest, size, result = self._outcome(job, value)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable report: {type(exc).__name__}: {exc}"
            else:
                results[job.name] = result
        return {"name": job.name, "tag": job.tag, "error": error,
                "digest": digest, "bytes": size}

    def run_for(self, seconds):
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                return passes


def _compare_with_earlier_runs(state: Path, src: Path, workload, seed,
                               runner):
    """Jobs whose bytes differ from a stored run of the same seed and the
    same code (the benchmark's and cechfib's sources) fail."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    files += sorted((src / "cechfib").rglob("*.py"))
    source = hashlib.sha256()
    for p in files:
        source.update(p.read_bytes())
    path = state / "digests" / f"{workload}-{seed}-{source.hexdigest()[:12]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text()) if path.exists() else {}
    changed = sorted(name for name, digest in runner.digests.items()
                     if stored.get(name, digest) != digest)
    for name in changed:
        runner.failures.setdefault(
            name, "report bytes differ from an earlier run of this seed")
    stored.update(runner.digests)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    whole = hashlib.sha256(
        "".join(f"{n}:{d}\n" for n, d in sorted(runner.digests.items())).encode()
    ).hexdigest()
    return changed, whole


def _pass_seconds(rows, key="seconds"):
    """Summed job time of a pass, scaled to the nominal speed unless
    key is "raw_seconds"."""
    return sum(r[key] for r in rows)


def _end_to_end(passes, setup_s, rss_mb):
    """Percentiles are taken within each pass, over the workload's job mix,
    then the median over passes; pooling the passes would move the
    percentile's rank with the number of passes that fit in a run."""
    def percentile(q):
        return statistics.median(
            _harrell_davis([r["seconds"] * 1000 for r in rows], q)
            for rows in passes)

    return {
        "run_s": (statistics.median(_pass_seconds(p) for p in passes), "s"),
        "job_p50_ms": (percentile(0.5), "ms"),
        "job_p90_ms": (percentile(0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }, sum(len(p) for p in passes)


def _per_layer(tracer, traced, untraced, marks, tables):
    """Declared per-layer metrics, and detail that is printed only: the
    harness's own time, and hit ratios that the workload fixes."""
    from tracer import HARNESS, LAYERS, TRACE

    per_pass = []
    for table, rows in zip(tables, traced):
        calls, own = tracer.layers(table)
        # Span times are raw; one factor per pass scales them to the
        # nominal speed, so that they still add up to traced.run_s.
        scale = _pass_seconds(rows) / _pass_seconds(rows, "raw_seconds")
        own = {layer: s * scale for layer, s in own.items()}
        names = {tracer.names[f]: row[0] for f, row in table.items()}
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = (calls.get(layer, 0), "count")
            values[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
        values[f"{HARNESS}.self_s"] = (own.get(HARNESS, 0.0), "s")
        values[f"{TRACE}.self_s"] = (own.get(TRACE, 0.0), "s")
        values["traced.run_s"] = (_pass_seconds(rows), "s")
        values["homology.point_like_calls"] = (names.get("is_point_like", 0), "count")
        values["homology.iso_checks"] = (
            names.get("map_induces_homology_isomorphism", 0), "count")
        values["covers.goodness_checks"] = (names.get("is_good_cover", 0), "count")
        values["cli.report_bytes"] = (sum(r["bytes"] for r in rows), "bytes")
        per_pass.append((values, names))
    out = {}
    for key in per_pass[0][0]:
        unit = per_pass[0][0][key][1]
        out[key] = (statistics.median(v[key][0] for v, _ in per_pass), unit)
    detail = {HARNESS: out.pop(f"{HARNESS}.self_s")[0]}
    last_names = per_pass[-1][1]
    counters = marks[-1][2]
    for key, unit in (("complexes.simplices_out", "count"),
                      ("snf.cells_in", "count"), ("snf.nonzeros_in", "count"),
                      ("covers.nerve_simplices_out", "count"),
                      ("groups.homs_out", "count"),
                      ("bundles.total_simplices_out", "count")):
        out[key] = (counters.get(key, 0), unit)
    for key, hits, fn in (
            ("cocycles.equiv_hit_ratio", "cocycles.equiv_hits", "are_equivalent"),
            ("gerbes.equiv_hit_ratio", "gerbes.equiv_hits", "gerbes_equivalent"),
            ("bundles.iso_found_ratio", "bundles.iso_found", "bundle_isomorphism")):
        calls = last_names.get(fn, 0)
        detail[key] = f"{counters.get(hits, 0)}/{calls}"
    out["trace.overhead_s"] = (
        out["traced.run_s"][0]
        - statistics.median(_pass_seconds(p) for p in untraced), "s")
    return out, detail


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cechfib" / "__init__.py").is_file():
        print(f"perfbench: no cechfib sources under {src}", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from workloads import WORKLOADS
    from model import standard_groups

    if args.workload not in WORKLOADS and args.workload != "all":
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    _reexec_with_fixed_hash_seed(root)
    sys.path.insert(0, str(src))

    state = root / STATE_DIR
    work = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, src, state, work, WORKLOADS[args.workload],
                    standard_groups())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_all(args, workloads):
    """Each workload in a fresh process, one after the other; the last
    line sums the outcomes and prefixes every metric with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _run(args, src, state, work, build, groups):
    # Set-up is timed several times, before the passes and again after
    # them, so that it samples the machine's speed over the same stretch
    # as the passes do; setup_s is the median of the repeats.
    setups = []
    sampler = Sampler()
    docs = work / "docs"
    docs.mkdir(parents=True)

    def set_up():
        """One repeat: import cechfib in a fresh interpreter (a second
        import into this process would slow every later pass, by about a
        fifth on refine), then generate and write every document.  Every
        repeat writes the same files in one directory: creating files in
        a fresh directory took from 0.04 to 0.28 s for the same
        documents, depending on the file system's recent history."""
        gc.collect()
        for _ in range(MIN_SAMPLES // 2):
            sampler.sample()
        t0 = time.perf_counter()
        import_s = _time_import(src)
        t1 = time.perf_counter()
        built = build(args.seed, docs, groups)
        t2 = time.perf_counter()
        for _ in range(MIN_SAMPLES // 2):
            sampler.sample()
        scale = sampler.scale(t0, t2)
        setups.append((import_s * scale, (t2 - t1) * scale))
        return built

    for _ in range(SETUP_BEFORE - 1):
        set_up()
    workload = set_up()
    cf = _import_cechfib(src)
    # Spread each kind of job over the whole pass.  Run back to back, a
    # band of similar jobs samples the machine's speed for a few seconds
    # only, and the percentile that falls in the band moves with it.  The
    # order is the same for every seed.
    random.Random(0).shuffle(workload.jobs)

    budget = args.seconds / 2 if args.trace else args.seconds
    runner = Runner(cf, workload, sampler)
    untraced = runner.run_for(budget)
    traced = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        wrapped = tracer.install()
        runner.tracer = tracer
        traced = runner.run_for(budget)
        tracer.uninstall()
        traces = state / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tables = [tracer.functions(lo, hi) for lo, hi, _ in runner.trace_marks]
        lo, hi, _ = runner.trace_marks[-1]
        tracer.write(traces, args.workload, lo, hi, tables[-1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_AFTER):
        set_up()
    setup_s = statistics.median(a + b for a, b in setups)
    (state / f"jobs-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"untraced": untraced, "traced": traced}, indent=1))
    changed, whole = _compare_with_earlier_runs(state, src, args.workload,
                                                args.seed, runner)
    failed = runner.failed + len(changed)

    e2e, samples = _end_to_end(untraced, setup_s, rss_mb)
    jobs = len(workload.jobs)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}  "
          f"closed loop: 1 client, 1 job at a time, {jobs} jobs per pass")
    print(f"untraced passes {len(untraced)}, traced passes {len(traced)}; "
          f"set-up = median of {len(setups)} repeats, {SETUP_BEFORE} before "
          f"and {SETUP_AFTER} after the passes")
    per_loop = sorted(sampler.per_loop)
    print(f"  times scaled to {NOMINAL_S * 1e9:g} ns per speed-loop iteration; "
          f"{len(per_loop)} samples here: median "
          f"{statistics.median(per_loop) * 1e9:.1f} ns, middle 90% "
          f"{_quantile(per_loop, 0.05) * 1e9:.1f}-"
          f"{_quantile(per_loop, 0.95) * 1e9:.1f} ns")
    print("  set-up repeats (import + generation): " + ", ".join(
        f"{a:.3f}+{b:.3f}" for a, b in setups))
    for name, (value, unit) in e2e.items():
        note = (f"  (n={samples} job samples, {len(untraced)} passes)"
                if name.startswith("job_") else "")
        print(f"  {name:<14} {value:12.4f} {unit}{note}")
    print(f"  fail_ratio     {failed}/{runner.attempted}")
    print(f"  report digest  sha256:{whole}")
    print("  untraced pass seconds, scaled (raw): " + ", ".join(
        f"{_pass_seconds(p):.3f} ({_pass_seconds(p, 'raw_seconds'):.3f})"
        for p in untraced))
    tags = {}
    for rows in untraced:
        for r in rows:
            tags[r["tag"]] = tags.get(r["tag"], 0.0) + r["seconds"] / len(untraced)
    print("  mean seconds per pass by job group: " + ", ".join(
        f"{t} {s:.3f}" for t, s in tags.items()))
    for name, error in sorted(runner.failures.items()):
        print(f"  FAILED {name}: {error}")

    if args.trace:
        metrics, detail = _per_layer(tracer, traced, untraced,
                                     runner.trace_marks, tables)
        from tracer import HARNESS, LAYERS

        accounted = sum(metrics[f"{l}.self_s"][0] for l in LAYERS)
        print(f"  traced run_s {metrics['traced.run_s'][0]:.4f} s = modules "
              f"{accounted:.4f} + harness {detail.pop(HARNESS):.4f} "
              f"+ trace bookkeeping {metrics['trace.self_s'][0]:.4f}; "
              f"{wrapped} entry points wrapped")
        print("  hits/calls in the last traced pass: " + ", ".join(
            f"{k} {v}" for k, v in detail.items()))
        ranked = sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"][0])
        print("  self time by module: " + ", ".join(
            f"{l} {metrics[f'{l}.self_s'][0]:.3f}s/{metrics[f'{l}.calls'][0]}"
            for l in ranked))
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
