"""Benchmark of the isocone command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cone-member --seed 1 --seconds 30 --trace 0

One process with one thread runs the workload as a closed loop: each
query is the exact ``isocone`` command a user would type, run in-process
through ``isocone.cli.run(argv)`` with its output captured, and the next
query starts when the previous one has returned.  After each query, and
outside its timed region, the benchmark checks the answer.  A run makes
whole passes over the workload's commands, as many as filled ``--seconds``
when the benchmark was defined (see ``PASS_SECONDS``).  Every time is
reported at a reference speed of the host, measured by the probe of
``hostspeed.py`` between queries.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` one pass runs, every query
untraced and then traced, and the JSON object carries the per-layer
metrics.  The lines before it report the same numbers for a reader.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cone-member", "cone-sweep", "flat-surfaces")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Wall seconds one pass over each workload's commands takes at the commit
# that defined the benchmark (Python 3.11.7, 2 vCPUs), probes and checks
# included, with the host at its reference speed (see hostspeed.py); on a
# slower host a pass takes longer.  A run makes the whole number of passes
# nearest to --seconds / PASS_SECONDS (halves round up), at least one, so
# every run of a workload repeats each command equally often and its order
# statistics stay comparable; a faster program finishes the same passes
# sooner.
PASS_SECONDS = {"cone-member": 21.0, "cone-sweep": 9.5, "flat-surfaces": 9.5}


def passes(workload, seconds):
    return max(1, int(seconds / PASS_SECONDS[workload] + 0.5))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_seconds(workload, seed, workdir):
    """Median over SETUP_REPEATS fresh processes of the set-up time.

    Each process runs ``setup_once.py``: it imports ``isocone.cli``, builds
    the fixtures and writes the inputs into its own directory.  Its time
    runs from just before the process is started to the moment its set-up
    ends, on the shared ``CLOCK_MONOTONIC``.  Returns the median of the
    scaled times (see ``hostspeed.scaled``) and that of the wall times.
    """
    times, scaled = [], []
    before = hostspeed.point()
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        target.mkdir()
        start = clock_gettime(CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_once.py"), workload,
             str(seed), str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup_once.py exited {done.returncode}: "
                               f"{done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(target)
        after = hostspeed.point()
        scaled.append(hostspeed.scaled(times[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(times)


def run_query(cli, query):
    """Run one command; returns ``(seconds, exit code, stdout, error)``."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(query.argv)
        except Exception as e:   # the query fails; the run goes on
            code, error = None, repr(e)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue().strip()


def failure(workloads, query, code, out, error):
    """Why a finished query failed, or None when it passed its gate."""
    if code != 0:
        return f"exit {code}: {error[:200]}"
    try:
        query.check(out)
    except workloads.CheckFailed as e:
        return f"check: {e}"
    except Exception as e:   # a malformed answer can break the checker
        return f"check raised {e!r}"
    return None


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond.

    Returns ``(value, percentile, samples beyond)``.
    """
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def measure(cli, workloads, plan, n_passes):
    """Untraced closed loop of ``n_passes`` passes over the commands.

    Returns one record per command: the query, the wall seconds and the
    scaled seconds (see ``hostspeed.scaled``) of each of its runs, and why
    each run failed or None."""
    records = [(q, [], [], []) for q in plan.commands]
    before = hostspeed.point()
    for _ in range(n_passes):
        for q, wall, scaled, whys in records:
            elapsed, code, out, error = run_query(cli, q)
            after = hostspeed.point()
            wall.append(elapsed)
            scaled.append(hostspeed.scaled(elapsed, before, after))
            whys.append(failure(workloads, q, code, out, error))
            before = after
    return records


def end_to_end(records, setup_s, setup_wall_s):
    """Metrics over every query run, in seconds at the reference host
    speed (see ``hostspeed.py``); the report lines add the wall-clock
    figures."""
    wall = [t for _, times, _, _ in records for t in times]
    scaled = [t for _, _, times, _ in records for t in times]
    items = sum(q.items for q, _, _, whys in records
                for why in whys if why is None)
    tail_s, pct, beyond = tail(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / sum(scaled), "1/s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    notes = [f"latency_tail_s is p{pct:.1f} of {len(scaled)} query runs, "
             f"{beyond} beyond it",
             f"wall clock: setup_s {setup_wall_s:.6f}, "
             f"items_per_s {items / sum(wall):.6f}, "
             f"latency_p50_s {statistics.median(wall):.6f}, "
             f"latency_tail_s {tail(wall)[0]:.6f}, "
             f"host at {sum(wall) / sum(scaled):.3f} of the reference time"]
    by_class = {}
    for q, _, times, _ in records:
        by_class.setdefault(q.qclass, []).extend(times)
    for qclass, lats in by_class.items():
        notes.append(f"{qclass}_p50_s {statistics.median(lats):.6f} s "
                     f"(n={len(lats)})")
    failed = sum(1 for _, _, _, whys in records for why in whys if why)
    notes.append(f"failed_frac {failed / len(wall):.6f} "
                 f"({failed}/{len(wall)})")
    notes.append(f"items {items}")
    return metrics, notes


def traced(cli, workloads, plan, trace_path):
    """Run one pass, each query untraced and then traced.

    Returns the records, the tracer, the query table, the traced seconds
    and the traced minus untraced seconds."""
    from spans import Tracer

    tracer = Tracer()
    records, table = [], []
    overhead_s = traced_s = 0.0
    for qid, q in enumerate(plan.commands):
        plain_s, _, plain_out, _ = run_query(cli, q)
        tracer.install()
        tracer.qid = qid
        try:
            elapsed, code, out, error = run_query(cli, q)
        finally:
            tracer.qid = None
            tracer.uninstall()
        why = failure(workloads, q, code, out, error)
        if why is None and out != plain_out:
            why = "traced output differs from untraced output"
        records.append((q, [elapsed], [why]))
        table.append({"id": qid, "class": q.qclass, "label": q.label,
                      "argv": q.argv, "items": q.items, "seconds": elapsed,
                      "untraced_seconds": plain_s})
        traced_s += elapsed
        overhead_s += elapsed - plain_s
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, table)
    return records, tracer, table, traced_s, overhead_s


def per_layer(tracer, traced_s, overhead_s):
    totals = tracer.layer_totals()
    metrics = {}
    for layer, (_, self_s) in totals.items():
        name = "cli.self" if layer == "cli" else layer
        metrics[f"{name}.s"] = (self_s, "s")
    for layer in ("linalg.push", "linalg.rollback", "linalg.rref",
                  "linalg.kernel_basis", "cone3.build", "cone3.subspace",
                  "cone3.form", "flatsurf.delaunay"):
        metrics[f"{layer}.calls"] = (totals[layer][0], "count")
    pushes = totals["linalg.push"][0]
    metrics["linalg.push.ok_frac"] = (
        tracer.push_ok / pushes if pushes else 0.0, "ratio")
    metrics["cone3.cone.vectors"] = (tracer.vectors, "count")
    metrics["io.parse.bytes"] = (tracer.parse_bytes, "bytes")
    accounted = sum(s for _, s in totals.values())
    metrics["trace.query_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.accounted_frac"] = (accounted / traced_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def baseline_notes(tracer, table):
    """The ROADMAP baseline figures, recomputed from the spans."""
    rows = {row["id"]: row for row in table}
    push_s, per_query, iso, dln = [], {}, [], {}
    for name, start, end, _, qid in tracer.spans:
        if name.endswith("IncrementalSystem.push"):
            push_s.append(end - start)
            per_query[qid] = per_query.get(qid, 0) + 1
        elif name.endswith("isotropy_check"):
            iso.append(end - start)
        elif name == "isocone.cli.delaunay":
            dln.setdefault(rows[qid]["label"], []).append(end - start)
    notes = []
    if push_s:
        notes.append(f"baseline: {1e6 * statistics.mean(push_s):.1f} us "
                     f"per push over {len(push_s)} pushes")
        off = [f"{rows[q]['label']}={n}" for q, n in per_query.items()
               if rows[q]["class"] == "offdiag"]
        notes.append("baseline: pushes per off-diagonal query " + " ".join(off))
    if iso:
        notes.append(f"baseline: {1e3 * statistics.mean(iso):.1f} ms per "
                     f"g2xI isotropy_check over {len(iso)} calls")
    if dln:
        notes.append("baseline: delaunay seconds " + " ".join(
            f"{label}={statistics.mean(v):.3f}" for label, v in dln.items()))
    return notes


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "isocone" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no isocone sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import isocone.cli as cli
        import workloads
        plan = workloads.build(args.workload, args.seed, workdir)
        if Path(cli.__file__).resolve().parent != SRC / "isocone":
            sys.stderr.write(f"perfbench: imported {cli.__file__}, "
                             f"not the sources under {SRC}\n")
            return 2
        print(f"workload {args.workload} seed {args.seed} "
              f"commands {len(plan.commands)} {plan.info}")
        if args.trace:
            trace_path = (ROOT / ".perfbench" / "traces" /
                          f"{args.workload}-seed{args.seed}.jsonl.gz")
            records, tracer, table, traced_s, overhead_s = traced(
                cli, workloads, plan, trace_path)
            metrics = per_layer(tracer, traced_s, overhead_s)
            notes = baseline_notes(tracer, table)
            notes.append(f"cli.self.s share of trace.query_s "
                         f"{metrics['cli.self.s'][0] / traced_s:.4f}")
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            rss_before_mib = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
            setup_s = setup_seconds(args.workload, args.seed, workdir)
            records = measure(cli, workloads, plan,
                              passes(args.workload, args.seconds))
            metrics, notes = end_to_end(records, *setup_s)
            notes.append(f"peak_rss_mib before the first query "
                         f"{rss_before_mib:.1f} MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for q, *_, whys in records:
        for why in filter(None, whys):
            print(f"FAILED {q.qclass} {q.label}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    failed = sum(1 for *_, whys in records for why in whys if why)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(whys) for *_, whys in records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
