"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 20 --trace 0

Workloads (inputs are made from ``--seed`` and cached, see inputs.py):

- ``crawl_mix``: the extract job users submit, over a heavy crawl mix
  (20% PDF, 70% HTML in seven charsets, 10% text, ~5% stale duplicates).
- ``query_suite``: the pinned queries, back to back, over seeded tables.

One closed-loop caller starts the next job when the previous one has
returned, until ``--seconds`` of job time is used. A job's cost is the
CPU time the driver and the Ray session spend on it (``job_cpu_s``, the
median over the run's jobs); its wall time is printed beside it. On a
shared host wall time follows the load of other guests, CPU time much
less: the kernel leaves out the time the hypervisor gives to them. The
run sets the session up ``SETUPS`` times (Ray session plus an untimed
warm-up) and reports the median set-up.
Every job's output is checked: extract rows against the generator's
goldens, query results against their DuckDB oracles.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
traced run of layers.py instead and reports the per-layer metrics. The
last line of standard output is the result as one JSON object; the
lines before it give the host and every metric with its unit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("crawl_mix", "query_suite")
SETUPS = 2

END_TO_END = {"setup_s": "s", "job_cpu_s": "s", "driver_peak_rss_mb": "MB",
              "worker_peak_rss_mb": "MB"}

# The query warm-up runs only the first pinned query, on tenth-size
# tables: it starts and warms the worker processes the others reuse, and
# a suite pass after it costs no more CPU than one after a whole warm-up
# pass. The extract warm-up is a whole job: after a job on one file, the
# first full job still cost 8-20% more CPU than the next.
WARM_QUERIES = 1


def host_fingerprint(cpus: int) -> dict:
    import platform

    import pyarrow
    import ray

    from pdf_to_text_ray.fixtures.corpus import GENERATOR_VERSION

    with open("/proc/meminfo") as f:
        mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return {"cpus": cpus, "ram_gb": round(mem_kb / 2**20, 1),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": platform.python_version(),
            "generator_version": GENERATOR_VERSION, "commit": git_commit()}


def git_commit() -> str:
    """HEAD's commit id read from ``.git``; "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next(line.split()[0] for line in f if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def warm_up(workload: str, input_dir: str, work_dir: str) -> None:
    from perfbench import jobs
    from perfbench.inputs import PINNED_QUERIES

    if workload == "query_suite":
        for q in PINNED_QUERIES[:WARM_QUERIES]:
            jobs.run_query(q, os.path.join(input_dir, "warm"))
    else:
        jobs.run_extract_job(os.path.join(input_dir, "pages"),
                             os.path.join(work_dir, "warm"))


def measure(workload: str, input_dir: str, work_dir: str,
            seconds: float) -> tuple[list[float], list[float], int, int]:
    """Closed loop: jobs back to back until the measured time is as close
    to ``seconds`` as whole jobs get (always at least one). Returns (job
    wall seconds, job CPU seconds, outputs checked, outputs failed)."""
    from perfbench import jobs
    from perfbench.inputs import PINNED_QUERIES, digest_result

    times: list[float] = []
    cpu: list[float] = []
    attempted = failed = 0
    if workload == "query_suite":
        with open(os.path.join(input_dir, "oracle.json")) as f:
            digests = json.load(f)
        tables = os.path.join(input_dir, "tables")
    else:
        golden = jobs.load_golden(input_dir)
        out_dir = os.path.join(work_dir, "job")
    while not times or sum(times) + statistics.median(times) / 2 <= seconds:
        if workload == "query_suite":
            wall = cost = 0.0
            for q in PINNED_QUERIES:
                c0 = jobs.tree_cpu_s()
                dt, df = jobs.run_query(q, tables)
                cost += jobs.tree_cpu_s() - c0
                wall += dt
                attempted += 1
                failed += df is None or digest_result(df) != digests[q]
        else:
            wall, cost = jobs.run_extract_job(os.path.join(input_dir, "pages"), out_dir)
            attempted += len(golden)
            failed += jobs.count_failures(jobs.read_output(out_dir), golden)
        times.append(wall)
        cpu.append(cost)
    return times, cpu, attempted, failed


def run(args, import_s: float) -> dict:
    import ray

    from perfbench import inputs, jobs, layers

    cpus = len(os.sched_getaffinity(0))
    print("host " + json.dumps(host_fingerprint(cpus), sort_keys=True), flush=True)
    t = time.perf_counter()
    input_dir, built = inputs.ensure_inputs(ROOT, args.workload, args.seed, cpus)
    print(f"inputs {input_dir} ({'built' if built else 'cached'} "
          f"in {time.perf_counter() - t:.1f} s, not part of setup_s)", flush=True)
    work_dir = os.path.join(ROOT, ".perfbench", "work", args.workload)

    setups = []
    try:
        for k in range(1 if args.trace else SETUPS):
            if k:
                ray.shutdown()
            t = time.perf_counter()
            jobs.start_ray(ROOT, cpus)
            warm_up(args.workload, input_dir, work_dir)
            setups.append(import_s + time.perf_counter() - t)

        if args.trace:
            units = layers.PER_LAYER
            metrics = dict.fromkeys(units, 0.0)
            if args.workload == "query_suite":
                with open(os.path.join(input_dir, "oracle.json")) as f:
                    digests = json.load(f)
                m, attempted, failed, tracers = layers.trace_queries(
                    os.path.join(input_dir, "tables"), digests)
            else:
                m, attempted, failed, tracers = layers.trace_extract(
                    input_dir, work_dir, jobs.load_golden(input_dir))
            metrics.update(m)
            trace_dir = os.path.join(ROOT, ".perfbench", "trace")
            os.makedirs(trace_dir, exist_ok=True)
            for part, tracer in tracers.items():
                tracer.dump(os.path.join(
                    trace_dir, f"{args.workload}-s{args.seed}-{part}.jsonl"))
        else:
            units = END_TO_END
            steal0, total0 = jobs.cpu_jiffies()
            times, cpu, attempted, failed = measure(args.workload, input_dir, work_dir,
                                               args.seconds)
            steal1, total1 = jobs.cpu_jiffies()
            metrics = {"setup_s": statistics.median(setups),
                       "job_cpu_s": statistics.median(cpu),
                       "worker_peak_rss_mb": jobs.worker_peak_rss_mb(),
                       "driver_peak_rss_mb": jobs.driver_peak_rss_mb()}
            print(f"jobs {len(times)}: wall " + " ".join(f"{x:.3f}" for x in times)
                  + " s; cpu " + " ".join(f"{x:.3f}" for x in cpu)
                  + " s; setups: " + " ".join(f"{x:.3f}" for x in setups) + " s; "
                  f"host steal {100 * (steal1 - steal0) / max(1, total1 - total0):.1f}%"
                  " of CPU time during the jobs")
            wall = statistics.median(times)
            print(f"job_s {wall:.6f} s (median wall time)")
            if args.workload != "query_suite":
                docs = len(jobs.load_golden(input_dir))
                print(f"docs_per_s {docs / wall:.1f} ({docs} docs per job)")
    finally:
        ray.shutdown()
        jobs.wait_for_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        if jobs.ray_temp_dir(ROOT) is not None:
            shutil.rmtree(jobs.ray_temp_dir(ROOT), ignore_errors=True)

    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} outputs)")
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:14.6f} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import ray  # noqa: F401

        import pdf_to_text_ray.pipelines.extract  # noqa: F401
        import pdf_to_text_ray.pipelines.queries  # noqa: F401
        import tools.check_oracles  # noqa: F401
        from perfbench import layers  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program under {ROOT}: {e}",
              file=sys.stderr)
        return 2
    result = run(args, time.perf_counter() - _T0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
