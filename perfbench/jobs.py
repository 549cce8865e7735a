"""The jobs the benchmark times, their correctness checks and the probes
read after them (process memory, Ray operator stats).

The extract job is ``pipelines.extract.run_extract`` with the defaults of
``python -m pdf_to_text_ray.run``: 64 files per wave, dedup on through
broadcast winners, batch size 64, unsorted and unpartitioned output.
The query job is one pass over the pinned queries, each call followed by
materialising its result.
"""

from __future__ import annotations

import glob
import os
import resource
import shutil
import signal
import time

import pyarrow as pa
import pyarrow.parquet as pq

# A small object store: jobs reuse store pages the warm-up already
# touched. With the default (30% of RAM) each job in a session touched
# fresh pages and job times kept falling for about ten jobs.
OBJECT_STORE_BYTES = 512 * 2**20

# Longest suffix Ray appends to its temp dir for a socket path
# ("/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store"), and the
# AF_UNIX path limit it must fit under.
_RAY_SOCKET_SUFFIX = 64
_AF_UNIX_MAX = 107


def ray_temp_dir(root: str) -> str | None:
    """Ray's session dir inside the checkout, or None (Ray's default)
    when the checkout path is too long for Ray's unix sockets."""
    d = os.path.join(root, ".perfbench", "ray")
    return d if len(d) + _RAY_SOCKET_SUFFIX <= _AF_UNIX_MAX else None


def start_ray(root: str, cpus: int) -> None:
    """A local Ray session whose workers import the package from this
    checkout: worker processes inherit ``PYTHONPATH`` from the driver,
    while a ``sys.path`` change would reach the driver alone."""
    import ray
    from ray.data import DataContext

    path = os.environ.get("PYTHONPATH", "")
    if root not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, path) if p)
    kwargs = {"address": "local", "num_cpus": cpus, "include_dashboard": False,
              "object_store_memory": OBJECT_STORE_BYTES,
              "logging_level": "ERROR", "log_to_driver": False}
    temp = ray_temp_dir(root)
    if temp is not None:
        kwargs["_temp_dir"] = temp
    ray.init(**kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


# ── extract ──────────────────────────────────────────────────────────

def run_extract_job(in_dir: str, out_dir: str) -> tuple[float, float]:
    """One CLI-default extract job into a fresh ``out_dir`` (cleared
    before the clocks start: ``run_extract`` resumes into an existing
    dir and would skip every completed wave). Returns its wall seconds
    and CPU seconds (``tree_cpu_s``)."""
    from pdf_to_text_ray.pipelines.extract import run_extract

    shutil.rmtree(out_dir, ignore_errors=True)
    c0, t0 = tree_cpu_s(), time.perf_counter()
    run_extract(in_dir, out_dir, files_per_wave=64, dedup=True,
                batch_size=64, winners_mode="broadcast")
    return time.perf_counter() - t0, tree_cpu_s() - c0


def load_golden(input_dir: str) -> dict[str, tuple]:
    t = pq.read_table(os.path.join(input_dir, "golden.parquet"))
    return {u: (x, d, n) for u, x, d, n in zip(
        *(t[c].to_pylist() for c in ("url", "text_extracted", "doc_type", "n_pages")))}


def read_output(out_dir: str) -> pa.Table:
    cols = ["url", "doc_type", "text_extracted", "n_pages", "parse_failure"]
    files = sorted(glob.glob(os.path.join(out_dir, "wave=*", "*.parquet")))
    return pa.concat_tables([pq.read_table(f, columns=cols) for f in files])


def count_failures(out: pa.Table, golden: dict[str, tuple]) -> int:
    """Golden urls missing from ``out`` plus output rows that are extra
    (unknown or repeated url), flagged ``parse_failure``, or differ from
    the golden ``text_extracted``, ``doc_type`` or ``n_pages``."""
    failed = 0
    seen = set()
    for url, dt, text, n, pf in zip(*(out[c].to_pylist() for c in (
            "url", "doc_type", "text_extracted", "n_pages", "parse_failure"))):
        if url in seen or url not in golden or pf or golden[url] != (text, dt, n):
            failed += 1
        seen.add(url)
    return failed + len(golden.keys() - seen)


# ── queries ──────────────────────────────────────────────────────────

def run_query(name: str, tables_dir: str):
    """One pinned query, result materialised. Returns (seconds, frame),
    frame None when the query raised."""
    from pdf_to_text_ray.pipelines.queries import QUERIES
    from tools.check_oracles import to_pandas

    t0 = time.perf_counter()
    try:
        df = to_pandas(QUERIES[name](tables_dir))
    except Exception:  # a query that raises counts as failed
        import traceback

        traceback.print_exc()
        df = None
    return time.perf_counter() - t0, df


# ── probes ───────────────────────────────────────────────────────────

def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU jiffies of the host so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_TICK = os.sysconf("SC_CLK_TCK")


def _proc_stats() -> dict[int, list[str]]:
    """Every process's /proc/<pid>/stat fields after the command name."""
    stats = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                stats[int(p)] = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while scanning
    return stats


def descendants(pid: int) -> list[int]:
    """Processes below ``pid`` that have not exited."""
    return list(_descendant_stats(pid, _proc_stats(), zombies=False))


def _descendant_stats(pid: int, stats: dict[int, list[str]],
                      zombies: bool) -> dict[int, list[str]]:
    kids: dict[int, list[int]] = {}
    for p, fields in stats.items():
        if zombies or fields[0] != "Z":
            kids.setdefault(int(fields[1]), []).append(p)
    out, todo = {}, [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out[c] = stats[c]
            todo.append(c)
    return out


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    process below it, the Ray session's included. A descendant counts
    its own time and that of the children it has reaped; an exited one
    not yet reaped still counts its own. The kernel leaves out time the
    hypervisor gave to other guests (steal), so this reads the work done
    even when the host is busy."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    for fields in _descendant_stats(os.getpid(), _proc_stats(),
                                    zombies=True).values():
        total += sum(int(x) for x in fields[11:15]) / _TICK
    return total


def worker_peak_rss_mb() -> float:
    """Largest VmHWM among this process's Ray worker processes (their
    command line starts with ``ray::``)."""
    peak = 0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read(5).startswith(b"ray::"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue  # exited while scanning
    return peak / 1024.0


def op_stats(ds) -> dict[str, float]:
    """Read and dispatch operator figures from the stats of a dataset
    that ``write_parquet`` executed."""
    ops, todo = [], [ds._write_ds._get_stats_summary()]
    while todo:
        summary = todo.pop()
        ops.extend(summary.operators_stats)
        todo.extend(summary.parents)
    read = next(o for o in ops if "ReadParquet" in o.operator_name)
    disp = next(o for o in ops if "ExtractDispatch" in o.operator_name)
    wall, udf = disp.wall_time, disp.udf_time
    return {
        "ray.op.read.wall_s": read.wall_time["sum"],
        "ray.op.dispatch.wall_s": wall["sum"],
        "ray.op.dispatch.udf_s": udf["sum"],
        "ray.op.dispatch.overhead_s": wall["sum"] - udf["sum"],
        "ray.op.dispatch.task_wall_max_over_mean": wall["max"] / wall["mean"],
        "ray.op.dispatch.peak_heap_mb": disp.memory["max"],
    }


def wait_for_children(timeout: float = 30.0) -> None:
    """Return once every process this one started has exited; kill
    what is left after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while left := descendants(os.getpid()):
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass  # already gone
            return
        time.sleep(0.1)
