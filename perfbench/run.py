"""The repository benchmark: one workload, one seed, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload range-cold --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/DESIGN.md`` for sizes, cache fit and the
predictions each per-layer metric carries):

* ``range-cold`` -- year-window range scans at 1018 MV-index components,
  each issued once per cache generation, in process;
* ``serve-mixed`` -- a ``repro serve`` subprocess at 253 components, one
  closed-loop reader on the zipf mix plus a writer that appends facts once
  every 3000 reads.

The benchmark and every process it starts run on one CPU, so that a
request and its reply hand over on that CPU instead of waking the other.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps each layer's public function (``perfbench/spans.py``)
and reports the per-layer metrics, the layer coverage check and the tracing
overhead.  Every run prints an environment stamp, a human-readable summary
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Wall-clock limit for any child process of one run.
CHILD_TIMEOUT_S = 170.0
#: Distinct strings of the ``serve-mixed`` cold probe (exact counts) and
#: of its post-run correctness sample.
PROBE_QUERIES = 30
MIXED_CHECK_SAMPLE = 20

COLD_LAYERS = {
    "dblp", "core.translate", "mvindex.index", "serving.session", "query.parser",
    "serving.canonical", "query.evaluator", "mvindex.summaries", "mvindex.intersect",
    "mvindex.cc_intersect", "methods",
}
REQUIRED_LAYERS = {
    "range-cold": COLD_LAYERS,
    "serve-mixed": COLD_LAYERS | {"serving.server", "serving.dispatch", "core.engine"},
}


# ------------------------------------------------------------------ helpers
def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile (``percent`` in 1..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def out_dir() -> Path:
    path = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Child:
    """A child process whose stdout is read line by line, killed on timeout."""

    def __init__(self, argv: list[str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.process.kill)
        self._timer.daemon = True
        self._timer.start()

    def expect(self, prefix: str) -> str:
        """The rest of the first stdout line starting with ``prefix``."""
        for line in self.process.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        raise RuntimeError(f"child exited (code {self.process.wait()}) before {prefix!r}")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, terminate: bool = True) -> None:
        """Wait for the child to exit, sending SIGTERM first unless told not to."""
        if terminate and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        finally:
            self._timer.cancel()


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    On a small shared host a reply that wakes a process on the other CPU
    waits for that CPU to be scheduled, and how long varies from minute to
    minute; on one CPU the hand-over is a plain context switch.  The server
    is bound by its interpreter lock and the reader waits for each reply,
    so the two never had a second CPU's worth of work to run in parallel.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ms(seconds: float) -> float:
    return seconds * 1000.0


# ------------------------------------------------------------- range-cold
def run_cold(args: argparse.Namespace) -> dict[str, Any]:
    worker = str(HERE / "inproc.py")
    setups: list[float] = []
    if not args.trace:
        for __ in range(SETUP_REPS - 1):
            child = Child([worker, "--setup-only"])
            try:
                child.expect("READY ")
                setups.append(time.perf_counter() - child.started)
                child.stop(terminate=False)
            finally:
                child.stop()
    trace_out = out_dir() / f"spans-{args.workload}-{args.seed}.json"
    argv = [worker, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        argv += ["--trace-out", str(trace_out)]
    child = Child(argv)
    try:
        ready = json.loads(child.expect("READY "))
        setups.append(time.perf_counter() - child.started)
        stamp(args, ready["components"])
        raw = json.loads(child.expect("RESULT "))
        child.stop(terminate=False)
    finally:
        child.stop()
    if child.process.returncode != 0:
        raise RuntimeError(f"worker exited with code {child.process.returncode}")

    attempted = raw["reads"] + raw["checked"]
    failed = raw["failed"] + raw["mismatched"]
    summary = {
        "reads": raw["reads"],
        "checked": raw["checked"],
        "mismatched": raw["mismatched"],
    }
    if not args.trace:
        latencies = raw["latencies"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_ms": (ms(percentile(latencies, 50)), "ms"),
            "query_p95_ms": (ms(percentile(latencies, 95)), "ms"),
            "query_qps": (raw["reads"] / raw["busy_s"], "1/s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        summary["append_p50_ms"] = "n/a (no writer on this workload)"
        return finish(metrics, attempted, failed, summary)

    trace = spans.Spans.load(trace_out)
    clients = trace.of("client.query")
    traced = set(trace.request[index] for index in clients)
    window = {entry["request"] for entry in raw["counted"]}
    metrics = setup_layer_metrics(trace, min(trace.start[index] for index in clients))
    metrics.update(query_layer_metrics(
        trace, lambda index: trace.request[index] in traced, len(traced)
    ))
    metrics.update(count_metrics(
        trace, raw["counted"], lambda index: trace.request[index] in window
    ))
    metrics.update(empty_serving_metrics())
    metrics.update(cache_metrics({"string": (0, 0), **{
        tier: (raw["cache"][tier]["hits"], raw["cache"][tier]["misses"])
        for tier in ("result", "lineage")
    }}))
    metrics["trace.overhead_ms"] = (
        ms(percentile(raw["traced_latencies"], 50) - percentile(raw["latencies"], 50)), "ms"
    )
    return finish(metrics, attempted, failed, summary, coverage(args.workload, trace))


# ----------------------------------------------------------- serve-mixed
class Server:
    """A ``perfbench/serve.py`` child serving the mixed workload over HTTP."""

    def __init__(self, trace_out: Path | None = None) -> None:
        argv = [str(HERE / "serve.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", "serve", "--groups", str(workloads.MIXED_GROUPS),
                 "--seed", str(workloads.DATA_SEED),
                 "--workers", str(workloads.MIXED_WORKERS), "--port", "0"]
        self.child = Child(argv)
        try:
            self.index = json.loads(self.child.expect("INDEX "))
            url = self.child.expect("listening on ").split()[0]
            self.host, port = url.removeprefix("http://").split(":")
            self.port = int(port)
            while True:
                try:
                    if self.get("/healthz")["status"] == "ok":
                        break
                except OSError:
                    if self.child.process.poll() is not None:
                        raise RuntimeError("server exited before /healthz answered") from None
                    time.sleep(0.005)
            self.setup_s = time.perf_counter() - self.child.started
        except BaseException:
            self.child.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def get(self, path: str) -> Any:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        self.child.stop()


def post(connection: http.client.HTTPConnection, path: str, payload: Any) -> tuple[int, bytes]:
    """POST JSON; returns ``(status, body)``, status 0 on a transport error."""
    try:
        connection.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""


def parse_answers(status: int, body: bytes) -> tuple[tuple, dict] | None:
    """The sorted answers and result of a well-formed 200 ``/v1/query`` reply.

    ``None`` for any other reply.
    """
    if status != 200:
        return None
    try:
        result = json.loads(body)["result"]
        answers = tuple(sorted(
            (tuple(answer["values"]), float(answer["probability"]))
            for answer in result["answers"]
        ))
    except (ValueError, KeyError, TypeError):
        return None
    if not all(0.0 <= probability <= 1.0 for __, probability in answers):
        return None
    return answers, result


def mixed_phase(server: Server, seed: int, seconds: float) -> dict[str, Any]:
    """Probe, then the timed reader/writer load, then the correctness check."""
    from repro.serving.loadgen import WorkloadMix, dblp_ingest_facts

    mix = WorkloadMix(entities=workloads.MIXED_ENTITIES)
    population, __ = mix.population()
    failed = 0

    # Cold probe: a fixed seeded list of distinct strings, issued one by one
    # before the load, so its work counters repeat exactly.
    probe: list[dict[str, Any]] = []
    connection = server.connect()
    probe_start = time.perf_counter()
    for query in random.Random(seed).sample(population, PROBE_QUERIES):
        parsed = parse_answers(*post(connection, "/v1/query", {"query": query}))
        if parsed is None:
            failed += 1
            continue
        answers, result = parsed
        probe.append({
            "answers": len(answers),
            "lineage_clauses": sum(answer["lineage_size"] for answer in result["answers"]),
            "qobdd_nodes": result["obdd_nodes"],
            "pair_expansions": result["steps"],
            "touched_components": result["touched_components"],
        })
    probe_end = time.perf_counter()

    before = server.get("/v1/stats")
    # The writer appends once every READS_PER_APPEND reads; the next
    # RACING_READS reads run while the append is in flight, then the reader
    # waits for it.  The load ends on such a boundary, so every run has the
    # same numbers of cache hits, cold misses after an invalidation and
    # reads racing an append, however fast the host is that minute.
    period = workloads.READS_PER_APPEND
    deadline = time.perf_counter() + seconds
    reads: list[tuple[float, float, str, int, bytes]] = []
    writes: list[tuple[float, float, float]] = []  # (due, start, end)
    due_times: "queue.SimpleQueue[float | None]" = queue.SimpleQueue()
    appended = threading.Event()
    write_errors = 0

    def reader() -> None:
        # Replies are validated after the load, keeping the loop lean.
        sample = mix.sampler(random.Random(seed))
        while True:
            if len(reads) % period == 0:
                if len(reads) >= workloads.MIN_READS and time.perf_counter() >= deadline:
                    break
                appended.clear()
                due_times.put(time.perf_counter())
            elif len(reads) % period == workloads.RACING_READS:
                appended.wait(60)
            query = sample()
            begin = time.perf_counter()
            status, body = post(connection, "/v1/query", {"query": query})
            reads.append((begin, time.perf_counter(), query, status, body))
            if status != 200:
                connection.close()
        appended.wait(60)
        due_times.put(None)

    def writer() -> None:
        nonlocal write_errors
        write_connection = server.connect()
        try:
            for batch in itertools.count():
                due = due_times.get()
                if due is None:
                    return
                begin = time.perf_counter()
                status, body = post(write_connection, "/v1/append", {
                    "facts": dblp_ingest_facts(batch, batch_size=workloads.APPEND_BATCH)
                })
                writes.append((due, begin, time.perf_counter()))
                appended.set()
                if status != 200 or json.loads(body).get("added_tuples") != 2 * workloads.APPEND_BATCH:
                    write_errors += 1
        finally:
            write_connection.close()

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    after = server.get("/v1/stats")
    peak_rss_mb = server.child.peak_rss_mb()

    read_errors = 0
    replies: dict[str, set] = {}
    for __, __, query, status, body in reads:
        parsed = parse_answers(status, body)
        if parsed is None:
            read_errors += 1
        else:
            replies.setdefault(query, set()).add(parsed[0])

    # Correctness, outside the timed region: every reply of a sampled string
    # must match the pointer-based MVIntersect answer at the final state.
    check_connection = server.connect()
    mismatched = 0
    sample = random.Random(seed + 1).sample(sorted(replies), min(MIXED_CHECK_SAMPLE, len(replies)))
    for query in sample:
        reference = parse_answers(*post(
            check_connection, "/v1/query", {"query": query, "method": "mvindex-mv"}
        ))
        if reference is None or not all(
            workloads.same_answers(got, reference[0]) for got in replies[query]
        ):
            mismatched += 1
    check_connection.close()
    connection.close()

    return {
        "probe": probe,
        "probe_window": (probe_start, probe_end),
        "window": (reads[0][0], reads[-1][1]),
        "reads": [(begin, end) for begin, end, __, __, __ in reads],
        "writes": writes,
        "read_errors": read_errors,
        "write_errors": write_errors,
        "probe_failed": failed,
        "checked": len(sample),
        "mismatched": mismatched,
        "before": before,
        "after": after,
        "peak_rss_mb": peak_rss_mb,
    }


def run_mixed(args: argparse.Namespace) -> dict[str, Any]:
    setups: list[float] = []
    if not args.trace:
        for __ in range(SETUP_REPS - 1):
            server = Server()
            setups.append(server.setup_s)
            server.stop()
    server = Server()
    try:
        setups.append(server.setup_s)
        stamp(args, server.index["components"])
        phase = mixed_phase(server, args.seed, args.seconds / (2 if args.trace else 1))
    finally:
        server.stop()
    if args.trace:
        untraced = phase
        trace_out = out_dir() / f"spans-{args.workload}-{args.seed}.json"
        server = Server(trace_out)
        try:
            phase = mixed_phase(server, args.seed, args.seconds / 2)
        finally:
            server.stop()

    lags = [begin - due for due, begin, __ in phase["writes"]]
    appends = [end - due for due, __, end in phase["writes"]]
    attempted = len(phase["reads"]) + len(phase["writes"]) + PROBE_QUERIES + phase["checked"]
    failed = (phase["read_errors"] + phase["write_errors"] + phase["probe_failed"]
              + phase["mismatched"])
    summary = {
        "reads": len(phase["reads"]),
        "appends": len(appends),
        "append_p50_ms": round(ms(percentile(appends, 50)), 3),
        "writer_lag_ms_max": round(ms(max(lags)), 3),
        "checked": phase["checked"],
        "mismatched": phase["mismatched"],
    }
    latencies = [end - begin for begin, end in phase["reads"]]
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_ms": (ms(percentile(latencies, 50)), "ms"),
            "query_p95_ms": (ms(percentile(latencies, 95)), "ms"),
            "query_qps": (len(latencies) / sum(latencies), "1/s"),
            "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
        }
        return finish(metrics, attempted, failed, summary)

    trace = spans.Spans.load(trace_out)
    metrics = setup_layer_metrics(trace, phase["probe_window"][0])
    metrics.update(mixed_layer_metrics(trace, phase))
    metrics["trace.overhead_ms"] = (
        ms(percentile(latencies, 50) - percentile(
            [end - begin for begin, end in untraced["reads"]], 50
        )),
        "ms",
    )
    metrics["append_p50_ms"] = (ms(percentile(appends, 50)), "ms")
    metrics["writer.lag_ms_max"] = (ms(max(lags)), "ms")
    return finish(metrics, attempted, failed, summary, coverage(args.workload, trace))


# ------------------------------------------------------- per-layer metrics
def setup_layer_metrics(trace: spans.Spans, served: float) -> dict[str, tuple[float, str]]:
    """Set-up layer times over the spans that started before the first query."""

    def total(name: str) -> float:
        return sum(trace.duration(index) for index in trace.of(name) if trace.start[index] < served)

    compiles = trace.of("mvindex.compile")
    first = trace.attrs[compiles[0]] if compiles else {"components": 0, "obdd_nodes": 0}
    return {
        "dblp.generate_s": (total("dblp.generate"), "s"),
        "translate.time_s": (total("translate"), "s"),
        "mvindex.compile_s": (total("mvindex.compile"), "s"),
        "session.warm_s": (total("session.warm"), "s"),
        "mvindex.components": (first["components"], "count"),
        "mvindex.obdd_nodes": (first["obdd_nodes"], "count"),
    }


def query_layer_metrics(
    trace: spans.Spans, selected: Callable[[int], bool], queries: int
) -> dict[str, tuple[float, str]]:
    """Per-query self times of the read-path layers over the selected spans."""

    def per_query(name: str) -> float:
        total = sum(trace.self_time[index] for index in trace.of(name) if selected(index))
        return ms(total) / max(queries, 1)

    relevant = total = 0
    for index in trace.of("skip"):
        if selected(index):
            relevant += trace.attrs[index]["relevant"]
            total += trace.attrs[index]["total"]
    return {
        "parse.ms_per_query": (per_query("parse"), "ms"),
        "canonical.ms_per_query": (per_query("canonical"), "ms"),
        "session.self_ms_per_query": (per_query("session.execute"), "ms"),
        "relational.ms_per_query": (per_query("relational"), "ms"),
        "skip.ms_per_query": (per_query("skip"), "ms"),
        "skip.relevant_ratio": (relevant / total if total else 0.0, "ratio"),
        "qobdd.ms_per_query": (per_query("qobdd"), "ms"),
        "intersect.ms_per_query": (per_query("intersect"), "ms"),
        "fold.ms_per_query": (per_query("fold"), "ms"),
        "method.self_ms_per_query": (per_query("method"), "ms"),
    }


def count_metrics(
    trace: spans.Spans, counted: list[dict], selected: Callable[[int], bool]
) -> dict[str, tuple[float, str]]:
    """Exact work counts over a fixed, seed-determined set of cold queries."""
    queries = max(len(counted), 1)

    def mean(key: str) -> float:
        return sum(entry[key] for entry in counted) / queries

    return {
        "relational.cq_evaluations": (
            sum(1 for index in trace.of("relational") if selected(index)), "count"
        ),
        "lineage.clauses_per_query": (mean("lineage_clauses"), "count"),
        "answers_per_query": (mean("answers"), "count"),
        "qobdd.nodes_per_query": (mean("qobdd_nodes"), "count"),
        "intersect.pair_expansions_per_query": (mean("pair_expansions"), "count"),
        "intersect.touched_components_per_query": (mean("touched_components"), "count"),
    }


def cache_metrics(tiers: dict[str, tuple[int, int]]) -> dict[str, tuple[float, str]]:
    metrics = {}
    for tier, (hits, misses) in tiers.items():
        lookups = hits + misses
        metrics[f"cache.{tier}_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"cache.{tier}_lookups"] = (lookups, "count")
    return metrics


def empty_serving_metrics() -> dict[str, tuple[float, str]]:
    """The HTTP, dispatch and write-path metrics of a workload that has none."""
    return {
        "http.self_ms_p50": (0.0, "ms"),
        "dispatch.queue_wait_ms_p50": (0.0, "ms"),
        "append_p50_ms": (0.0, "ms"),
        "append.prepare_ms_p50": (0.0, "ms"),
        "append.relational_share": (0.0, "ratio"),
        "append.apply_ms_p50": (0.0, "ms"),
        "append.generations": (0, "count"),
        "writer.lag_ms_max": (0.0, "ms"),
    }


def mixed_layer_metrics(trace: spans.Spans, phase: dict[str, Any]) -> dict[str, tuple[float, str]]:
    load_start, load_end = phase["window"]
    probe_start, probe_end = phase["probe_window"]
    appends = set(trace.of("dispatch.append"))

    def on_read_path(index: int) -> bool:
        return not appends.intersection(trace.ancestors(index))

    def in_load(index: int) -> bool:
        return load_start <= trace.start[index] < load_end and on_read_path(index)

    def in_probe(index: int) -> bool:
        return probe_start <= trace.start[index] < probe_end and on_read_path(index)

    metrics = query_layer_metrics(trace, in_load, len(phase["reads"]))
    metrics.update(count_metrics(trace, phase["probe"], in_probe))

    # HTTP self time: each client read minus the server's Dispatcher.execute
    # span inside it (one reader connection, so reads never overlap).
    executes = sorted((trace.start[index], trace.end[index]) for index in trace.of("dispatch.execute"))
    submits = sorted((trace.start[index], trace.end[index]) for index in trace.of("dispatch.submit"))
    sessions = sorted(trace.start[index] for index in trace.of("session.execute"))
    http_self, queue_wait = [], []
    cursor = 0
    for begin, end in phase["reads"]:
        while cursor < len(executes) and executes[cursor][0] < begin:
            cursor += 1
        if cursor < len(executes) and executes[cursor][1] <= end:
            http_self.append((end - begin) - (executes[cursor][1] - executes[cursor][0]))
    for submit_start, submit_end in submits:
        if not load_start <= submit_start < load_end:
            continue
        position = bisect_left(sessions, submit_end)
        # A string-cache hit never reaches a worker; a queued request's
        # session span starts before the next submit does.
        following = bisect_left(submits, (submit_end,))
        next_submit = submits[following][0] if following < len(submits) else float("inf")
        if position < len(sessions) and sessions[position] < next_submit:
            queue_wait.append(sessions[position] - submit_end)
    metrics["http.self_ms_p50"] = (ms(percentile(http_self, 50)), "ms")
    metrics["dispatch.queue_wait_ms_p50"] = (ms(percentile(queue_wait, 50)), "ms")

    tiers = {}
    for tier in ("string", "result", "lineage"):
        hits = phase["after"]["cache"][tier]["hits"] - phase["before"]["cache"][tier]["hits"]
        misses = phase["after"]["cache"][tier]["misses"] - phase["before"]["cache"][tier]["misses"]
        tiers[tier] = (hits, misses)
    metrics.update(cache_metrics(tiers))

    prepares = trace.of("append.prepare")
    prepare_total = sum(map(trace.duration, prepares))
    prepare_ids = set(prepares)
    relational_under_prepare = sum(
        trace.duration(index) for index in trace.of("relational")
        if prepare_ids.intersection(trace.ancestors(index))
    )
    metrics["append.prepare_ms_p50"] = (ms(percentile(list(map(trace.duration, prepares)), 50)), "ms")
    metrics["append.relational_share"] = (
        relational_under_prepare / prepare_total if prepare_total else 0.0, "ratio"
    )
    metrics["append.apply_ms_p50"] = (
        ms(percentile(list(map(trace.duration, trace.of("append.apply"))), 50)), "ms"
    )
    metrics["append.generations"] = (
        phase["after"]["generation"] - phase["before"]["generation"], "count"
    )
    return metrics


def coverage(workload: str, trace: spans.Spans) -> list[str]:
    """Layers the workload must exercise that recorded no span."""
    return sorted(REQUIRED_LAYERS[workload] - trace.layers())


# ------------------------------------------------------------------ output
def stamp(args: argparse.Namespace, components: int) -> None:
    print(
        f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"workload={args.workload} seed={args.seed} data_seed={workloads.DATA_SEED} "
        f"components={components} trace={args.trace}",
        flush=True,
    )


def finish(
    metrics: dict[str, tuple[float, str]],
    attempted: int,
    failed: int,
    summary: dict[str, Any],
    uncovered: list[str] | None = None,
) -> dict[str, Any]:
    summary["error_rate"] = failed / attempted if attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.4f} {unit}")
    for name, value in summary.items():
        print(f"  {name:<40} {value}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["per_layer" if uncovered is not None else "end_to_end"]}
    if declared != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")
    correct = failed == 0
    if uncovered:
        print(f"layer coverage check failed: no span from {uncovered}", file=sys.stderr)
        correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(REQUIRED_LAYERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    runner = run_mixed if args.workload == "serve-mixed" else run_cold
    result = runner(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
