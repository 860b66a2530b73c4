"""The benchmark's three workloads and the loops that time them.

Every workload runs on the bench graph of ``benchmarks/bench_engine``
(G(n=500, p=0.01), graph seed 2023, m=1167, probabilities U[0.3, 0.9])
with the default engine and ``workers=1``.  The workload seed sets the
order of the closed loops' rounds and the ``k`` of every serve-dynamic
read; the query seeds, the draw and the updates come from fixed pools.
The program sees only those generated inputs.  README.md in this
directory says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import gc
import hashlib
import http.client
import json
import math
import random
import statistics
import threading
import time
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

import numpy as np

#: an op or request slower than this misses the latency limit
SLO_MS = 1000.0
#: serve-dynamic times the host loop only when no request is in flight,
#: the next is due no sooner than this, in seconds ...
IDLE_GAP_S = 0.02
#: ... and the last reply came at least this long ago
IDLE_SETTLE_S = 0.005
#: set-ups per run; the median is reported, so the first set-up's lazy
#: imports count once
SETUP_REPEATS = 7
#: seeds the generator of the closed loops' untimed warm-up round, the
#: same in every run so that set-up does the same work whatever the
#: workload seed
WARMUP_SEED = 1


def bench_graph():
    from benchmarks.bench_engine import _bench_graph

    return _bench_graph()


class PeakRss:
    """The process's resident-memory high-water mark over a phase.

    Linux lets a process reset its own high-water mark (``VmHWM``) by
    writing ``5`` to ``/proc/self/clear_refs``.  :meth:`start` collects
    garbage cycles, returns freed heap pages to the system and resets the
    mark, all before the phase, so the mark read after it is the phase's
    own peak and not what set-up left behind.  Raises ``OSError`` where
    the mark cannot be reset.
    """

    def __init__(self) -> None:
        self._reset()
        try:
            self._trim = ctypes.CDLL(None).malloc_trim
        except (OSError, AttributeError):
            self._trim = None

    @staticmethod
    def _reset() -> None:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")

    def start(self) -> None:
        gc.collect()
        if self._trim is not None:
            self._trim(0)
        self._reset()

    @staticmethod
    def peak_mib() -> float:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise OSError("no VmHWM line in /proc/self/status")


def tail(latencies: List[float], pct: float):
    """Nearest-rank ``pct`` percentile and how many samples lie beyond."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_ops_for(pct: float) -> int:
    """Fewest samples that leave ten beyond the ``pct`` percentile."""
    n = 10
    while n - math.ceil(pct / 100.0 * n) < 10:
        n += 1
    return n


#: about the host-speed loop's median time, in ms, on the host this
#: benchmark was tuned on (2-core Intel Xeon, Python 3.11, numpy 2.4)
NOMINAL_HOST_MS = 4.0


class HostSpeed:
    """Times a fixed pure-Python and numpy loop that does not touch the
    library, between ops: how fast the host runs while the ops run.

    The hosts this runs on are shared, and their speed moves by a third
    within minutes and by a tenth within seconds.  Each op's time is
    therefore reported scaled by ``NOMINAL_HOST_MS`` over the loop's time
    measured next to it, and set-up times by the set-up phase's median
    loop time; README.md shows how much steadier that makes the figures.
    Raw figures stay in the provenance line.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the loop once; returns milliseconds.  The cyclic garbage
        collector is paused meanwhile: a collection that the loop's
        allocations trigger would walk the program's whole heap, and
        read 12 to 17 ms after a large op instead of 5."""
        gc.disable()
        try:
            started = perf_counter()
            table: Dict[int, int] = {}
            for i in range(5_000):
                table[i % 613] = table.get(i % 613, 0) + i
            seen = set()
            for i in range(2_500):
                seen.add(frozenset((i % 97, i % 89)))
            vec = np.arange(4096, dtype=np.int64)
            for _i in range(50):
                vec = (vec * 3 + 1) % 1009
                np.sort(vec)
            self.samples.append(1000.0 * (perf_counter() - started))
        finally:
            gc.enable()
        return self.samples[-1]

    def median_ms(self) -> float:
        return statistics.median(self.samples)


def scale(seconds: float, host_ms: float) -> float:
    """A time measured while the host loop took ``host_ms``, at nominal
    host speed."""
    return seconds * NOMINAL_HOST_MS / host_ms


def summarize(latencies, setups, phase_s, within, rss_mib, tail_pct):
    """The six end-to-end metrics from per-op latencies (seconds)."""
    tail_value, _beyond = tail(latencies, tail_pct)
    return {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(latencies) * 1000.0,
        "query_tail_ms": tail_value * 1000.0,
        "throughput_qps": len(latencies) / phase_s,
        "slo_share": within / len(latencies),
        "peak_rss_mib": rss_mib,
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One timed op: its inputs, latency, and the digest and size of its
    result's JSON bytes."""

    __slots__ = ("index", "params", "latency", "host_ms", "digest",
                 "result_bytes", "ok")

    def __init__(self, index, params, latency, host_ms, data):
        self.index = index
        self.params = params
        self.latency = latency
        #: the host loop's time around the op: mean of the samples just
        #: before and just after it
        self.host_ms = host_ms
        self.digest = digest(data)
        self.result_bytes = len(data)
        self.ok = False


# ----------------------------------------------------------------------
# closed-loop workloads: one client, the next op starts when the last
# one returned
# ----------------------------------------------------------------------
class ClosedLoop:
    """A closed loop over a fixed pool of rounds.

    An op's cost follows its draw many-fold: most worlds of the bench
    graph hold one to a few densest subgraphs, a few in a thousand hold
    hundreds and rarer ones thousands, and such a world sets its op's
    time and memory.  With a draw per workload seed, the largest op's
    peak memory ranged from 82 MiB to 1.3 GB between seeds, and the tail
    and throughput spread by 12%.  So every run draws its query seeds
    from the same pool, and the workload seed sets the order in which
    the rounds run; each run does the same work, in another order.
    """

    name = ""
    #: tail percentile, fixed per workload so every run reports the same
    tail_pct = 70.0
    #: ops whose per-layer counts the traced run reports (a fixed prefix,
    #: so the counts repeat exactly for one seed)
    count_ops = 10
    #: ops per round
    per_round = 1
    #: a round's time at nominal host speed, in seconds: ``--seconds``
    #: over it is the number of rounds a run does
    round_s = 1.0

    def rounds(self, seed: int, seconds: float, count: Optional[int] = None
               ) -> List[list]:
        """The run's rounds, each a list of op inputs: ``count`` rounds,
        or as many as fill ``seconds`` at nominal speed (and leave ten
        samples beyond the tail percentile), in the seed's order."""
        if count is None:
            count = max(math.ceil(min_ops_for(self.tail_pct) / self.per_round),
                        round(seconds / self.round_s))
        pool = random.Random(f"mpdsbench:{self.name}:pool")
        rounds = [self.make_round(pool) for _ in range(count)]
        random.Random(f"mpdsbench:{self.name}:{seed}").shuffle(rounds)
        return rounds

    def make_round(self, rng) -> list:
        """One round's op inputs, drawn from the pool generator."""
        raise NotImplementedError

    def run_op(self, session, graph, params):
        """Run one op; ``session`` is the round's session, or ``None``."""
        raise NotImplementedError

    def open_round(self, graph):
        """The context a round runs in (a ``Session``, or nothing)."""
        return contextlib.nullcontext()

    def close_round(self, session) -> None:
        """Called at the end of each timed round, with its context."""

    def reference(self, graph, params):
        """The op's result from a different program path."""
        raise NotImplementedError


#: the five queries of one session-mix round: (mode, k, l_m)
SESSION_MIX = (
    ("mpds", 5, None), ("nds", 5, 3), ("nds", 10, 2), ("nds", 3, 4),
    ("mpds", 10, None),
)


class SessionMix(ClosedLoop):
    """A ``Session`` per round; five MPDS/NDS queries on one draw."""

    name = "session-mix"
    theta = 12
    count_ops = 15
    per_round = len(SESSION_MIX)
    round_s = 0.72
    #: the MPDS queries' per-world cap on enumerated densest sets.  Under
    #: the default of 100,000, about one world in 600 enumerates that
    #: many (one such op took 13.7 s and 2.3 GB) and alone decides a
    #: run's throughput; at 1000 it is truncated and replayed in ~0.5 s
    per_world_limit = 1000

    def __init__(self) -> None:
        #: one ``stats_snapshot()`` per timed round
        self.session_stats: List[dict] = []

    def make_round(self, rng):
        seed = rng.randrange(2, 2**31)
        return [{"seed": seed, "mode": mode, "k": k, "min_size": min_size}
                for mode, k, min_size in SESSION_MIX]

    def open_round(self, graph):
        from repro.session import Session

        return Session(graph)

    def close_round(self, session) -> None:
        self.session_stats.append(session.stats_snapshot())

    def run_op(self, session, graph, params):
        query = (session.query()
                 .sampler("mc", theta=self.theta, seed=params["seed"])
                 .top_k(params["k"]))
        if params["mode"] == "mpds":
            return query.per_world_limit(self.per_world_limit).mpds()
        return query.min_size(params["min_size"]).nds()

    def reference(self, graph, params):
        from repro.core.mpds import top_k_mpds
        from repro.core.nds import top_k_nds

        if params["mode"] == "mpds":
            return top_k_mpds(graph, k=params["k"], theta=self.theta,
                              seed=params["seed"],
                              per_world_limit=self.per_world_limit)
        return top_k_nds(graph, k=params["k"], min_size=params["min_size"],
                         theta=self.theta, seed=params["seed"])


#: the three Graph-object paths: (theta, query knobs), sized so that
#: each op costs about the same and the latency mix has one mode
GRAPH_PATHS = (
    (1, {"enumerate_all": False}),
    (8, {"measure": "clique:h=3"}),
    (24, {"per_world_limit": 2}),
)


class GraphPaths(ClosedLoop):
    """One-shot queries that still solve worlds as ``Graph`` objects."""

    name = "graph-paths"
    count_ops = 18
    per_round = len(GRAPH_PATHS)
    round_s = 0.9

    def make_round(self, rng):
        return [{"seed": rng.randrange(2, 2**31), "theta": theta,
                 "knobs": knobs} for theta, knobs in GRAPH_PATHS]

    def run_op(self, session, graph, params):
        from repro.core.mpds import top_k_mpds
        from repro.specs import build_measure

        kwargs = dict(params["knobs"])
        if "measure" in kwargs:
            kwargs["measure"] = build_measure(kwargs["measure"])
        return top_k_mpds(graph, k=5, theta=params["theta"],
                          seed=params["seed"], **kwargs)

    def reference(self, graph, params):
        from repro.session import Session

        knobs = params["knobs"]
        with Session(graph) as session:
            query = (session.query()
                     .sampler("mc", theta=params["theta"],
                              seed=params["seed"])
                     .top_k(5))
            if "measure" in knobs:
                query.measure(knobs["measure"])
            if "enumerate_all" in knobs:
                query.enumerate_all(knobs["enumerate_all"])
            if "per_world_limit" in knobs:
                query.per_world_limit(knobs["per_world_limit"])
            return query.mpds()


def warmup_round(workload: ClosedLoop) -> list:
    """The untimed warm-up round, drawn from ``WARMUP_SEED``."""
    return workload.make_round(random.Random(WARMUP_SEED))


def run_round(workload: ClosedLoop, graph, ops: list, op=None) -> None:
    """Run one round's ops; ``op(params, fn)`` times each, if given."""
    with workload.open_round(graph) as session:
        for params in ops:
            fn = functools.partial(workload.run_op, session, graph, params)
            if op is None:
                fn()
            else:
                op(params, fn)
        if op is not None:
            workload.close_round(session)


def timed_setups(repeats: int, setup: Callable,
                 teardown: Callable = lambda result: None):
    """Run ``setup()`` ``repeats`` times, tearing down all but the last.

    Before each set-up, untimed, garbage cycles are collected, so each
    starts from the same heap and none pays for collecting what the one
    before it left, and the host loop is timed three times while nothing
    else runs (a daemon still frees a reply's objects after sending it).
    Returns the times scaled by the median of those loop times, the raw
    times, that median, and the last set-up's result."""
    speed = HostSpeed()
    times, result = [], None
    for _ in range(repeats):
        if result is not None:
            teardown(result)
            result = None
        gc.collect()
        for _sample in range(3):
            speed.sample()
        started = perf_counter()
        result = setup()
        times.append(perf_counter() - started)
    host_ms = speed.median_ms()
    return [scale(t, host_ms) for t in times], times, host_ms, result


def run_closed(workload: ClosedLoop, seed: int, seconds: float, tracer,
               corrupt: bool, rounds: Optional[int] = None) -> dict:
    """Set up, time the closed loop, then check every op."""
    def setup():
        graph = bench_graph()
        run_round(workload, graph, warmup_round(workload))
        return graph

    setups_scaled, setups, setup_host_ms, graph = timed_setups(
        SETUP_REPEATS, setup)
    speed = HostSpeed()
    speed.sample()

    plan = workload.rounds(seed, seconds, rounds)
    count_ops = min(workload.count_ops, len(plan) * workload.per_round)
    ops: List[Op] = []
    rss = PeakRss()
    # serializing a result for the check and timing the host loop pause
    # the phase clock, so they cost neither latency nor throughput
    paused = [0.0, 0.0]

    def op(params, fn):
        index = len(ops)
        wall, cpu = perf_counter(), process_time()
        root = tracer.begin_op(index) if tracer is not None else None
        op_cpu = process_time()
        started = perf_counter()
        result = fn()
        latency = perf_counter() - started
        op_cpu = process_time() - op_cpu
        if tracer is not None:
            tracer.end_op(root, latency)
        host_ms = (speed.samples[-1] + speed.sample()) / 2
        ops.append(Op(index, params, latency, host_ms,
                      result.to_json().encode()))
        paused[0] += perf_counter() - wall - latency
        paused[1] += process_time() - cpu - op_cpu

    rss.start()
    cpu0 = process_time()
    started = perf_counter()
    for round_ops in plan:
        run_round(workload, graph, round_ops, op)
    elapsed = perf_counter() - started - paused[0]
    cpu = process_time() - cpu0 - paused[1]
    peak = rss.peak_mib()

    check_started = perf_counter()
    for index, record in enumerate(ops):
        want = workload.reference(graph, record.params).to_json().encode()
        if corrupt and index == 0:
            want = want[:-1] + b" "
        record.ok = digest(want) == record.digest
    check_s = perf_counter() - check_started

    failed = sum(not record.ok for record in ops)
    latencies = [scale(op.latency, op.host_ms) for op in ops]
    # a closed loop's latency limit applies to the scaled times, like its
    # latency figures: the slowest Graph-path op takes about 0.8 s at
    # nominal speed, and on a slow host its raw time crosses 1 s
    within = sum(record.ok and latency * 1000.0 <= SLO_MS
                 for record, latency in zip(ops, latencies))
    within_raw = sum(record.ok and record.latency * 1000.0 <= SLO_MS
                     for record in ops)
    # the loop glue between ops (a session-mix round opening its
    # Session) is scaled by the run's median host time
    glue = elapsed - sum(op.latency for op in ops)
    return {
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "valid": True,
        "metrics": summarize(
            latencies, setups_scaled,
            sum(latencies) + scale(glue, speed.median_ms()), within,
            peak, workload.tail_pct),
        "info": {
            "raw": summarize([op.latency for op in ops], setups, elapsed,
                             within_raw, peak, workload.tail_pct),
            "host_ms": speed.median_ms(),
            "op_ms_host_ms": [[op.latency * 1000.0, op.host_ms]
                              for op in ops],
            "setups_s": setups,
            "setups_scaled_s": setups_scaled,
            "setup_host_ms": setup_host_ms,
            "tail_pct": workload.tail_pct,
            "tail_beyond": tail(latencies, workload.tail_pct)[1],
            "rounds": len(plan),
            "timed_s": elapsed,
            "check_s": check_s,
            "cpu_s": cpu,
            "count_ops": count_ops,
        },
        "session_stats": getattr(workload, "session_stats", []),
    }


# ----------------------------------------------------------------------
# serve-dynamic: an open loop against an in-process repro-serve daemon
# ----------------------------------------------------------------------
class ServeDynamic:
    """Warm dynamic MPDS reads over HTTP, with an edge update every
    ``update_every`` requests, sent on a fixed schedule."""

    name = "serve-dynamic"
    theta = 160
    #: one draw for the whole run: read cost follows the candidate
    #: count, which varies many-fold between draws, so a fixed draw
    #: keeps runs with different workload seeds comparable
    draw_seed = 3
    rate = 4.0
    update_every = 15
    k_choices = (1, 3, 5, 10)
    tail_pct = 75.0
    senders = 2
    #: the reads' per-world cap on enumerated densest sets, as in
    #: session-mix: an update can flip a world into one whose densest
    #: family has tens of thousands of members (seed 11's second update
    #: does), and under the default of 100,000 that read ran for minutes
    #: and gigabytes; at 1000 it is truncated and replayed in ~0.3 s
    per_world_limit = 1000

    def __init__(self) -> None:
        self.rows = None

    @property
    def sampler(self) -> str:
        return f"mc:theta={self.theta},seed={self.draw_seed}"

    def read_body(self, k: int) -> dict:
        return {"graph": "bench", "run": "mpds", "sampler": self.sampler,
                "k": k, "dynamic": True,
                "per_world_limit": self.per_world_limit}

    def setup(self):
        from repro.serve import ReproServer

        graph = bench_graph()
        self.rows = [[u, v, p] for u, v, p in graph.weighted_edges()]
        server = ReproServer(workers=1).start()
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=120)
        try:
            status, raw = _post(conn, "/graphs",
                                {"name": "bench", "edges": self.rows})
            if status != 201:
                raise RuntimeError(f"graph registration failed: {raw!r}")
            status, raw = _post(conn, "/query", self.read_body(1))
            if status != 200:
                raise RuntimeError(f"warm-up read failed: {raw[:200]!r}")
        finally:
            conn.close()
        return server

    def plan(self, rng, count: int) -> List[tuple]:
        """The request sequence: reads with ``k`` drawn from ``rng`` (the
        workload seed), and every ``update_every``-th request a small
        re-weighting of one edge (a small change flips few worlds, so
        most of the draw stays warm).

        The updates, like the draw, are the same in every run.  An update
        can flip a world into one with a densest family of tens of
        thousands.  With updates drawn from the workload seed, seed 11's
        second update did: the read after it replayed the truncated
        world, the candidates grew from 751 to 1750 and the reply from
        0.87 to 2.1 MB, every later read took longer than the 250 ms
        between requests, and the daemon fell behind for the rest of the
        run.  One seed in forty (1 to 40) did that."""
        updates = random.Random(f"mpdsbench:{self.name}:updates")
        current = {(u, v): p for u, v, p in self.rows}
        edges = list(current)
        requests = []
        for i in range(count):
            if (i + 1) % self.update_every == 0:
                u, v = edges[updates.randrange(len(edges))]
                step = (updates.uniform(0.01, 0.04)
                        * updates.choice((-1, 1)))
                p = round(min(0.95, max(0.05, current[(u, v)] + step)), 6)
                current[(u, v)] = p
                requests.append(("update", (u, v, p)))
            else:
                requests.append(("read", rng.choice(self.k_choices)))
        return requests

    def version_graph(self, updates: List[tuple]):
        """The graph the server holds after ``updates``, built the way
        the server builds it from the registered rows."""
        from repro.delta import GraphDelta
        from repro.graph.uncertain import UncertainGraph

        graph = UncertainGraph()
        for u, v, p in self.rows:
            graph.add_edge(u, v, p)
        for update in updates:
            GraphDelta(updates=[update]).apply(graph)
        return graph


def _post(conn, path: str, body: dict):
    conn.request("POST", path, body=json.dumps(body).encode(),
                 headers={"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, reply.read()


def _get(conn, path: str) -> dict:
    conn.request("GET", path)
    reply = conn.getresponse()
    return json.loads(reply.read())


_RESULT_KEY = b', "result": '


def split_reply(raw: bytes):
    """Split a query reply into its small header object and the exact
    bytes the server wrote for ``result`` (its last key)."""
    cut = raw.find(_RESULT_KEY)
    if cut < 0 or not raw.endswith(b"}"):
        return None, b""
    head = json.loads(raw[:cut] + b"}")
    return head, raw[cut + len(_RESULT_KEY):-1]


def run_serve(workload: ServeDynamic, seed: int, seconds: float, tracer,
              corrupt: bool) -> dict:
    """Set up the daemon, send the open loop's requests, then check every
    reply."""
    setups_scaled, setups, setup_host_ms, server = timed_setups(
        SETUP_REPEATS, workload.setup, lambda old: old.shutdown())
    speed = HostSpeed()

    rng = random.Random(f"mpdsbench:{workload.name}:{seed}")
    count = max(1, int(round(workload.rate * seconds)))
    plan = workload.plan(rng, count)
    records: List[Optional[dict]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    # per sender: whether a request is in flight, and when its next
    # request is due (inf once it has sent its last)
    busy = [False] * workload.senders
    next_due = [0.0] * workload.senders
    last_done = [0.0]
    rss = PeakRss()
    errors: List[Exception] = []

    with server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=120)
        stats_before = _get(conn, "/stats")
        # requests overlap, so the serve loop reports the peak of the
        # whole timed phase
        rss.start()
        cpu0 = process_time()
        origin = perf_counter() + 0.05

        def take(n: int) -> int:
            """The sender's next request index (called under ``lock``)."""
            i = cursor[0]
            cursor[0] += 1
            next_due[n] = (origin + i / workload.rate if i < count
                           else math.inf)
            return i

        def sender(n: int) -> None:
            client = http.client.HTTPConnection(server.host, server.port,
                                                 timeout=120)
            try:
                with lock:
                    i = take(n)
                while i < count:
                    due = origin + i / workload.rate
                    wait = due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    kind, arg = plan[i]
                    if kind == "read":
                        path, body = f"/query?op={i}", workload.read_body(arg)
                    else:
                        path = f"/graphs/bench/update?op={i}"
                        body = {"updates": [list(arg)]}
                    with lock:
                        busy[n] = True
                    sent = perf_counter()
                    root = (tracer.begin_op(i, "http")
                            if tracer is not None else None)
                    status, raw = _post(client, path, body)
                    done = perf_counter()
                    if tracer is not None:
                        tracer.end_op(root, done - sent)
                    checked = perf_counter()
                    if kind == "read":
                        head, result = split_reply(raw)
                        summary = None
                        sha, size = digest(result), len(result)
                    else:
                        head, sha, size = None, None, len(raw)
                        summary = json.loads(raw) if status == 200 else None
                    records[i] = {
                        "kind": kind, "arg": arg, "status": status,
                        "due": due, "sent": sent, "done": done,
                        "head": head, "digest": sha, "bytes": size,
                        "summary": summary,
                        "check_s": perf_counter() - checked,
                    }
                    with lock:
                        busy[n] = False
                        last_done[0] = perf_counter()
                        i = take(n)
            except Exception as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                with lock:
                    busy[n], next_due[n] = False, math.inf
                client.close()

        threads = [threading.Thread(target=sender, args=(n,),
                                    name=f"sender-{n}")
                   for n in range(workload.senders)]
        for thread in threads:
            thread.start()
        # the host loop runs on this thread only while the daemon and the
        # senders are idle, so it does not share the interpreter with a
        # request: (start, ms) of each such sample
        idle: List[tuple] = []
        while any(thread.is_alive() for thread in threads):
            now = perf_counter()
            with lock:
                quiet = (not any(busy) and min(next_due) - now > IDLE_GAP_S
                         and now - last_done[0] > IDLE_SETTLE_S)
            if quiet:
                idle.append((now, speed.sample()))
            time.sleep(0.01)
        for thread in threads:
            thread.join()
        elapsed = max(r["done"] for r in records if r) - origin
        cpu = process_time() - cpu0
        peak = rss.peak_mib()
        stats_after = _get(conn, "/stats")
        conn.close()
    if errors:
        raise errors[0]

    # which graph version each read saw: updates done before it was
    # sent certainly applied; updates sent before its reply may have
    updates = [(i, r) for i, r in enumerate(records) if r["kind"] == "update"]
    update_args = [plan[i][1] for i, _r in updates]
    check_started = perf_counter()
    references: Dict[tuple, str] = {}
    first_read = True
    for record in records:
        if record["kind"] == "update":
            summary = record["summary"] or {}
            record["ok"] = (record["status"] == 200
                            and summary.get("updates") == 1
                            and summary.get("columns_redrawn") == 1)
            continue
        low = sum(r["done"] <= record["sent"] for _i, r in updates)
        high = sum(r["sent"] < record["done"] for _i, r in updates)
        wanted = set()
        for version in range(low, high + 1):
            if (version, record["arg"]) not in references:
                references.update(_serve_references(
                    workload, update_args[:version], version))
            wanted.add(references[(version, record["arg"])])
        if corrupt and first_read:
            wanted = {sha[::-1] for sha in wanted}
        first_read = False
        record["ok"] = (record["status"] == 200
                        and record["head"] is not None
                        and record["head"].get("k") == record["arg"]
                        and record["digest"] in wanted)
    check_s = perf_counter() - check_started

    latencies = [r["done"] - r["due"] for r in records]
    late = [max(0.0, r["sent"] - r["due"]) for r in records]
    # backlog at each due time: requests already due and not answered
    backlog = [sum(1 for r in records[: i + 1] if r["done"] > records[i]["due"])
               for i in range(count)]
    # growing: the last quarter's median backlog is above the first
    # quarter's by more than one request.  Medians, so that one slow read
    # near the end (a replayed world after an update) is a burst that
    # drains, not growth; an overloaded daemon falls further behind with
    # every request and moves the median
    quarter = max(1, count // 4)
    growing = (statistics.median(backlog[-quarter:])
               > statistics.median(backlog[:quarter]) + 1)
    failed = sum(not r["ok"] for r in records)
    within = sum(r["ok"] and (r["done"] - r["due"]) * 1000.0 <= SLO_MS
                 for r in records)
    run_host_ms = speed.median_ms() if idle else setup_host_ms
    host = [idle_host_ms(idle, r["due"], r["done"], run_host_ms)
            for r in records]
    # the schedule sets an open loop's throughput, so it is not scaled
    return {
        "records": records,
        "attempted": count,
        "failed": failed,
        "valid": not growing,
        "metrics": summarize(
            [scale(t, ms) for t, ms in zip(latencies, host)],
            setups_scaled, elapsed, within, peak, workload.tail_pct),
        "info": {
            "raw": summarize(latencies, setups, elapsed, within, peak,
                             workload.tail_pct),
            "setups_s": setups,
            "setups_scaled_s": setups_scaled,
            "setup_host_ms": setup_host_ms,
            "host_ms": run_host_ms,
            "idle_host_samples": len(idle),
            "tail_pct": workload.tail_pct,
            "tail_beyond": tail(latencies, workload.tail_pct)[1],
            "timed_s": elapsed,
            "check_s": check_s,
            "reply_check_ms_mean": 1000.0 * statistics.mean(
                r["check_s"] for r in records),
            "cpu_s": cpu,
            "sender_late_ms_mean": 1000.0 * statistics.mean(late),
            "sender_late_ms_max": 1000.0 * max(late),
            "backlog": backlog,
            "backlog_end": backlog[-1],
            "backlog_max": max(backlog),
            "backlog_growing": growing,
            "versions": len(updates) + 1,
            "rate_per_s": workload.rate,
            "count_ops": count,
        },
        "stats_before": stats_before,
        "stats_after": stats_after,
    }


def idle_host_ms(idle: List[tuple], due: float, done: float,
                 fallback: float) -> float:
    """The host loop's time around a request: the mean of the last idle
    sample before it was due and the first after its reply (one of them
    at the phase's ends; ``fallback`` if the daemon was never idle)."""
    starts = [start for start, _ms in idle]
    before = bisect.bisect_left(starts, due) - 1
    after = bisect.bisect_right(starts, done)
    near = [idle[j][1] for j in (before, after) if 0 <= j < len(idle)]
    return statistics.mean(near) if near else fallback


def _serve_references(workload: ServeDynamic, updates, version) -> dict:
    """Digests of every ``k`` read on one graph version, from a fresh
    dynamic session on that version."""
    from repro.session import Session

    out = {}
    with Session(workload.version_graph(updates)) as session:
        for k in workload.k_choices:
            result = (session.query().sampler("mc", theta=workload.theta,
                                              seed=workload.draw_seed)
                      .dynamic().top_k(k)
                      .per_world_limit(workload.per_world_limit).mpds())
            out[(version, k)] = digest(result.to_json().encode())
    return out


CLOSED = {cls.name: cls for cls in (SessionMix, GraphPaths)}
NAMES = tuple(CLOSED) + (ServeDynamic.name,)
