"""Workload inputs and the loops that feed them to the program.

Every input is derived from the benchmark's ``--seed``; the program only
ever receives the generated :class:`~repro.engine.request.Request` objects.
``run_engine`` and ``run_cluster`` each play one *pass*: they build fresh
managers, engines and (for the cluster) a router, play the workload to
completion, and return what the metrics and correctness checks need.

Wall time is taken only around calls into the program (``step``,
``submit``, ``add_requests``); the benchmark's own bookkeeping -- the
closed-loop client, stats sampling, the reference routine -- sits outside
the timed regions.  In a traced pass the spans recorded around the inner
calls are inside them; ``trace.overhead_frac`` reports that cost.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro import H100, LLMEngine, get_model, kv_budget, make_manager
from repro.engine.metrics import RequestMetrics
from repro.engine.request import Request
from repro.engine.scheduler import profile_config
from repro.serving import Replica, Router, ServingCluster
from repro.workloads import arxiv_qa_multiturn, mmmu_pro, poisson_arrivals, sharegpt

GPU = H100


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed shape of one workload; only the inputs vary with the seed."""

    name: str
    model: str
    kv_fraction: float          # share of the GPU's kv_budget per manager
    requests: int = 0           # open-loop / offline request count
    rates: tuple = ()           # open-loop rate ladder, nominal rung first
    conversations: int = 0      # closed-loop clients
    turns: int = 0              # turns per conversation
    article_tokens: int = 0
    think_mean_s: float = 0.0
    replicas: int = 1
    ladder_requests: int = 0    # requests per off-nominal ladder rung


FULL = {
    "chat-open": WorkloadSpec(
        "chat-open", "gemma2-9b", 1 / 8, requests=1000, rates=(2.0, 3.0, 4.0),
        ladder_requests=500,
    ),
    "docqa-cluster": WorkloadSpec(
        "docqa-cluster", "gemma2-9b", 1 / 4, conversations=64, turns=16,
        article_tokens=2048, think_mean_s=5.0, replicas=4,
    ),
    "vision-batch": WorkloadSpec(
        "vision-batch", "llama3.2-vision-11b", 1 / 2, requests=1000,
    ),
}

#: Same shapes at a size the benchmark's own tests run in seconds.
TINY = {
    "chat-open": WorkloadSpec(
        "chat-open", "gemma2-9b", 1 / 8, requests=40, rates=(2.0, 3.0, 4.0),
        ladder_requests=20,
    ),
    "docqa-cluster": WorkloadSpec(
        "docqa-cluster", "gemma2-9b", 1 / 4, conversations=4, turns=3,
        article_tokens=1024, think_mean_s=5.0, replicas=2,
    ),
    "vision-batch": WorkloadSpec(
        "vision-batch", "llama3.2-vision-11b", 1 / 2, requests=6,
    ),
}

SCALES = {"full": FULL, "tiny": TINY}


def kv_bytes_for(spec: WorkloadSpec) -> int:
    model = get_model(spec.model)
    return int(kv_budget(model, GPU).kv_bytes * spec.kv_fraction)


# ----------------------------------------------------------------------
# Input generation (seeded; excluded from every timed region)
# ----------------------------------------------------------------------


def chat_inputs(spec: WorkloadSpec, seed: int, rate: float, n: int) -> List[Request]:
    return poisson_arrivals(sharegpt(n, seed=seed), rate, seed=seed)


def vision_inputs(spec: WorkloadSpec, seed: int) -> List[Request]:
    requests = mmmu_pro(spec.requests, get_model(spec.model), seed=seed)
    for request in requests:
        request.arrival_time = 0.0
    return requests


def docqa_inputs(spec: WorkloadSpec, seed: int) -> List[List[Request]]:
    """Per-conversation turn lists; arrival times are set by the client."""
    requests = arxiv_qa_multiturn(
        spec.conversations, spec.turns, seed=seed,
        article_tokens=spec.article_tokens, shuffle=False,
    )
    convs: Dict[str, List[Request]] = {}
    for request in requests:
        conv = request.request_id.rsplit("-t", 1)[0]
        convs.setdefault(conv, []).append(request)
    for turns in convs.values():
        turns.sort(key=lambda r: int(r.request_id.rsplit("-t", 1)[1]))
    return [convs[k] for k in sorted(convs, key=lambda c: int(c.split("-a")[1]))]


def think_times(spec: WorkloadSpec, seed: int) -> List[List[float]]:
    """Exponential think time before each turn (turn 0: after t=0)."""
    rng = random.Random(f"{seed}:docqa-think")
    return [
        [rng.expovariate(1.0 / spec.think_mean_s) for _ in range(spec.turns)]
        for _ in range(spec.conversations)
    ]


# ----------------------------------------------------------------------
# Machine-speed reference
# ----------------------------------------------------------------------

#: Program wall seconds between two runs of the reference routine.
REFERENCE_EVERY_S = 0.1

#: Reference-routine duration that defines nominal machine speed for
#: ``setup_s`` (close to its median on the 2-core x86 host the bounds in
#: BENCHMARK.json were measured on).
NOMINAL_REFERENCE_S = 0.0055

#: Entries of the reference routine's large table (about 30 MB).
REFERENCE_TABLE = 1 << 18


def reference_routine(table: List[tuple]) -> float:
    """Wall seconds of a fixed pure-Python routine: dict, tuple, str and
    sort work on a small working set, then dependent random reads across
    ``table``, which misses the caches the way the program's large heaps do.

    Run between engine steps, it measures how fast this machine executes
    the interpreter at that moment.  Wall-clock costs divided by its median
    no longer carry the machine's speed, which varies by 15-25% between
    runs on a shared host.
    """
    start = perf_counter()
    small = {}
    rows = []
    for i in range(4000):
        small[i] = (i, str(i))
        rows.append(small[i])
    for i in range(0, 4000, 3):
        del small[i]
    rows.sort(key=lambda row: -row[0])
    mask = len(table) - 1
    j = acc = 0
    for _ in range(12000):
        j = (j * 1103515245 + 12345) & mask
        acc += table[j][1]
    return perf_counter() - start


class Reference:
    """Runs :func:`reference_routine` every ``REFERENCE_EVERY_S`` of
    program wall time, outside the timed regions."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._table = [(i, 7 * i) for i in range(REFERENCE_TABLE)]
        self._due = 0.0

    def measure(self) -> None:
        self.samples.append(reference_routine(self._table))

    def tick(self, program_wall: float) -> None:
        if program_wall >= self._due:
            self.measure()
            self._due = program_wall + REFERENCE_EVERY_S


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """Everything one pass leaves behind for metrics and checks."""

    sent: List[Request]
    finished: List[RequestMetrics]
    failed: List[Request]
    sim_duration: float
    step_walls: List[float]
    program_wall: float
    reference_s: List[float]
    throughput_tok_s: float
    managers: list
    engines: list
    router: Optional[Router] = None
    dispatch_lag_max: float = 0.0
    #: Peak RSS the pass added over the process's peak before it started.
    rss_growth_mb: float = 0.0


def tokens(finished: List[RequestMetrics]) -> int:
    return sum(m.prompt_len + m.output_len for m in finished)


def closed_loop_throughput(convs: List[List[Request]], finished: List[RequestMetrics]) -> float:
    """Sum over conversations of tokens per simulated second, each over its
    own span from first send to last reply.  Dividing by the whole run's
    span instead would let the slowest client's think times set the rate."""
    by_id = {m.request_id: m for m in finished}
    rate = 0.0
    for turns in convs:
        done = [by_id[r.request_id] for r in turns if r.request_id in by_id]
        if done:
            span = max(m.finish_time for m in done) - turns[0].arrival_time
            rate += tokens(done) / span
    return rate


@dataclass
class WallSample:
    """What the wall-clock metrics keep of a pass."""

    step_walls: List[float]
    program_wall: float
    reference_s: List[float]
    tokens: int
    sent: int
    failed: int

    @classmethod
    def of(cls, p: Pass) -> "WallSample":
        return cls(p.step_walls, p.program_wall, p.reference_s, tokens(p.finished),
                   len(p.sent), len(p.failed))


class NoTrace:
    """Hooks of an untraced pass: the program runs unwrapped."""

    def manager(self, manager):
        return manager

    def engine(self, engine) -> None:
        pass

    def router(self, router) -> None:
        pass

    def after_step(self) -> None:
        pass

    def cluster_step(self, fn: Callable[[], Optional[str]]) -> Callable[[], Optional[str]]:
        return fn


def build_engine(spec: WorkloadSpec, hooks):
    model = get_model(spec.model)
    manager = hooks.manager(make_manager("jenga", model, kv_bytes_for(spec)))
    engine = LLMEngine(
        model, GPU, manager, config=profile_config("vllm")
    )
    hooks.engine(engine)
    return manager, engine


def run_engine(spec: WorkloadSpec, requests: List[Request], hooks, reference: Reference) -> Pass:
    """Open-loop or offline: every request is queued with its due time and
    the engine admits each once the simulated clock reaches it."""
    manager, engine = build_engine(spec, hooks)
    step = engine.step
    walls: List[float] = []
    t0 = perf_counter()
    engine.add_requests(requests)
    program = perf_counter() - t0
    while True:
        t0 = perf_counter()
        record = step()
        dt = perf_counter() - t0
        program += dt
        if record is None:
            break
        walls.append(dt)
        hooks.after_step()
        reference.tick(program)
    return Pass(
        sent=list(requests), finished=list(engine.finished), failed=list(engine.failed),
        sim_duration=engine.clock, step_walls=walls, program_wall=program,
        reference_s=reference.samples,
        throughput_tok_s=tokens(engine.finished) / engine.clock if engine.clock else 0.0,
        managers=[manager], engines=[engine],
    )


def build_cluster(spec: WorkloadSpec, hooks) -> ServingCluster:
    model = get_model(spec.model)
    kv = kv_bytes_for(spec)
    replicas = []
    for i in range(spec.replicas):
        manager = hooks.manager(make_manager("jenga", model, kv, seed=i))
        replica = Replica(
            f"replica-{i}", model, GPU, manager=manager,
            config=profile_config("vllm"),
        )
        hooks.engine(replica.engine)
        replicas.append(replica)
    router = Router(replicas, policy="cache_aware")
    hooks.router(router)
    return ServingCluster(replicas, router)


def run_cluster(
    spec: WorkloadSpec, convs: List[List[Request]], think: List[List[float]], hooks,
    reference: Reference,
) -> Pass:
    """Closed loop: conversation ``c`` sends turn ``t+1`` a think time after
    turn ``t`` finishes (or fails, which ends the conversation)."""
    cluster = build_cluster(spec, hooks)
    engines = [r.engine for r in cluster.replicas]
    owner = {turn.request_id: (c, t) for c, turns in enumerate(convs)
             for t, turn in enumerate(turns)}
    first = []
    for c, turns in enumerate(convs):
        turns[0].arrival_time = think[c][0]
        first.append(turns[0])
    sent: List[Request] = list(first)
    step = hooks.cluster_step(cluster.step)
    walls: List[float] = []
    seen_done = [0] * len(engines)
    last_due = 0.0
    lag_max = 0.0
    due_heap = sorted(r.arrival_time for r in first)
    t0 = perf_counter()
    cluster.submit(first)
    program = perf_counter() - t0
    while True:
        t0 = perf_counter()
        kind = step()
        dt = perf_counter() - t0
        program += dt
        if kind is None:
            break
        if kind == "dispatch":
            # The cluster dispatches in (due time, id) order.
            last_due = heapq.heappop(due_heap)
            continue
        walls.append(dt)
        hooks.after_step()
        reference.tick(program)
        follow_ups = []
        for i, engine in enumerate(engines):
            finished = engine.finished[seen_done[i]:]
            seen_done[i] += len(finished)
            for m in finished:
                c, t = owner[m.request_id]
                if t + 1 < len(convs[c]):
                    nxt = convs[c][t + 1]
                    due = m.finish_time + think[c][t + 1]
                    # A request due before one already dispatched would be
                    # late: the generator records how late and sends it
                    # in dispatch order.
                    if due < last_due:
                        lag_max = max(lag_max, last_due - due)
                        due = last_due
                    nxt.arrival_time = due
                    follow_ups.append(nxt)
        if follow_ups:
            sent.extend(follow_ups)
            for r in follow_ups:
                heapq.heappush(due_heap, r.arrival_time)
            t0 = perf_counter()
            cluster.submit(follow_ups)
            program += perf_counter() - t0
    finished = [m for e in engines for m in e.finished]
    failed = [r for e in engines for r in e.failed]
    return Pass(
        sent=sent, finished=finished, failed=failed,
        sim_duration=max(e.clock for e in engines), step_walls=walls,
        program_wall=program, reference_s=reference.samples,
        throughput_tok_s=closed_loop_throughput(convs, finished),
        managers=[r.manager for r in cluster.replicas],
        engines=engines, router=cluster.router, dispatch_lag_max=lag_max,
    )
