# jengalint: module=repro/core/two_level.py
"""Fixture: near-miss patterns every rule must accept.

Lives (virtually) in a hot module so the hot-path and wall-clock rules
are active, yet contains no violation: guarded emits, guarded tracer
spans, owner-class counter mutation, audited slow helpers, dict
membership, and a fixed attribute layout.
"""


class RequestPreempted:
    def __init__(self, request_id, time):
        self.request_id = request_id
        self.time = time


class Meter:
    def counter(self, name, value):
        return None


class GroupAllocator:
    def __init__(self, events):
        self.events = events
        self.tracer = None
        self.meter = Meter()
        self.n_used = 0
        self.n_evictable = 0
        self._priority = {}
        self.queue = []

    def bump_state(self, delta):
        self.n_used += delta
        self.n_evictable -= delta

    def contains(self, item):
        return item in self._priority

    def preempt(self, request_id, now):
        if self.events is not None and self.events.has_subscribers(RequestPreempted):
            self.events.emit(RequestPreempted(request_id, now))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("preempt", args={"request": request_id})
        # Span-method *names* on a non-tracer receiver are not spans.
        self.meter.counter("preemptions", 1)

    def forward(self, event):
        # Pre-built event objects carry no construction cost here.
        self.events.emit(event)

    def hashes_for(self, seq, tags, schedule, stream, boundaries):
        # The memoized incremental chain is the sanctioned hot-path hash;
        # only the from-scratch chain_hashes helper is flagged here.
        return seq.hash_chain(tags, schedule, stream, boundaries)

    def check_ordering(self):
        assert sorted(self.queue) == self.queue

    def stats_slow(self):
        return [p for p in self._priority if p is not None]
