"""Fixture: event constructed without a subscriber guard (rule unguarded-emit)."""


class RequestPreempted:
    def __init__(self, request_id, time):
        self.request_id = request_id
        self.time = time


class Engine:
    def __init__(self, events):
        self.events = events

    def preempt(self, request_id, now):
        self.events.emit(RequestPreempted(request_id, now))
