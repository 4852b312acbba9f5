"""Corpus: async-blocking clean patterns in protocol callbacks."""

import asyncio
import time
from typing import Protocol


class Conn(asyncio.Protocol):
    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        for request in self.parser.feed(data):
            self.gateway.dispatch(self, request)

    def eof_received(self):
        def collect():
            # Executor thunk: runs on a worker thread.
            with self._world.read():
                return self.backend.metrics()

        self.loop.run_in_executor(None, collect)

    def pause_writing(self):
        self.transport.pause_reading()

    def resume_writing(self):
        self.transport.resume_reading()


class Backend(Protocol):
    """A typing.Protocol is an interface, not a loop-side callback set."""

    def query(self, view): ...


class Worker:
    """Not a protocol: worker threads are where blocking work belongs."""

    def run(self, pending):
        time.sleep(0.01)
        return self.backend.query(pending.view, 0, 10)
