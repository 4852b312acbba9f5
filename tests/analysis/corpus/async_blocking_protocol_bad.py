"""Corpus: async-blocking true positives in protocol callbacks."""

import asyncio
import time


class Conn(asyncio.Protocol):
    def connection_made(self, transport):
        self.transport = transport
        self.log = open("connections.log", "a")  # BAD

    def data_received(self, data):
        for request in self.parser.feed(data):
            rows = self.gateway.backend.query(request["view"], 0, 10)  # BAD
            with self._world.read():  # BAD
                self.transport.write(bytes(rows))

    def pause_writing(self):
        time.sleep(0.01)  # BAD

    def connection_lost(self, exc):
        self._send_lock.acquire()  # BAD


class Bulk(asyncio.BufferedProtocol):
    def buffer_updated(self, nbytes):
        self.backend.update("r", self.buffer[:nbytes], "bulk")  # BAD
