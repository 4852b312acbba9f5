"""Corpus: deadline-threading true positives (linted as repro.cluster.corpus)."""


class Router:
    def fetch(self, client):
        current = client.call("fetch", relation="r", key=1)  # BAD
        alive = client.call("ping", timeout=None)  # BAD
        snap = self.shards[0].call_primary("snapshot")  # BAD
        return current, alive, snap

    def scatter(self, shard, ops):
        yield from self.clients[shard].exchange("stats")  # BAD
        yield from self.shards[shard].primary_leg("fetch", key=1, timeout=None)  # BAD
        yield from self.shards[shard].query_leg(view="v", lo=0, hi=9)  # BAD
        yield from self.shards[shard].update_leg("r", ops, client="c")  # BAD
        return (yield from self.shards[shard].refresh_leg())  # BAD
