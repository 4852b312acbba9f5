"""Corpus: deadline-threading clean patterns (linted as repro.cluster.corpus)."""


class Router:
    def fetch(self, client, timeout):
        current = client.call("fetch", relation="r", key=1, timeout=timeout)
        alive = client.call_primary("ping", timeout=min(timeout, 1.0))
        # Not the shard RPC signature: first argument is a document,
        # not a string op name (the async gateway client's call shape).
        doc = {"op": "query", "view": "v_total"}
        answer = self.gateway.call(doc)
        return current, alive, answer

    def scatter(self, shard, ops, timeout):
        yield from self.clients[shard].exchange("stats", timeout=self.rpc_timeout)
        yield from self.shards[shard].primary_leg("fetch", key=1, timeout=timeout)
        yield from self.shards[shard].query_leg(timeout=timeout, view="v")
        yield from self.shards[shard].update_leg("r", ops, timeout=timeout)
        # Not a leg of the shard RPC: another object's method of the
        # same name, taking a document.
        self.gateway.exchange({"op": "ping"})
        return (yield from self.shards[shard].refresh_leg(timeout=timeout))
