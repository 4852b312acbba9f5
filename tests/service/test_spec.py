"""The spec, its builder, and the stack flags the serving CLIs share."""

import argparse

import pytest

from repro.cluster.harness import add_stack_args, stack_from_args
from repro.core.strategies import Strategy
from repro.durability.codec import encode_definition
from repro.gateway.cli import main as gateway_main
from repro.service.router import AdaptiveRouter
from repro.service.spec import build_server, definition_of, demo_spec
from repro.service.traffic import ServiceDemo
from repro.views.predicate import AndPredicate, IntervalPredicate, TruePredicate


class TestDefinitionOf:
    VIEW = {"type": "select_project", "name": "v", "relation": "r",
            "projection": ["id", "a"], "view_key": "a",
            "strategy": "deferred", "policy": None}

    def test_bare_interval_and_missing_predicate(self):
        bare = definition_of({**self.VIEW, "predicate": {
            "field": "a", "lo": 0, "hi": 9, "selectivity": 0.5}})
        assert bare.predicate == IntervalPredicate("a", 0, 9, 0.5)
        assert bare.projection == ("id", "a")
        assert isinstance(
            definition_of({**self.VIEW, "predicate": None}).predicate,
            TruePredicate,
        )

    def test_any_predicate_the_wal_can_journal(self):
        journaled = encode_definition(definition_of({**self.VIEW, "predicate": {
            "t": "and", "clauses": [
                {"t": "interval", "field": "a", "lo": 0, "hi": 9,
                 "selectivity": None},
                {"t": "comparison", "field": "v", "op": ">", "constant": 3},
            ]}}))
        assert journaled["predicate"]["t"] == "and"
        again = definition_of({**self.VIEW, "predicate": journaled["predicate"]})
        assert isinstance(again.predicate, AndPredicate)
        assert encode_definition(again) == journaled

    def test_unknown_type_is_refused(self):
        with pytest.raises(ValueError, match="unknown definition tag"):
            definition_of({**self.VIEW, "type": "pivot", "predicate": None})


class TestBuildServer:
    def test_engine_section_uses_engine_config_spelling(self):
        server = build_server(demo_spec(n_records=40, serving=True))
        assert server.database.engine_config() == {
            "block_bytes": 4000, "buffer_pages": 256, "fanout": 200,
            "cold_operations": True,
        }
        assert not build_server(
            demo_spec(n_records=40)
        ).database.engine_config()["cold_operations"]

    def test_views_adapt_exactly_when_a_router_is_given(self):
        spec = demo_spec(n_records=40, strategy="immediate")
        plain = build_server(spec)
        adaptive = build_server(spec, router=AdaptiveRouter())
        assert plain.router is None and adaptive.router is not None
        assert plain.strategy_of("by_a") is Strategy.IMMEDIATE
        for server, adapts in ((plain, False), (adaptive, True)):
            assert [server._catalog.entry(name).adaptive
                    for name in server.views()] == [adapts, adapts]

    def test_state_dir_journals_behind_a_baseline_checkpoint(self, tmp_path):
        server = build_server(demo_spec(
            n_records=40, state_dir=str(tmp_path / "st"), checkpoint_every=7))
        try:
            assert server.durability.checkpoints_taken == 1
            assert server.journal.checkpoint_every == 7
        finally:
            server.shutdown()


def parse(placement, *argv):
    parser = argparse.ArgumentParser()
    add_stack_args(parser, placement)
    return parser.parse_args(argv)


class TestStackFlags:
    def test_pinned_parsers_declare_only_their_placement(self):
        assert not hasattr(parse("server"), "shards")
        assert not hasattr(parse("cluster"), "static")
        assert parse(None).shards is None
        assert parse("server", "--n-tuples", "9").records == 9
        assert parse(None, "--cluster", "3").shards == 3

    def test_in_process_stack(self):
        demo = stack_from_args(parse(None, "--records", "80", "--static", "immediate"))
        assert isinstance(demo, ServiceDemo)
        assert len(demo.keys) == 80 and demo.server.router is None
        assert demo.server.strategy_of("v_tuples") is Strategy.IMMEDIATE

    def test_sharded_stack(self):
        router = stack_from_args(parse(None, "--shards", "1", "--records", "40"))
        try:
            assert router.views() == ("by_a", "total")
            assert len(router.query("by_a", 0, 1599)) == 40
        finally:
            router.close()

    @pytest.mark.parametrize("argv, message", [
        (["--replicas", "1"], "--replicas needs --shards"),
        (["--shards", "2", "--static", "deferred"], "--static describes an in-process"),
        (["--shards", "0"], "--shards must be >= 1"),
        (["--shards", "1", "--replicas", "-1"], "--replicas must be >= 0"),
        (["--fault-seed", "3"], "--fault-seed requires --fault-profile"),
        (["--checkpoint-every", "5"], "--checkpoint-every requires --state-dir"),
    ])
    def test_combinations_that_describe_no_stack(self, argv, message):
        with pytest.raises(ValueError, match=message):
            stack_from_args(parse(None, *argv))


class TestOneServeCommand:
    """``repro-gateway serve`` is the network entry point of every stack."""

    def test_serves_an_in_process_stack_with_the_shims_flags(self, tmp_path, capsys):
        assert gateway_main([
            "serve", "--listen", "127.0.0.1:0", "--duration", "0.2",
            "--records", "120", "--static", "deferred",
            "--state-dir", str(tmp_path / "st"), "--checkpoint-every", "5",
        ]) == 0
        assert "views: v_tuples, v_total" in capsys.readouterr().out
        assert (tmp_path / "st" / "CURRENT").exists()

    def test_serves_a_sharded_stack(self, capsys):
        assert gateway_main([
            "serve", "--listen", "127.0.0.1:0", "--duration", "0.2",
            "--shards", "2", "--records", "60", "--strategy", "immediate",
        ]) == 0
        assert "views: by_a, total" in capsys.readouterr().out

    def test_a_bad_combination_exits_2(self, capsys):
        assert gateway_main(["serve", "--supervise"]) == 2
        assert "--supervise needs --shards" in capsys.readouterr().err
