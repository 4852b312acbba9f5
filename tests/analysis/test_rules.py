"""Every rule flags its bad corpus file and passes its good one.

The corpus files live under ``corpus/`` and are linted with an explicit
module override (they are not importable ``repro`` modules), so each
rule runs exactly as it would against its scoped package.  Violating
lines carry a trailing ``# BAD`` marker; the test asserts the flagged
line set equals the marked line set, which keeps the corpus honest in
both directions — a rule that goes blind *or* trigger-happy fails here.
"""

from pathlib import Path

import pytest

from repro.analysis import default_rules, lint_file

CORPUS = Path(__file__).parent / "corpus"

#: rule name -> (corpus stem, module the corpus pretends to live in)
CASES = {
    "async-blocking": ("async_blocking", "repro.gateway.corpus"),
    "lock-discipline": ("lock_discipline", "repro.service.corpus"),
    "deadline-threading": ("deadline_threading", "repro.cluster.corpus"),
    "seeded-determinism": ("seeded_determinism", "repro.experiments.corpus"),
    "snapshot-iteration": ("snapshot_iteration", "repro.storage.corpus"),
    "batch-hot-path": ("batch_hot_path", "repro.views.delta.corpus"),
    "page-edit": ("page_edit", "repro.storage.corpus"),
}


def run_rule(rule_name, filename, module):
    findings, used = lint_file(
        CORPUS / filename, default_rules([rule_name]), module=module
    )
    assert not used, "corpus files must not carry pragmas"
    return findings


def marked_lines(filename):
    lines = (CORPUS / filename).read_text().splitlines()
    return {
        lineno for lineno, line in enumerate(lines, start=1)
        if line.rstrip().endswith("# BAD")
    }


@pytest.mark.parametrize("rule_name", sorted(CASES))
def test_bad_corpus_is_flagged_on_the_marked_lines(rule_name):
    stem, module = CASES[rule_name]
    findings = run_rule(rule_name, f"{stem}_bad.py", module)
    assert findings, f"{rule_name} found nothing in its bad corpus"
    assert all(f.rule == rule_name for f in findings)
    assert {f.line for f in findings} == marked_lines(f"{stem}_bad.py")


@pytest.mark.parametrize("rule_name", sorted(CASES))
def test_good_corpus_passes_clean(rule_name):
    stem, module = CASES[rule_name]
    assert run_rule(rule_name, f"{stem}_good.py", module) == []


@pytest.mark.parametrize("rule_name", sorted(CASES))
def test_scoped_rules_skip_out_of_scope_modules(rule_name):
    stem, _ = CASES[rule_name]
    findings = run_rule(rule_name, f"{stem}_bad.py", "repro.views.strategies")
    if rule_name in ("lock-discipline", "snapshot-iteration"):
        # Scoped to all of repro: still fires outside its home package.
        assert findings
    elif rule_name == "batch-hot-path":
        # Its loop pattern stays in the hot modules; its probe pattern
        # holds everywhere except inside repro.maintenance.
        assert findings and all("probe of" in f.message for f in findings)
        assert run_rule(rule_name, f"{stem}_bad.py", "repro.maintenance.corpus") == []
    elif rule_name == "page-edit":
        # Every package that holds a page is in scope, views included;
        # the module that implements the edits and the layers above the
        # storage engine are not.
        assert findings
        assert run_rule(rule_name, f"{stem}_bad.py", "repro.storage.pager") == []
        assert run_rule(rule_name, f"{stem}_bad.py", "repro.service.server") == []
    else:
        assert findings == []


@pytest.mark.parametrize("module", [
    "repro.service.spec", "repro.service.traffic",
    "repro.cluster.harness", "repro.workload.clients",
])
def test_demo_data_and_stream_generators_must_be_seeded(module):
    # Where the ext-service / ext-resilience / ext-gateway streams and
    # the paced benchmark series draw their data from.
    findings = run_rule("seeded-determinism", "seeded_determinism_bad.py", module)
    assert {f.line for f in findings} == marked_lines("seeded_determinism_bad.py")


def test_protocol_callbacks_are_checked_like_async_bodies():
    # The gateway's loop-side request path is synchronous protocol
    # callbacks; the rule must see into them.
    bad, good = "async_blocking_protocol_bad.py", "async_blocking_protocol_good.py"
    findings = run_rule("async-blocking", bad, "repro.gateway.corpus")
    assert {f.line for f in findings} == marked_lines(bad)
    assert run_rule("async-blocking", good, "repro.gateway.corpus") == []
    assert run_rule("async-blocking", bad, "repro.cluster.corpus") == []


def test_relations_are_asked_for_facts_not_for_their_class():
    # batch-hot-path's "ask, don't sniff" pattern, for relations: it
    # holds everywhere except the package the classes live in.
    bad, good = "relation_probe_bad.py", "relation_probe_good.py"
    for module in ("repro.service.corpus", "repro.maintenance.models"):
        findings = run_rule("batch-hot-path", bad, module)
        assert {f.line for f in findings} == marked_lines(bad)
        assert run_rule("batch-hot-path", good, module) == []
    assert run_rule("batch-hot-path", bad, "repro.hr.hashed") == []


def test_rule_excludes_win_over_scopes():
    findings = run_rule(
        "snapshot-iteration", "snapshot_iteration_bad.py", "repro.analysis.self"
    )
    assert findings == []


def test_every_rule_has_a_corpus_pair():
    assert {rule.name for rule in default_rules()} == set(CASES)
    for stem, _ in CASES.values():
        assert (CORPUS / f"{stem}_bad.py").exists()
        assert (CORPUS / f"{stem}_good.py").exists()


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        default_rules(["no-such-rule"])
