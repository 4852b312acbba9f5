"""The hosted-view catalog and its checkpoint document."""

import pytest

from repro.engine.database import CatalogError
from repro.service.catalog import ViewCatalog
from repro.service.scheduler import RefreshPolicy
from repro.views.definition import AggregateView
from repro.views.predicate import TruePredicate

AGG = AggregateView("v_total", "r", TruePredicate(), "sum", "v")


def test_unhosted_names_have_no_entry_and_no_definition():
    catalog = ViewCatalog()
    catalog.host(AGG, adaptive=False)
    assert catalog.names() == ("v_total",)
    assert catalog.definition("v_total") is AGG
    assert catalog.definition("elsewhere") is None and catalog.get("elsewhere") is None
    with pytest.raises(CatalogError, match="not registered"):
        catalog.entry("elsewhere")


def test_document_round_trip_restores_flags_and_counters():
    catalog = ViewCatalog()
    catalog.host(AGG, adaptive=False)
    entry = catalog.entry("v_total")
    catalog.count_query(entry)
    catalog.count_query(entry)
    catalog.count_update(entry)
    doc = catalog.to_doc(lambda name: RefreshPolicy.periodic(3))
    assert doc == {"v_total": {
        "adaptive": False, "policy": {"kind": "periodic", "every": 3},
        "queries": 2, "updates_seen": 1,
    }}
    restored = ViewCatalog()
    restored.host(AGG, doc=doc["v_total"])
    assert restored.entry("v_total") == entry
    # No saved document (a view first seen in the WAL tail): defaults.
    fresh = ViewCatalog()
    fresh.host(AGG)
    assert fresh.entry("v_total").adaptive and fresh.entry("v_total").queries == 0
