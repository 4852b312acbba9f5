"""Corpus: class probes of relations (flagged outside repro.hr)."""

from repro.engine.relations import HashedRelation
from repro.hr import differential
from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.hr.hashed import HashedHypotheticalRelation


def pending(relation):
    if isinstance(relation, HypotheticalRelation):  # BAD
        return relation.ad_entry_count()
    return 0


def plain_file(relation):
    if isinstance(relation, differential.DifferentialRelation):  # BAD
        return relation.base
    return relation


def loader(relation):
    return relation.base if hasattr(relation, "base") else relation  # BAD


def base_of(relation):
    return getattr(relation, "base", relation)  # BAD


def check_inner(inner):
    if not isinstance(inner, (HashedRelation, HashedHypotheticalRelation)):  # BAD
        raise ValueError("join inner relation must be hashed")


def indexable(relation):
    return isinstance(relation, ClusteredRelation)  # BAD
