"""Corpus: the same questions, answered by the facts relations state."""

from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.storage.tuples import Record

#: Naming the classes is fine (a kinds table builds them); asking an
#: object which one it is is not.
KINDS = {"plain": (ClusteredRelation, None),
         "hypothetical": (ClusteredRelation, HypotheticalRelation)}


def pending(relation):
    return relation.pending


def plain_file(relation):
    return relation.base


def check_inner(inner):
    if inner.organisation != "hash":
        raise ValueError("join inner relation must be hashed")


def indexable(relation):
    return relation.organisation == "btree" and not relation.differential


def is_record(value):
    return isinstance(value, Record)


def fault_injector(db):
    # Other objects may have a ``base`` of their own to ask about; the
    # attribute is only a relation fact when it is probed for.
    return getattr(db, "resilient_disk", None)
