"""Database engine: catalog, transactions, executor, relations."""

from .database import (
    CatalogError,
    Database,
    UnsupportedTransactionError,
    ViewMaintenanceError,
    ViewSpec,
)
from .executor import (
    SecondaryIndex,
    clustered_scan,
    nested_loop_join,
    sequential_scan,
    unclustered_scan,
)
from .relations import HashedRelation
from .transaction import Delete, Insert, Operation, Transaction, Update

__all__ = [
    "CatalogError",
    "Database",
    "Delete",
    "HashedRelation",
    "Insert",
    "Operation",
    "SecondaryIndex",
    "Transaction",
    "UnsupportedTransactionError",
    "Update",
    "ViewMaintenanceError",
    "ViewSpec",
    "clustered_scan",
    "nested_loop_join",
    "sequential_scan",
    "unclustered_scan",
]
