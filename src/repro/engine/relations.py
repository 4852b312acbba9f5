"""The hash-clustered relation ``R2``, as the engine exports it; it lives
beside ``ClusteredRelation`` (:mod:`repro.hr.differential`)."""

from repro.hr.differential import HashedRelation

__all__ = ["HashedRelation"]
