"""Per-record hot loops the batch-hot-path rule must flag.

Each marked construct iterates a relation/delta source and runs a
per-tuple kernel (predicate test, projection, record construction)
in the loop body — the shapes the vectorization replaced.  The last
two functions guess a view implementation's model by probing for its
internals, which only ``repro.maintenance`` may know about.
"""


def select_project_changes(view, delta, changes):
    for record in delta.inserted:  # BAD
        if view.predicate.matches(record):
            changes.insert(view.project(record))


def screen_relation(screen, relation):
    return [r for r in relation.scan_all() if screen.screen(r)]  # BAD


def net_changes(self):
    out = []
    for entry in self.ad.scan_all():  # BAD
        out.append(self._unwrap(entry))
    return out


def rebuild_index(relation, lo, hi):
    return {r.key: Record(r.key, r.values) for r in relation.range_scan(lo, hi)}  # BAD


def combine_pairs(view, outer_relation, partners, changes):
    for outer in outer_relation.range_scan(0, 10):  # BAD
        for inner in partners:
            changes.insert(view.combine(outer, inner))


def drop_stored_copy(impl):
    matview = getattr(impl, "matview", None)  # BAD
    if matview is not None:
        matview.tree.reset()
    if hasattr(impl, "store"):  # BAD
        impl.store.free()


def capture_deferred_state(impl):
    markers = getattr(impl, "_markers", None)  # BAD
    return markers, hasattr(impl, "_track_outer")  # BAD
