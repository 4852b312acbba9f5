"""Batch-native and bookkeeping shapes the batch-hot-path rule allows."""


def select_project_changes(view, delta, changes, column_batch):
    inserted = delta.inserted
    batch = column_batch.from_records(inserted)
    for i in view.predicate.matches_batch(batch).indices:
        changes.insert(view.project(inserted[i]))


def screen_relation(screen, records):
    return screen.screen_batch(records)


def merge(self, other):
    # Delta bookkeeping: iterates the source but runs no per-tuple
    # kernel — toggling set membership is not screening work.
    for record in other.deleted:
        self.add_delete(record)


def reset(self, delta):
    # Folding a net delta into the base file is storage maintenance,
    # not a hot-path kernel.
    for record in delta.deleted:
        if self.base.contains_key(record.key):
            self.base.delete_by_key(record.key)


def scan_logical(self, overlay):
    for record in self.base.scan_all():
        if record.key in overlay:
            continue
        yield record


def drop_stored_copy(impl):
    impl.model.free()


def capture_deferred_state(impl, relation):
    # Probing for public collaborators is not a guess at the view's
    # model; a relation states whether it is differential.
    coordinator = getattr(impl, "coordinator", None)
    return impl.state_doc(), coordinator, relation.differential
