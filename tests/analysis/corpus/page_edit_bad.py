"""Edits of a page's ``records`` that go around the Page edit methods.

Each marked line changes what a page holds around the capacity guards
of the one edit path, or edits a list the persisted image may share.
"""


def insert_entry(pool, page, index, entry):
    page.records.insert(index, entry)  # BAD
    pool.put(page, dirty=True)


def patch_entry(page, index, record):
    page.records[index] = (page.records[index][0], record)  # BAD


def delete_entry(page, index):
    del page.records[index]  # BAD


def delete_matching(page, key):
    kept = [r for r in page.records if r.key != key]
    page.records[:] = kept  # BAD


def split_leaf(page, right, mid):
    right.records = page.records[mid:]  # BAD
    page.records = page.records[:mid]  # BAD


def swap_halves(page, other):
    page.records, other.records = other.records, page.records  # BAD


def tear(torn):
    torn.records = torn.records[: len(torn.records) // 2]  # BAD


def rot(disk, page_id, dropped):
    del disk._pages[page_id].records[:dropped]  # BAD
    disk._pages[page_id].records.reverse()  # BAD


def grow(page, more):
    page.records += more  # BAD
    page.records.extend(more)  # BAD
    return page.records.pop()  # BAD


def write_state(self, state):
    page = self.pool.get(self._page_id)
    page.records[0] = dict(state)  # BAD
    self.pool.put(page, dirty=True)
