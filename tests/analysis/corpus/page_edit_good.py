"""The sanctioned ways to change and to read what a page holds."""

import bisect


def insert_entry(pool, page, entry):
    index = bisect.bisect_right(page.records, entry[0], key=lambda e: e[0])
    page.insert(index, entry)
    pool.put(page, dirty=True)


def patch_entry(page, index, record):
    page.replace(index, (page.records[index][0], record))


def delete_matching(page, key):
    return page.remove_where(lambda r: r.key == key)


def split_leaf(page, right):
    page.move_tail(len(page.records) // 2, right)
    right.next_page, page.next_page = page.next_page, right.page_id
    return right.records[0][0]


def tear(torn):
    torn.keep_range(0, len(torn.records) // 2)


def bulk_load(page, chunk):
    page.fill(chunk)


def scan(page):
    records = [record for _, record in page.records]
    records.reverse()  # a copy is the caller's to reorder
    records.append(None)
    return records


def read_state(self):
    page = self.pool.get(self._page_id)
    state = dict(page.records[0])
    state["count"] = state.get("count", 0) + 1
    return state
