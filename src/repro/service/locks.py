"""The archive service's reader-writer lock.

The engine's append path (journal tail, lexicon, router clock) is
single-writer by design, while searches are safe to run fully
concurrent; the long-lived archive service therefore serialises ingest
against reads.  This lock is writer-preferring: a waiting writer blocks
new readers (they queue behind it on ``_writer``), so a steady search
stream cannot starve the committing pipeline.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """Writer-preferring reader-writer lock.

    Readers run concurrently; a writer holds the lock exclusively.  New
    readers queue behind any active or waiting writer, so ingest cannot
    be starved by a saturating search load.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = threading.Lock()

    def acquire_read(self) -> None:
        with self._writer:  # queue behind any active/waiting writer
            with self._mutex:
                self._readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._readers -= 1
            if self._readers == 0:
                self._readers_done.notify_all()

    def acquire_write(self) -> None:
        self._writer.acquire()
        with self._mutex:
            while self._readers:
                self._readers_done.wait()

    def release_write(self) -> None:
        self._writer.release()

    @contextmanager
    def reading(self):
        """``with lock.reading():`` — shared (search) side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def writing(self):
        """``with lock.writing():`` — exclusive (ingest) side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

