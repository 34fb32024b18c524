"""Incident handling after tamper detection (the paper's future work).

Section 6: "One topic for future work is an elegant course of action
once malicious attempts have been detected (malicious index entries and
documents cannot simply be removed, as they reside on WORM)."

The course of action implemented here follows the WORM philosophy: you
cannot remove the malicious entries, so you *append* durable, auditable
knowledge about them —

* every detection is recorded in an append-only **incident log** on the
  WORM device (so Mala cannot erase the evidence that she was caught);
* fabricated document IDs exposed by result verification are
  **quarantined**: still physically present in the posting lists, but
  excluded from answer sets, with the exclusion itself justified by a
  logged incident an auditor can replay;
* the log is self-verifying — its records carry a strictly increasing
  sequence number, so truncation or reordering attempts surface the same
  way every other monotonicity violation does.

See :meth:`repro.search.engine.TrustworthySearchEngine.search_with_incident_handling`
for the query-path integration.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.errors import TamperDetectedError
from repro.worm.storage import CachedWormStore

_LEN = struct.Struct("<H")


@dataclass(frozen=True)
class Incident:
    """One recorded detection."""

    seq: int
    kind: str
    location: str
    invariant: str
    description: str
    #: Document IDs quarantined by this incident (empty for pure alarms).
    quarantined_doc_ids: tuple = ()


class IncidentLog:
    """Append-only WORM log of tamper detections and quarantines.

    Parameters
    ----------
    store:
        WORM store holding the log.
    name:
        Log file name on the device.
    """

    def __init__(self, store: CachedWormStore, name: str = "incidents"):
        self.store = store
        self.name = name
        self._file = store.ensure_file(name)
        # Verified searches run concurrently (under a service's reader
        # lock) and each may record: the sequence number and the append
        # it goes into are taken together.
        self._lock = threading.Lock()
        self._next_seq = 0
        self._quarantined: Set[int] = set()
        if self._file.num_blocks:
            for incident in self.incidents():
                self._next_seq = incident.seq + 1
                self._quarantined.update(incident.quarantined_doc_ids)

    def __len__(self) -> int:
        return self._next_seq

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        *,
        location: str = "",
        invariant: str = "",
        description: str = "",
        quarantine_doc_ids: Optional[List[int]] = None,
    ) -> Incident:
        """Append one incident; returns the committed record."""
        # Records never span blocks; budget the free-text field so the
        # whole record fits even on small-block devices.
        max_description = max(16, min(512, self.store.block_size - 192))
        with self._lock:
            incident = Incident(
                seq=self._next_seq,
                kind=kind,
                location=location[:96],
                invariant=invariant[:64],
                description=description[:max_description],
                quarantined_doc_ids=tuple(sorted(quarantine_doc_ids or [])),
            )
            payload = json.dumps(
                {
                    "seq": incident.seq,
                    "kind": incident.kind,
                    "location": incident.location,
                    "invariant": incident.invariant,
                    "description": incident.description,
                    "quarantined": list(incident.quarantined_doc_ids),
                },
                separators=(",", ":"),
            ).encode("utf-8")
            self.store.append_record(self.name, _LEN.pack(len(payload)) + payload)
            self._next_seq += 1
            self._quarantined.update(incident.quarantined_doc_ids)
        return incident

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def incidents(self) -> Iterator[Incident]:
        """Yield every committed incident, verifying each record's framing
        and fields and the sequence's integrity.

        Anyone can append to a WORM file, so a record that runs past its
        block, is not JSON or lacks a typed field raises
        :class:`~repro.errors.TamperDetectedError`, as a bad sequence
        number does.
        """
        expected_seq = 0
        for block_no in range(self._file.num_blocks):
            payload = self.store.peek_block(self.name, block_no)
            offset = 0
            while offset < len(payload):
                location = f"incident log '{self.name}', block {block_no}, byte {offset}"
                try:
                    incident, offset = _decode(payload, offset)
                except (struct.error, ValueError, KeyError, TypeError) as exc:
                    raise TamperDetectedError(
                        f"malformed incident record: {exc}",
                        location=location,
                        invariant="incident-record",
                    ) from exc
                if incident.seq != expected_seq:
                    raise TamperDetectedError(
                        f"incident log record claims seq {incident.seq}, "
                        f"expected {expected_seq}",
                        location=location,
                        invariant="incident-sequence",
                    )
                expected_seq += 1
                yield incident

    def is_quarantined(self, doc_id: int) -> bool:
        """Whether ``doc_id`` was quarantined by any recorded incident."""
        return doc_id in self._quarantined

    @property
    def quarantined_doc_ids(self) -> Set[int]:
        """Snapshot of all quarantined document IDs."""
        return set(self._quarantined)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncidentLog('{self.name}', incidents={self._next_seq}, "
            f"quarantined={len(self._quarantined)})"
        )


def _decode(payload: bytes, offset: int) -> Tuple[Incident, int]:
    """The incident record at ``offset`` of a log block, and the offset
    past it; raises ``struct.error``, ``ValueError``, ``KeyError`` or
    ``TypeError`` on a record :meth:`IncidentLog.record` did not write."""
    (length,) = _LEN.unpack_from(payload, offset)
    end = offset + _LEN.size + length
    if end > len(payload):
        raise ValueError(f"{length}-byte record runs past its block")
    data = json.loads(payload[offset + _LEN.size : end].decode("utf-8"))
    incident = Incident(
        seq=data["seq"],
        kind=data["kind"],
        location=data["location"],
        invariant=data["invariant"],
        description=data["description"],
        quarantined_doc_ids=tuple(data["quarantined"]),
    )
    texts = (incident.kind, incident.location, incident.invariant, incident.description)
    numbers = (incident.seq, *incident.quarantined_doc_ids)
    if not all(isinstance(t, str) for t in texts) or not all(type(n) is int for n in numbers):
        raise TypeError("a field holds a value of the wrong type")
    return incident, end
