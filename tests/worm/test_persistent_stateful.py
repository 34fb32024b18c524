"""Stateful property test: the journaled device vs an in-memory mirror.

Random create/append/set-slot/delete/reopen histories; after every
reopen (a full journal replay) the device must agree with a plain model
block for block: the same files, and in each the same number of blocks,
the same bytes in every block and the same slot tuple.  The model places
appends by the device's rule — a record never spans blocks, and
``force_new_block`` starts a fresh one — so replay must reproduce the
layout, not only the concatenated bytes.  A second machine starts from a
legacy v1 journal, whose records replay and keep being written in v1.

Tier-1 runs 20 histories of 30 steps; ``--hypothesis-profile=ci``
(registered in ``tests/conftest.py``) runs 200 of 50.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule
from hypothesis import strategies as st

from repro.worm.persistent import FORMAT_V1, FORMAT_V2, JournaledWormDevice
from tests.worm.test_persistent import v1_create_body, write_v1_journal

BLOCK_SIZE = 32
#: Files created with a retention horizon may be deleted at ``EXPIRY``.
EXPIRY = 100.0


class PersistentDeviceMachine(RuleBasedStateMachine):
    FORMAT = FORMAT_V2

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self._tmp.name, "journal.worm")
        # Model: name -> {"blocks": [bytes], "slots": {(block, slot): value},
        # "slot_count": n, "retention": horizon or None}
        self.model = {}
        self.deleted = []
        self.next_file = 0
        self.start_journal()
        self.device = JournaledWormDevice(self.path, block_size=BLOCK_SIZE)
        assert self.device.format_version == self.FORMAT

    def start_journal(self):
        """Leave the journal the machine opens first (none: a new v2 one)."""

    def teardown(self):
        self.device.close()
        self._tmp.cleanup()

    def add_to_model(self, name, slot_count, retention):
        self.model[name] = {
            "blocks": [],
            "slots": {},
            "slot_count": slot_count,
            "retention": retention,
        }

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    @rule(slot_count=st.integers(min_value=0, max_value=4), expires=st.booleans())
    def create(self, slot_count, expires):
        name = f"f{self.next_file}"
        self.next_file += 1
        retention = EXPIRY if expires else None
        self.device.create_file(name, slot_count=slot_count, retention_until=retention)
        self.add_to_model(name, slot_count, retention)

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        payload=st.binary(min_size=1, max_size=20),
        force_new_block=st.booleans(),
    )
    def append(self, data, payload, force_new_block):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self.device.open_file(name).append_record(
            payload, force_new_block=force_new_block
        )
        blocks = self.model[name]["blocks"]
        if not blocks or force_new_block or BLOCK_SIZE - len(blocks[-1]) < len(payload):
            blocks.append(b"")
        blocks[-1] += payload

    @precondition(
        lambda self: any(m["slot_count"] and m["blocks"] for m in self.model.values())
    )
    @rule(data=st.data(), value=st.integers(min_value=0, max_value=1000))
    def set_slot(self, data, value):
        eligible = [n for n, m in self.model.items() if m["slot_count"] and m["blocks"]]
        name = data.draw(st.sampled_from(sorted(eligible)))
        model = self.model[name]
        block_no = data.draw(st.integers(min_value=0, max_value=len(model["blocks"]) - 1))
        slot_no = data.draw(st.integers(min_value=0, max_value=model["slot_count"] - 1))
        key = (block_no, slot_no)
        if key in model["slots"]:
            return  # write-once; the model knows it's taken
        self.device.open_file(name).set_slot(block_no, slot_no, value)
        model["slots"][key] = value

    @precondition(lambda self: any(m["retention"] for m in self.model.values()))
    @rule(data=st.data())
    def delete_expired(self, data):
        name = data.draw(
            st.sampled_from(sorted(n for n, m in self.model.items() if m["retention"]))
        )
        self.device.delete_file(name, now=EXPIRY)
        del self.model[name]
        self.deleted.append(name)

    @precondition(lambda self: self.deleted)
    @rule(data=st.data(), slot_count=st.integers(min_value=0, max_value=4))
    def recreate(self, data, slot_count):
        """A deleted name comes back as a new, empty file."""
        name = data.draw(st.sampled_from(self.deleted))
        self.deleted.remove(name)
        self.device.create_file(name, slot_count=slot_count)
        self.add_to_model(name, slot_count, None)

    @rule()
    def reopen(self):
        """Simulated restart: close, replay the journal from disk."""
        self.device.close()
        self.device = JournaledWormDevice(self.path, block_size=BLOCK_SIZE)
        assert self.device.format_version == self.FORMAT
        self.check_agreement()

    # ------------------------------------------------------------------
    # agreement check
    # ------------------------------------------------------------------
    def check_agreement(self):
        assert self.device.list_files() == sorted(self.model)
        for name, expected in self.model.items():
            worm_file = self.device.open_file(name)
            assert worm_file.retention_until == expected["retention"], name
            assert [block.read() for block in worm_file.blocks()] == expected[
                "blocks"
            ], name
            for block_no, block in enumerate(worm_file.blocks()):
                assert block.slots() == tuple(
                    expected["slots"].get((block_no, slot_no))
                    for slot_no in range(expected["slot_count"])
                ), (name, block_no)


class V1PersistentDeviceMachine(PersistentDeviceMachine):
    """The same histories on top of a journal written in format v1."""

    FORMAT = FORMAT_V1

    def start_journal(self):
        write_v1_journal(self.path, [(1, v1_create_body("legacy", BLOCK_SIZE))])
        self.add_to_model("legacy", 0, None)


_BUDGET = (
    {}
    if settings.get_current_profile_name() == "ci"
    else {"max_examples": 20, "stateful_step_count": 30}
)

TestPersistentDeviceMachine = PersistentDeviceMachine.TestCase
TestPersistentDeviceMachine.settings = settings(deadline=None, **_BUDGET)

TestV1PersistentDeviceMachine = V1PersistentDeviceMachine.TestCase
TestV1PersistentDeviceMachine.settings = settings(deadline=None, **_BUDGET)
