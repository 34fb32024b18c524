"""The threat model, executable (Section 2.1).

Mala can take on the identity of any legitimate user or superuser: she
can run any WORM-*legal* operation — append records, create files and
nodes, assign unset write-once slots — but cannot overwrite committed
data (the device refuses) and cannot alter Bob's certified search engine.

* :mod:`repro.adversary.attacks` — concrete attacks: the Figure 6 B+ tree
  shadow subtree, the binary-search tail append, jump-index pointer
  corruption (detected), posting-list stuffing (Section 5), and the
  pre-commit buffer wipe (Section 2.3).
* :mod:`repro.adversary.detection` — the full-audit pass a certified
  engine or investigator runs.
"""
