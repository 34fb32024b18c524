"""Regression tests for the WORM lexicon log's term encoding.

The historical write path appended ``term.encode("utf-8")[:128]`` to the
lexicon log: the byte-level slice could split a multi-byte UTF-8
character, so reopening an archive crashed decoding the log, and any
term longer than 128 bytes restored as a *different* string than the one
the live engine indexed — silently desynchronizing the term→id→
posting-list mapping across restarts.  The fix canonicalizes terms via
:func:`repro.search.engine.lexicon_key` (character-boundary truncation)
and keeps the in-memory and on-WORM forms identical.
"""

from repro.search.engine import (
    MAX_LEXICON_TERM_BYTES,
    EngineConfig,
    TrustworthySearchEngine,
    lexicon_key,
)

CONFIG = EngineConfig(num_lists=32, branching=4, block_size=512)

# 3 bytes per character in UTF-8; 128 is not a multiple of 3, so a byte
# slice at 128 is guaranteed to land inside a character.
CJK_TERM = "日本語" * 20
# 4 bytes per character; 128 % 4 == 0, so pad by one letter to force a
# mid-character cut.
EMOJI_TERM = "x" + "\U0001f512" * 40
LONG_ASCII = "a" * 300


def vocabulary(engine):
    return [engine.term_text(i) for i in range(engine.vocabulary_size)]


def reopen(engine):
    return TrustworthySearchEngine(CONFIG, store=engine.store)


def log_terms(engine, *terms):
    """Append ``terms`` to ``engine``'s lexicon log the way an older
    writer did: a record per term, in its canonical form."""
    for term in terms:
        engine.store.append_record(
            "engine/lexicon", lexicon_key(term).encode("utf-8") + b"\n"
        )


class TestLexiconKey:
    def test_short_terms_unchanged(self):
        assert lexicon_key("revenue") == "revenue"
        assert lexicon_key("日本") == "日本"

    def test_cut_lands_on_character_boundary(self):
        for term in (CJK_TERM, EMOJI_TERM, LONG_ASCII):
            key = lexicon_key(term)
            encoded = key.encode("utf-8")
            assert len(encoded) <= MAX_LEXICON_TERM_BYTES
            # Round-trips: the cut never splits a character.
            assert encoded.decode("utf-8") == key
            assert term.startswith(key)

    def test_ascii_cut_is_exactly_the_budget(self):
        assert lexicon_key(LONG_ASCII) == "a" * MAX_LEXICON_TERM_BYTES


class TestRestartRoundTrip:
    def test_multibyte_terms_survive_restart(self):
        """Terms an older writer logged from pre-analysed counts — a
        record per new term, multi-byte ones too, which the analyzer
        (``[a-z0-9]+``) never emits — reopen to the IDs they were given.
        Before the cut moved to a character boundary this decode
        crashed: the log held a torn multi-byte character."""
        engine = TrustworthySearchEngine(CONFIG)
        engine.index_document("memo")
        log_terms(engine, CJK_TERM, EMOJI_TERM)
        reopened = reopen(engine)
        assert reopened.vocabulary_size == 3
        for term_id, term in enumerate(("memo", CJK_TERM, EMOJI_TERM)):
            assert reopened.term_id(term) == term_id

    def test_long_term_keeps_its_posting_list(self):
        engine = TrustworthySearchEngine(CONFIG)
        engine.index_document(f"{LONG_ASCII} anchor")
        engine.index_document("anchor")
        reopened = reopen(engine)
        # Pre-fix the restored string was the raw 128-byte slice while
        # the live engine had indexed the full 300-char term, so the
        # same query resolved to different ids before and after restart.
        assert reopened.term_id(LONG_ASCII) == engine.term_id(LONG_ASCII)
        results = reopened.conjunctive_doc_ids([LONG_ASCII])[0]
        assert results == engine.conjunctive_doc_ids([LONG_ASCII])[0] == [0]

    def test_in_memory_and_worm_forms_identical(self):
        engine = TrustworthySearchEngine(CONFIG)
        engine.index_document(f"{LONG_ASCII} anchor")
        reopened = reopen(engine)
        assert vocabulary(reopened) == vocabulary(engine)

    def test_repeated_restarts_are_stable(self):
        engine = TrustworthySearchEngine(CONFIG)
        log_terms(engine, CJK_TERM)
        once = reopen(engine)
        twice = reopen(once)
        assert vocabulary(twice) == vocabulary(once) == [lexicon_key(CJK_TERM)]
