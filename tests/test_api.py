"""Public API surface tests: the names README and examples rely on."""

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_docstring_flow(self):
        """The module docstring's example, executed."""
        engine = repro.TrustworthySearchEngine()
        doc_id = engine.index_document(
            "imclone trading memo for stewart and waksal"
        )
        assert doc_id == 0
        assert [hit.doc_id for hit in engine.search("+stewart +waksal")] == [0]

    def test_key_types_importable_from_root(self):
        assert repro.JumpIndex is not None
        assert repro.BlockJumpIndex is not None
        assert repro.CommitTimeIndex is not None
        assert issubclass(repro.TamperDetectedError, repro.ReproError)
        assert issubclass(repro.WormViolationError, repro.ReproError)

    def test_subpackages_importable(self):
        import repro.adversary
        import repro.baselines
        import repro.core
        import repro.search
        import repro.simulate
        import repro.workloads
        import repro.worm

        assert repro.worm.WormDevice is repro.WormDevice
