"""Coverage for the error hierarchy and small shared utilities."""


from repro import errors


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        for name in (
            "WormError",
            "WormViolationError",
            "UnknownFileError",
            "FileExistsOnWormError",
            "BlockBoundsError",
            "TamperDetectedError",
            "IndexError_",
            "DocumentIdOrderError",
            "QueryError",
            "WorkloadError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError), name

    def test_worm_violation_is_a_worm_error(self):
        assert issubclass(errors.WormViolationError, errors.WormError)

    def test_order_error_is_an_index_error(self):
        assert issubclass(errors.DocumentIdOrderError, errors.IndexError_)

    def test_tamper_error_carries_context(self):
        exc = errors.TamperDetectedError(
            "bad", location="block 3", invariant="jump-monotonicity"
        )
        assert exc.location == "block 3"
        assert exc.invariant == "jump-monotonicity"
        assert str(exc) == "bad"

    def test_tamper_error_context_defaults_empty(self):
        exc = errors.TamperDetectedError("bad")
        assert exc.location == ""
        assert exc.invariant == ""

    def test_one_except_clause_catches_everything(self):
        caught = 0
        for exc_type in (
            errors.WormViolationError,
            errors.TamperDetectedError,
            errors.QueryError,
        ):
            try:
                raise exc_type("x")
            except errors.ReproError:
                caught += 1
        assert caught == 3


class TestReportFormatting:
    def test_fmt_handles_extremes(self):
        from repro.simulate.report import format_table

        out = format_table(
            ["v"], [(1e-9,), (1e12,), (float(0),), (-0.5,)]
        )
        assert "1e-09" in out or "1e-9" in out
        assert "0" in out

    def test_empty_rows(self):
        from repro.simulate.report import format_table

        out = format_table(["a", "b"], [])
        assert out.splitlines()[0].strip().startswith("a")
