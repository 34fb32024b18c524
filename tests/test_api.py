"""Public API surface tests: the names README and examples rely on."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

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
        import repro.worm.device

        assert repro.worm.device.WormDevice is repro.WormDevice


#: The names a subpackage may bind besides its submodules: ``repro``'s
#: documented surface above, and what ``bench/`` imports from the service.
PACKAGE_NAMES = {"repro.service": {"AdmissionConfig", "ServiceConfig", "serve_archive"}}


def _subpackages():
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )


@pytest.mark.parametrize("package", _subpackages())
def test_a_subpackage_binds_only_its_submodules(package):
    """Each name has one home, its defining module: no re-export layer."""
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    public = {name for name in vars(module) if not name.startswith("_")}
    assert public - submodules == PACKAGE_NAMES.get(package, set())


def test_opening_an_archive_loads_no_evaluation_scaffolding():
    """``import repro.cli``, the first step of every archive open, loads
    neither the baselines, the workload generators, the simulators, the
    attacks, nor the cost model and term coding they use."""
    code = "import sys, repro.cli; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    scaffolding = {
        "repro.workloads",
        "repro.baselines",
        "repro.simulate",
        "repro.adversary",
        "repro.core.cost_model",
        "repro.core.term_coding",
    }
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in scaffolding or m in scaffolding] == []
