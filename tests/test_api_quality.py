"""Library-wide quality gates: documentation and API surface checks."""

import importlib
import pathlib
import pkgutil

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def _all_modules():
    for info in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        yield info.name


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = []
        for name in _all_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_every_package_exports_all(self):
        missing = []
        for name in _all_modules():
            module = importlib.import_module(name)
            if hasattr(module, "__path__") and not hasattr(module, "__all__"):
                # protocols is a bare namespace of modules imported by
                # name; it re-exports nothing.
                if name not in ("repro.protocols",):
                    missing.append(name)
        assert not missing, missing

    def test_public_classes_documented(self):
        undocumented = []
        for name in _all_modules():
            module = importlib.import_module(name)
            for attr_name in dir(module):
                if attr_name.startswith("_"):
                    continue
                attr = getattr(module, attr_name)
                if isinstance(attr, type) and \
                        attr.__module__ == module.__name__:
                    if not (attr.__doc__ or "").strip():
                        undocumented.append("%s.%s" % (name, attr_name))
        assert not undocumented, undocumented


class TestApiSurface:
    def test_all_exports_resolve(self):
        for name in _all_modules():
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), (name, symbol)

    def test_protocol_profiles_complete(self):
        from repro.analysis import PAPER_TABLE
        for claim in PAPER_TABLE:
            assert claim.nodes
            assert claim.phases[0].isdigit() and int(claim.phases[0]) >= 1
            assert claim.complexity.startswith("O(")
            assert claim.synchrony and claim.strategy and claim.awareness

    def test_every_protocol_module_has_a_driver_or_classes(self):
        import repro.protocols as protocols
        names = [info.name
                 for info in pkgutil.iter_modules(protocols.__path__)]
        assert len(names) >= 18
        for module_name in names:
            module = importlib.import_module("repro.protocols.%s"
                                             % module_name)
            runners = [attr for attr in dir(module)
                       if attr.startswith("run_")]
            assert runners, module_name
