"""The package's public names."""

import qsc_lab
import qsc_lab.geometry


def test_every_exported_name_resolves():
    for module in (qsc_lab, qsc_lab.geometry):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec("from qsc_lab import *", namespace)
    assert set(qsc_lab.__all__) <= namespace.keys()
