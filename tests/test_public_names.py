import importlib

import pce

MODULES = ("data", "evaluation", "graph", "linalg", "model")


def test_public_name_lists_resolve_and_agree():
    # a rename must update every list that names the old function
    exported = {"errors"}
    for name in MODULES:
        module = importlib.import_module(f"pce.{name}")
        missing = [public for public in module.__all__ if not hasattr(module, public)]
        assert not missing, f"pce.{name}.__all__ names missing {missing}"
        exported.update(module.__all__)
    assert [public for public in pce.__all__ if not hasattr(pce, public)] == []
    assert set(pce.__all__) <= exported
