import malctrl


def test_every_exported_name_resolves():
    missing = [name for name in malctrl.__all__ if not hasattr(malctrl, name)]
    assert not missing, f"__all__ names without a definition: {missing}"


def test_star_import():
    namespace = {}
    exec("from malctrl import *", namespace)
    assert set(malctrl.__all__) <= set(namespace)
