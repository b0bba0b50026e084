import apinc


def test_all_names_resolve():
    missing = [name for name in apinc.__all__ if not hasattr(apinc, name)]
    assert missing == []
    assert len(set(apinc.__all__)) == len(apinc.__all__)


def test_star_import():
    namespace = {}
    exec("from apinc import *", namespace)
    assert set(apinc.__all__) <= set(namespace)
