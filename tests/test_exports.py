import sys

import pytest

import apinc
import apinc.polyphase


def test_all_names_resolve():
    missing = [name for name in apinc.__all__ if not hasattr(apinc, name)]
    assert missing == []
    assert len(set(apinc.__all__)) == len(apinc.__all__)


def test_dir_lists_every_name():
    # dir(), help() and tab completion list the lazy names too
    assert set(apinc.__all__) <= set(dir(apinc))
    assert {"engine", "nil", "oracle"} <= set(dir(apinc))


def test_star_import():
    namespace = {}
    exec("from apinc import *", namespace)
    assert set(apinc.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        apinc.no_such_name  # noqa: B018
    assert not hasattr(apinc, "no_such_name")


def test_owning_modules_resolve():
    # `import apinc` once imported them all, so `apinc.nil` worked without
    # an import of its own
    for module in ("engine", "gowers", "nil", "oracle", "polyphase", "progressions"):
        assert apinc.__getattr__(module) is sys.modules[f"apinc.{module}"]


def test_names_read_the_owning_module(monkeypatch):
    # a name cached in the package would keep a patched attribute after
    # it is restored, or miss the patch
    sentinel = object()
    monkeypatch.setattr(apinc.polyphase, "diam_on", sentinel)
    assert apinc.diam_on is sentinel
    monkeypatch.undo()
    assert apinc.diam_on is apinc.polyphase.diam_on
