import sys
from pathlib import Path

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


def test_subdivide_is_not_exported():
    # subdivide checks a part only against the source it is cut from, so
    # it is read from apinc.progressions, where the partitions call it
    with pytest.raises(AttributeError, match="subdivide"):
        apinc.subdivide  # noqa: B018
    assert "subdivide" not in apinc.__all__
    assert callable(apinc.progressions.subdivide)


@pytest.mark.parametrize("module, name", [("polyphase", "reduce_degree_partition"), ("nil", "reduce_dimension")])
def test_one_level_steps_are_not_exported(module, name):
    # each step trusts its one caller, its channel's reduce inside
    # refine, to have checked its input, so it is read from its module alone
    with pytest.raises(AttributeError, match=name):
        getattr(apinc, name)
    assert name not in apinc.__all__
    assert callable(getattr(getattr(apinc, module), name))


def test_owning_modules_resolve():
    # `import apinc` once imported them all, so `apinc.nil` worked without
    # an import of its own
    for module in ("engine", "gowers", "nil", "oracle", "polyphase", "progressions"):
        assert apinc.__getattr__(module) is sys.modules[f"apinc.{module}"]


def test_names_read_the_owning_module(monkeypatch):
    # a name cached in the package would keep a patched attribute after
    # it is restored, or miss the patch
    sentinel = object()
    monkeypatch.setattr(apinc.polyphase, "partition_polyphase", sentinel)
    assert apinc.partition_polyphase is sentinel
    monkeypatch.undo()
    assert apinc.partition_polyphase is apinc.polyphase.partition_polyphase


def test_readme_library_example_runs(capsys):
    # README's "Library example" block, run as it stands: a change to an
    # entry point it calls, or to the part type, fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for name in ("partition_polyphase", "verify_certificate", "szemeredi_search"):
        assert f"{name}(" in block
    exec(compile(block, "README.md", "exec"), {})
    assert "'variant'" in capsys.readouterr().out
