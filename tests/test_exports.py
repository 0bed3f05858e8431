"""The package's public names: each listed once, each importable."""

import gridopt


def test_every_exported_name_is_listed_once_and_resolves():
    names = gridopt.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gridopt, name)]
    assert missing == []
