"""The package's export list."""

import types

import syncstab


def test_all_names_resolve_to_non_module_objects():
    assert len(set(syncstab.__all__)) == len(syncstab.__all__)
    for name in syncstab.__all__:
        assert not isinstance(getattr(syncstab, name), types.ModuleType), name
