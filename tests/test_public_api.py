"""The package's public surface is the import block of ``tvd/__init__.py``.

``tvd.__all__`` is derived from that block, so these checks do not restate
the names: they check that the derived list is well formed and that every
name on it is the package's own.
"""

from types import ModuleType

import tvd


def test_all_has_no_duplicates_private_names_or_modules():
    assert len(set(tvd.__all__)) == len(tvd.__all__)
    assert [name for name in tvd.__all__ if name.startswith("_")] == ["__version__"]
    assert not [name for name in tvd.__all__ if isinstance(getattr(tvd, name), ModuleType)]


def test_all_is_every_public_non_module_name_plus_the_version():
    public = {name for name, value in vars(tvd).items() if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(tvd.__all__) == public | {"__version__"}


def test_every_exported_name_is_defined_in_the_package():
    foreign = {
        name: getattr(tvd, name).__module__
        for name in tvd.__all__
        if not getattr(getattr(tvd, name), "__module__", "tvd.").startswith("tvd.")
    }
    assert foreign == {}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from tvd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tvd.__all__)
