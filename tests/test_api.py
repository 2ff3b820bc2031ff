"""The package's public names."""

from __future__ import annotations

import freerep


def test_every_public_name_resolves():
    missing = [name for name in freerep.__all__ if not hasattr(freerep, name)]
    assert not missing
    assert len(set(freerep.__all__)) == len(freerep.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from freerep import *", namespace)
    assert set(freerep.__all__) <= set(namespace)
