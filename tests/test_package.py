"""The package's public names."""

from __future__ import annotations

import tapecat


def test_every_exported_name_resolves():
    assert [name for name in tapecat.__all__ if not hasattr(tapecat, name)] == []
