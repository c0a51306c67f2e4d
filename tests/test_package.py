"""The package's public names."""

import lrsdp


def test_every_exported_name_resolves():
    missing = [name for name in lrsdp.__all__ if not hasattr(lrsdp, name)]
    assert missing == []
    assert len(set(lrsdp.__all__)) == len(lrsdp.__all__)
