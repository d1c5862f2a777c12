import eotmaps


def test_every_export_resolves():
    # __init__ resolves names lazily, so a stale entry only fails on access
    for name in eotmaps.__all__:
        assert getattr(eotmaps, name) is not None, name
