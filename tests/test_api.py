import dcprox


def test_public_names_resolve_once():
    names = dcprox.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dcprox, name)]
    assert missing == []
