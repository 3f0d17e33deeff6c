import cmrank


def test_all_names_resolve():
    missing = [name for name in cmrank.__all__ if not hasattr(cmrank, name)]
    assert not missing
    assert len(set(cmrank.__all__)) == len(cmrank.__all__)
