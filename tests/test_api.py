import omnisched


def test_every_export_imports_once():
    names = omnisched.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(omnisched, name)]
    assert missing == []
