"""Every name the package exports resolves, and none is listed twice."""
import circmeans


def test_all_names_resolve_once():
    names = circmeans.__all__
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})
    missing = [n for n in names if getattr(circmeans, n, None) is None]
    assert not missing, missing
