import curvecount
from curvecount import counts, graphs, series, strata


def test_package_api_is_each_module_api():
    modules = (counts, graphs, series, strata)
    assert curvecount.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]


def test_no_public_name_is_exported_twice():
    assert len(set(curvecount.__all__)) == len(curvecount.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from curvecount import *", namespace)
    for name in curvecount.__all__:
        assert namespace[name] is getattr(curvecount, name)
