import inspect

import otasec


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(otasec).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(otasec.__all__) == sorted(public | {"__version__"})  # no stale, missing or repeated name
    namespace = {}
    exec("from otasec import *", namespace)  # every listed name resolves
    assert set(otasec.__all__) <= namespace.keys()
