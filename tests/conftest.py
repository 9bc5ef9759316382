import os

import pytest

import tfslab


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Tests that start a fresh interpreter import the package the test
    process imported, whether or not PYTHONPATH names src/."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tfslab.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield
