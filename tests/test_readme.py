import re
from pathlib import Path

from scjarz.config import _DEFAULTS, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    # the README's Library example is the public API in use; it must run
    # as written and verify the identity
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["rep"].residual < 1e-6


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its definition is gone breaks
    # `from scjarz import *`
    import scjarz
    namespace = {}
    exec("from scjarz import *", namespace)
    assert set(scjarz.__all__) <= set(namespace)
    assert len(scjarz.__all__) == len(set(scjarz.__all__))


def test_readme_configuration_block_is_the_default_config():
    # the documented schema is the code's: the README's Configuration
    # block parses to exactly the defaults, every key and value
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0]).raw == _DEFAULTS
