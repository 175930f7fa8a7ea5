"""README examples against the package: every Python example runs, the
config example parses, and every name the package exports binds, so the
documentation cannot drift from the API."""

import re
from pathlib import Path

import nertcam
from nertcam.traces import config_from_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)


def test_readme_python_examples_run(capsys):
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_example_parses():
    (text,) = _blocks("json")
    config = config_from_json(text)
    assert (config.capacity, config.padding_mode.rows, config.padding_mode.cols) == (1024, 5, 5)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nertcam import *", namespace)
    assert len(set(nertcam.__all__)) == len(nertcam.__all__)
    assert [name for name in nertcam.__all__ if name not in namespace] == []
