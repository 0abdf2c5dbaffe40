import copy
import re

import pytest
import yaml

from mbirnet.config import (_CONFIG_KEYS, _MANIFEST_KEYS, _SAMPLE_KEYS, ConfigError,
                            load_config, load_training_manifest)

CONFIG = {"schema": 1, "problem": {"kind": "ct", "n": 16}}
MANIFEST = {"schema": 1, "chi": 10.0,
            "samples": [{"truth": "t.pgm", "measurements": "y.csv", "weights": "w.csv",
                         "operator": "A.txt"}]}


def _keys(table, prefix=()):
    """(path, expected type) for every key of a schema table, nested mappings included."""
    for key, (expected, _) in table.items():
        yield prefix + (key,), expected
        if isinstance(expected, dict):
            yield from _keys(expected, prefix + (key,))


def _wrong_value(expected):
    """A value of the wrong type: a list for a mapping, a string for a number,
    a float for an integer, a number for a boolean or a string, a string for a list."""
    if isinstance(expected, dict):
        return [1]
    return {float: "x", int: 1.5, bool: 1, str: 1, list: "x"}[expected]


def _dotted(path):
    return ".".join(str(k) for k in path).replace(".0.", "[0].")


CASES = ([(load_config, CONFIG, path, expected) for path, expected in _keys(_CONFIG_KEYS)]
         + [(load_training_manifest, MANIFEST, path, expected)
            for path, expected in _keys(_MANIFEST_KEYS)]
         + [(load_training_manifest, MANIFEST, ("samples", 0) + path, expected)
            for path, expected in _keys(_SAMPLE_KEYS)])


class TestSchemaFuzz:
    @pytest.mark.parametrize("loader, base, path, expected", CASES,
                             ids=[f"{c[0].__name__}:{_dotted(c[2])}" for c in CASES])
    def test_wrong_type_names_the_key(self, tmp_path, loader, base, path, expected):
        doc = copy.deepcopy(base)
        node = doc
        for key in path[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[path[-1]] = _wrong_value(expected)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=re.escape(f".{_dotted(path)}: expected")):
            loader(cfg)


class TestMalformedYaml:
    def test_train_block_belongs_to_training_manifests(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(dict(CONFIG, train={"epochs": 2})))
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['train'\]"):
            load_config(cfg)

    def test_unknown_keys_of_mixed_types(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("schema: 1\nproblem: {kind: ct, n: 16}\n~: 1\nextra: 2\n")
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \[None, 'extra'\]"):
            load_config(cfg)

    def test_syntax_error_is_one_line(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("schema: 1\nproblem: {kind: ct, n: 16\n")
        with pytest.raises(ConfigError, match="c.yaml: invalid YAML") as info:
            load_config(cfg)
        assert "\n" not in str(info.value)
