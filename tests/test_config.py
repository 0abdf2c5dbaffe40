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

    @pytest.mark.parametrize("loader, text", [
        (load_config, "schema: 1\nproblem: {kind: ct, n: 16}\nsolver:\n  chi: 10.0\n  chi: 5.0\n"),
        (load_training_manifest, yaml.safe_dump(MANIFEST) + "chi: 5.0\n"),
    ], ids=["config", "manifest"])
    def test_key_written_twice_names_file_and_line(self, tmp_path, loader, text):
        # the second chi, on the last line, would silently win; the error names that line
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=rf"c.yaml: invalid YAML .*'chi' written twice "
                                              rf".*c.yaml\", line {line}") as info:
            loader(cfg)
        assert "\n" not in str(info.value)

    def test_merge_key_may_be_overridden(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("schema: 1\nproblem: {kind: ct, n: 16}\n"
                       "solver:\n  <<: {chi: 10.0, rho: 0.5}\n  chi: 5.0\n")
        assert load_config(cfg)["solver"]["chi"] == 5.0


class TestProximityWeightKeys:
    @pytest.mark.parametrize("weights", [{}, {"chi": 10.0, "gamma": 1.0}],
                             ids=["neither", "both"])
    def test_manifest_sets_exactly_one(self, tmp_path, weights):
        doc = {k: v for k, v in MANIFEST.items() if k != "chi"}
        cfg = tmp_path / "m.yaml"
        cfg.write_text(yaml.safe_dump(dict(doc, **weights)))
        with pytest.raises(ConfigError, match="exactly one of chi or gamma"):
            load_training_manifest(cfg)

    def test_convex_flag_is_unknown(self, tmp_path):
        # lam alone selects the mode: lam = 1 is convex
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(dict(CONFIG, solver={"convex": False, "lam": 1.5})))
        with pytest.raises(ConfigError, match=r"solver: unknown key\(s\) \['convex'\]"):
            load_config(cfg)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


FLOAT_CASES = [case[:3] for case in CASES if case[3] is float]


class TestExponentNumbers:
    # PyYAML reads an exponent whose mantissa has no dot (3e-4) as a string
    @pytest.mark.parametrize("loader, base, path", FLOAT_CASES,
                             ids=[f"{c[0].__name__}:{_dotted(c[2])}" for c in FLOAT_CASES])
    def test_float_key_reads_exponent_without_dot(self, tmp_path, loader, base, path):
        doc = copy.deepcopy(base)
        if path == ("gamma",):
            del doc["chi"]  # a manifest sets exactly one of chi or gamma
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = "EXPONENT"
        # yaml.safe_dump writes the float 3e-4 as 0.0003, so the literal goes in by hand
        text = yaml.safe_dump(doc).replace("EXPONENT", "3e-4")
        assert _at(yaml.safe_load(text), path) == "3e-4"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        value = _at(loader(cfg), path)
        assert type(value) is float and value == 3e-4

    @pytest.mark.parametrize("text", ["1E5", ".5e1", "-2.e+3"])
    def test_exponent_forms(self, tmp_path, text):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"schema: 1\nproblem: {{kind: ct, n: 16, incident: {text}}}\n")
        assert load_config(cfg)["problem"]["incident"] == float(text)

    # an integer key takes no exponent form, and a float key no other string
    @pytest.mark.parametrize("problem, key", [("n: 1e5", "n"),
                                              ("n: 16, incident: nan", "incident"),
                                              ("n: 16, incident: 1e", "incident")])
    def test_other_strings_stay_errors(self, tmp_path, problem, key):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"schema: 1\nproblem: {{kind: ct, {problem}}}\n")
        with pytest.raises(ConfigError, match=re.escape(f"problem.{key}: expected")):
            load_config(cfg)
