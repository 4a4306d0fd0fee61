"""README's example code runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert (tmp_path / "sphere.txt").is_file()
    model, again = names["model"], names["model2"]
    live = model.alphas != 0.0  # the file keeps the vectors that score
    assert np.array_equal(again.alphas, model.alphas[live]) and again.r2 == model.r2
    assert np.array_equal(again.X_train, model.X_train[live])
    assert np.array_equal(names["predict"](again, names["X_scarce"]), names["labels"])
