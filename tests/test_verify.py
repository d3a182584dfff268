"""The verify suites check each identity against enumeration, not against the
library's own coding of it."""

from types import SimpleNamespace

import pytest

from greedoid_tutte import constructions, path_graph, thicken, to_greedoid, tutte_polynomial
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte import verify
from greedoid_tutte.cli import main


@pytest.fixture
def wrong_thickening_rule(monkeypatch):
    """The thickening identity, in the library and in its prediction, wrong
    the same way: every coefficient of a g-thickening's expansion doubled for g > 1."""
    expansion, predicted = tutte_module.expand, constructions.predicted_thickening

    def doubled_expansion(counts, g=1):
        return {key: c * (2 if g > 1 else 1) for key, c in expansion(counts, g).items()}

    def doubled_prediction(tutte, rank, k, mode="generic"):
        return predicted(tutte, rank, k, mode) * (2 if k > 1 else 1)

    monkeypatch.setattr(tutte_module, "expand", doubled_expansion)
    monkeypatch.setattr(constructions, "predicted_thickening", doubled_prediction)
    monkeypatch.setattr(verify, "predicted_thickening", doubled_prediction)
    tutte_module._carrier_profile.cache_clear()
    yield
    tutte_module._carrier_profile.cache_clear()  # no profile from the wrong rule outlives the test


def test_thickening_suite_fails_on_a_rule_wrong_in_both_codings(wrong_thickening_rule, capsys):
    base = path_graph(2)
    # the two codings agree with each other ...
    assert tutte_polynomial(thicken(base, 2)) == verify.predicted_thickening(tutte_polynomial(base), 2, 2)
    # ... but not with enumeration
    rows = verify.run_suite("thickening")
    assert rows and all(ok is False for _, ok, _ in rows)
    assert main(["verify", "thickening"]) == 1
    assert "thickening path-2: FAIL (k=2 generic rule)" in capsys.readouterr().out



@pytest.fixture
def wrong_vertex_engine(monkeypatch):
    """The vertex-subset engine and the attachment prediction wrong the same
    way: every count of the engine doubled, and every predicted value."""
    engine, predicted = tutte_module.vertex_subset_profile, verify.predicted_attachment

    def doubled_counts(carrier, reached):
        return {key: 2 * c for key, c in engine(carrier, reached).items()}

    def doubled_prediction(*args):
        prediction = predicted(*args)
        return SimpleNamespace(evaluate=lambda a, b: 2 * prediction.evaluate(a, b))

    monkeypatch.setattr(tutte_module, "vertex_subset_profile", doubled_counts)
    monkeypatch.setattr(verify, "predicted_attachment", doubled_prediction)
    tutte_module._carrier_profile.cache_clear()
    yield
    tutte_module._carrier_profile.cache_clear()


def test_attachment_suite_fails_on_an_engine_wrong_like_its_prediction(wrong_vertex_engine, capsys):
    base, patch = path_graph(2), path_graph(2)
    # the attachment takes the vertex-subset engine, and so does path_graph(2)
    # itself, so its polynomials come from enumeration; the two agree with each other ...
    attached = tutte_polynomial(constructions.attach_graphs(base, patch))
    base_poly, patch_poly = tutte_polynomial(to_greedoid(base)), tutte_polynomial(to_greedoid(patch))
    prediction = verify.predicted_attachment(base_poly, patch_poly, 2, 2, 2)
    assert attached.evaluate(3, 2) == prediction.evaluate(3, 2)
    # ... but not with enumeration
    rows = verify.run_suite("attachment")
    assert rows and all(ok is False for _, ok, _ in rows)
    assert main(["verify", "attachment"]) == 1
    assert "attachment path-2~path-2: FAIL (point (3, 2))" in capsys.readouterr().out
