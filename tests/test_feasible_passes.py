"""Each exhaustive check on a greedoid goes over its feasible sets once."""

import sys

import pytest

from greedoid_tutte import (
    Greedoid,
    attach,
    enumerate_feasible_sets,
    parallel_classes,
    path_graph,
    star_graph,
    to_greedoid,
    trivial_attachment_function,
)
from greedoid_tutte import greedoid as greedoid_module
from greedoid_tutte.carriers import format_carrier
from greedoid_tutte.cli import main
from greedoid_tutte.constructions import AttachmentFunction
from greedoid_tutte.errors import GroundSetTooLargeError


@pytest.fixture
def enumerations(monkeypatch):
    """Sizes of the families enumerated, under every name the package imported the enumerator as."""
    sizes = []
    original = greedoid_module.enumerate_feasible_sets

    def counted(*args, **kwargs):
        family = original(*args, **kwargs)
        sizes.append(len(family))
        return family

    for name, module in list(sys.modules.items()):
        if name.startswith("greedoid_tutte") and getattr(module, "enumerate_feasible_sets", None) is original:
            monkeypatch.setattr(module, "enumerate_feasible_sets", counted)
    return sizes


def counted_greedoid(carrier):
    """The carrier's greedoid, with a list that counts its oracle calls after construction."""
    inner = to_greedoid(carrier)
    calls = []

    def oracle(mask):
        calls.append(mask)
        return inner.feasible_mask(mask)

    g = Greedoid(inner.size, oracle)
    calls.clear()
    return g, calls


def test_verify_axioms_enumerates_once(enumerations, tmp_path, capsys):
    path = tmp_path / "star12.graph"
    path.write_text(format_carrier(star_graph(12)))
    assert main(["verify", "axioms", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "axioms pass"
    assert enumerations == [4096]


def test_parallel_classes_enumerates_once(enumerations):
    result = parallel_classes(to_greedoid(star_graph(10)))
    assert result.classes == tuple((e,) for e in range(10)) and result.loop_class is None
    assert enumerations == [1024]


def test_attach_reads_closures_off_the_family():
    g, calls = counted_greedoid(star_graph(12))
    enumerate_feasible_sets(g)
    assert g.rank == 12
    reference = len(calls)
    g, calls = counted_greedoid(star_graph(12))
    attached = attach(g, trivial_attachment_function(g), to_greedoid(path_graph(1)))
    assert attached.size == 24
    # one more: the attachment's own check that the empty set is feasible
    assert len(calls) <= reference + 1


def test_attach_refuses_too_many_pairs_before_checking():
    g = to_greedoid(star_graph(14))
    images = []
    func = AttachmentFunction(g, lambda mask: images.append(mask) or frozenset(range(1, mask.bit_count() + 1)))
    with pytest.raises(GroundSetTooLargeError, match=r"about 2\^28 pairs of feasible sets"):
        attach(g, func, to_greedoid(path_graph(1)))
    assert images == []
