import pytest

from subdepth import chartab, constructions, depth, lemma
from subdepth.constructions import family
from subdepth.lemma import lemma_report


def test_lemma_requires_n_at_least_two():
    with pytest.raises(ValueError):
        lemma_report(1)


def test_lemma_n2():
    rep = lemma_report(2)
    assert rep.passed, rep.to_obj()
    assert "6 seeds" in rep.parts["i"].detail
    assert rep.parts["iv"].passed and "distance (4, 1) -- (4, 2) is 1" in rep.parts["iv"].detail
    assert rep.parts["v"].passed and "distance 2" in rep.parts["v"].detail
    obj = rep.to_obj()
    assert obj["passed"] and set(obj["parts"]) == {"i", "ii", "iii", "iv", "v"}


def test_overlap_edge_witness(bg, s4_table):
    # the two faithful characters restrict to the Klein subgroup with common
    # constituents, so the labels (4, x) and (5, x) must always be adjacent
    fam = family("A", 2)
    rep = lemma_report(2, fam=fam)
    assert rep.parts["iii"].passed
    from subdepth.lemma import expected_overlap_graph
    g = expected_overlap_graph(2)
    for x in (1, 2, 3):
        assert frozenset(((4, x), (5, x))) in g.edges


def test_lemma_reads_the_members_report(monkeypatch):
    # on a member that has its report, the lemma builds no inclusion matrix,
    # no base groups and no Dixon table
    fam = family("A", 2)
    fam.report()
    calls = []
    for module, name in [(depth, "inclusion_matrix"), (lemma, "inclusion_matrix"),
                         (chartab, "dixon_character_table"),
                         (constructions, "base_groups"), (lemma, "base_groups")]:
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    rep = lemma_report(2, fam=fam)
    assert rep.passed, rep.to_obj()
    assert calls == []


def test_lemma_rejects_another_member():
    with pytest.raises(ValueError):
        lemma_report(3, fam=family("A", 2))
    with pytest.raises(ValueError):
        lemma_report(2, fam=family("B", 2))
