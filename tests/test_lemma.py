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


def with_entry_set(monkeypatch, fam, i, j):
    """Make entry (i, j) of the member's inclusion matrix 1 for this test."""
    report = fam.report()
    rows = [list(row) for row in report.entries]
    rows[i][j] = 1
    monkeypatch.setattr(report, "entries", tuple(map(tuple, rows)))


def test_lemma_fails_when_an_outside_character_shares_a_constituent(monkeypatch):
    # at n = 2 the seeds induce to columns 9-12, 17 and 18; row 0 lies under
    # columns 9 and 10, so a 1 at (0, 0) relates column 0 to the induced set
    fam = family("A", 2)
    with_entry_set(monkeypatch, fam, 0, 0)
    rep = lemma_report(2, fam=fam)
    assert not rep.parts["ii"].passed
    assert rep.parts["ii"].detail == \
        "induced character (5, 2) shares a constituent with outside character amb:0"
    assert all(rep.parts[k].passed for k in ("i", "iii", "iv", "v"))


def test_lemma_fails_on_a_sharing_edge_the_product_graph_lacks(monkeypatch):
    # columns 9 and 12 share no row, and their labels are not adjacent in the
    # product of an edge and a triangle; row 0 lies under column 9
    fam = family("A", 2)
    with_entry_set(monkeypatch, fam, 0, 12)
    rep = lemma_report(2, fam=fam)
    assert not rep.parts["iii"].passed
    assert rep.parts["iii"].detail == "edge mismatch: missing [] extra [((4, 1), (5, 2))]"
    assert all(rep.parts[k].passed for k in ("i", "ii", "iv", "v"))
