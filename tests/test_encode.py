"""The line a report prints: :func:`cli.encode` against ``json.dumps``.

``encode`` writes Ap(S, alpha) without one ``str`` per entry: the line is one
%-format pass, a %d per head entry and, on an Ap built off the gap window, one
%s for the run Ap[r] = r from its ``tail`` on, written as hundred-blocks of one
template.  Every other value, with its % doubled, and a report with no Apery
list go through ``json.dumps``.  So the text must be ``json.dumps(out)`` byte
for byte, on any head, any tail start and any key or value holding a %.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from seifert_semigroup import cli, semigroup
from seifert_semigroup.seifert import SeifertData, ihs_from_alphas
from seifert_semigroup.semigroup import Link, WindowApery

JSON_SCALARS = st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats(allow_nan=False) | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
IDS = ["plain", 'say "hi" \\ there', "100%% %d %s", "Selmer–Apéry ∑ 非",
       7, -3.5, 1e300, True, False, None, [1, "a", None], {"k": [2]}]


def window_apery(head, alpha: int) -> WindowApery:
    """Ap as apery_selmer builds it: ``head``, then r for len(head) <= r < alpha, tail = len(head)."""
    apery = WindowApery([*head, *range(len(head), alpha)])
    apery.tail = len(head)
    return apery


def report(apery, ident="r", **extra) -> dict:
    return {"id": ident, "invariants": {"alpha": len(apery), "gamma": "7/3"},
            "semigroup": {"frobenius": 5, "trivial": False, "generators": [2, 3], "apery": apery, "gaps": 4},
            "module": {"frobenius": -1, "min": -2}, **extra}


@st.composite
def apery_sets(draw):
    """A window-built Ap with any tail start, or a plain tuple, as a sphere's; entries are any ints."""
    alpha = draw(st.integers(1, 1250))
    w = draw(st.sampled_from([0, 1, alpha, alpha // 2, 100 * (alpha // 200)]) | st.integers(0, alpha))
    head = draw(st.lists(st.integers(-10**6, 10**12), min_size=w, max_size=w))
    return window_apery(head, alpha) if draw(st.booleans()) else tuple(head + list(range(w, alpha)))


@settings(max_examples=300, deadline=None)
@given(apery_sets(), JSON_VALUES, st.dictionaries(st.text(), JSON_VALUES, max_size=3))
def test_encode_is_json_dumps(apery, ident, extra):
    out = report(apery, ident, **extra)
    assert cli.encode(out) == json.dumps(out)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=5))
def test_encode_without_an_apery_list_is_json_dumps(out):
    assert cli.encode(out) == json.dumps(out)


def test_encode_on_every_hundred_boundary():
    """alpha and the tail start at and around the hundreds, tails from 0, and a head that fills Ap."""
    for alpha in (1, 2, 99, 100, 101, 199, 200, 10_100):
        for w in sorted({0, 1, 99, 100, 101, 199, 200, 201, 10_000, alpha - 1, alpha} & set(range(alpha + 1))):
            apery = window_apery([r + 3 * alpha for r in range(w)], alpha)
            out = report(apery)
            assert cli.encode(out) == json.dumps(out), (alpha, w)
            assert json.loads(cli.encode(out))["semigroup"]["apery"] == list(apery)


def _batch_matches(record: dict) -> dict:
    """_batch_one's line against json.dumps of the full report; the report."""
    full = cli.full_report(record)
    assert cli._batch_one(json.dumps(record)) == (json.dumps(full), cli.EXIT_OK)
    return full


def test_batch_prints_spheres_bh_and_trivial_records_as_json_dumps():
    """A sphere's Ap is the theorem's plain tuple, printed whole as its head; a Seifert record's has a tail;
    a trivial record's Ap is r -> r from r = 1 on."""
    for alphas in ([2, 3, 7], [7, 11, 13], [23, 29, 31]):
        assert type(Link(ihs_from_alphas(alphas)).ap.apery) is tuple
        _batch_matches({"id": f"ihs{alphas}", "alphas": alphas})
    for bh in ([2, 3, 7], [2, 3, 5], [6, 10, 7], [6, 10, 14]):
        _batch_matches({"id": "bh", "bh": bh})
    seifert = ((2, [[3, 2], [12, 7], [11, 5]]), (3, [[4, 1], [6, 1], [10, 1]]), (1, [[5, 1], [5, 1], [7, 1], [10, 1]]))
    for b0, legs in seifert:
        _batch_matches({"id": "sf", "seifert": {"b0": b0, "legs": legs}})
    trivial = Link(SeifertData(3, ((4, 1), (6, 1), (10, 1))))
    assert trivial.sf.trivial and trivial.ap.apery.tail == 1 and trivial.ap.apery == tuple(range(60))


def test_batch_prints_every_json_id():
    seifert = {"b0": 2, "legs": [[3, 2], [12, 7], [11, 5]]}
    for ident in IDS:
        for record in ({"id": ident, "alphas": [2, 3, 7]}, {"id": ident, "seifert": seifert}):
            full = _batch_matches(record)
            assert json.loads(cli._batch_one(json.dumps(record))[0])["id"] == ident == full["id"]


def test_a_faulty_head_entry_shows_in_the_printed_line(monkeypatch):
    """Ap[r] = r at a class f < r < w of the head, moved up a period: the tail start stays w, and the
    printed line carries the planted entry, byte for byte as json.dumps writes it."""
    sf = SeifertData(2, ((3, 2), (12, 7), (11, 5)))
    link = Link(sf)
    alpha, w, f = link.inv.alpha, link.w, link.ap.frobenius
    assert f + 1 < w - 1
    r = w - 1
    exact = semigroup.apery_selmer

    def planted(link):
        ap = exact(link)
        apery = window_apery([*ap.apery[:w - 1], r + alpha], alpha)
        return dataclasses.replace(ap, apery=apery)

    monkeypatch.setattr(semigroup, "apery_selmer", planted)
    record = {"id": "planted", "seifert": {"b0": 2, "legs": [[3, 2], [12, 7], [11, 5]]}}
    full = _batch_matches(record)
    assert full["semigroup"]["apery"][r] == r + alpha
    assert json.loads(cli._batch_one(json.dumps(record))[0])["semigroup"]["apery"][r] == r + alpha


def test_an_encoder_failure_is_one_error_record(monkeypatch):
    """The encoding runs inside _batch_one's try: a MemoryError there is the record's error, exit 1."""
    def out_of_memory(out):
        raise MemoryError()

    monkeypatch.setattr(cli, "encode", out_of_memory)
    assert cli._batch_one('{"id":"r3","alphas":[2,3,7]}') == ('{"id": "r3", "error": "MemoryError"}', 1)
