"""The reply's wire form.

``RegionSet.pairs()`` hands out ``(left, right)`` tuples, but what a
client reads must stay byte-for-byte the list-of-lists encoding it
always was: JSON writes a tuple as an array.  Pinned here for ``/query``
and, through ``slice_checksum``'s published formula, in
``tests/backend/test_base.py``.
"""

import http.client
import json

import pytest

from repro.server import CorpusSpec, QueryService, ServerConfig, create_server

TEXT = (
    "<play><act><scene>"
    "<speech><speaker>A</speaker><line>love me</line></speech>"
    "<speech><line>not</line></speech>"
    "</scene></act></play>"
)
QUERY = "speech union line"
GOLDEN_REGIONS = b'"regions": [[18, 74], [46, 65], [75, 107], [83, 98]]'


@pytest.fixture
def service(tmp_path):
    path = tmp_path / "play.xml"
    path.write_text(TEXT, encoding="utf-8")
    svc = QueryService(
        ServerConfig(workers=1, corpora=(CorpusSpec("play", "tagged", str(path)),))
    )
    yield svc
    svc.close()


def _listed(envelope: dict) -> dict:
    return {**envelope, "regions": [[left, right] for left, right in envelope["regions"]]}


def test_an_envelope_encodes_as_lists_of_lists(service):
    envelope = service.execute(QUERY, use_cache=False)
    assert envelope["regions"] == [(18, 74), (46, 65), (75, 107), (83, 98)]
    assert json.dumps(envelope) == json.dumps(_listed(envelope))
    assert GOLDEN_REGIONS.decode() in json.dumps(envelope)


def test_query_response_bytes_are_pinned(service):
    server = create_server(service, port=0)
    server.serve_in_background()
    try:
        for use_cache in (True, True, False):  # a miss, a hit, a bypass
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.bound_port, timeout=10
            )
            try:
                connection.request(
                    "POST", "/query", body=json.dumps({"query": QUERY, "use_cache": use_cache})
                )
                raw = connection.getresponse().read()
            finally:
                connection.close()
            assert GOLDEN_REGIONS in raw
            assert raw == json.dumps(_listed(json.loads(raw))).encode("utf-8")
    finally:
        server.stop()
