import pytest

import helpers


@pytest.fixture(scope="session")
def small_graph_corpus():
    """All graphs up to isomorphism on 1..6 vertices."""
    corpus = helpers.graph_corpus(6)
    for n, count in corpus.items():
        assert len(count) == helpers.KNOWN_GRAPH_COUNTS[n]
    return corpus
