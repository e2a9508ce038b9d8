import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.topology import (
    Digraph,
    EdgeListError,
    EpsilonBAudit,
    TopologyError,
    TopologySpec,
    check_epsilon_B_connectivity,
    generate_topology,
    is_strongly_connected,
)
from otaconsensus.topology import _parse_edge_list, _read_edge_lines


def digraph(n, *edges):
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[a, b] = True
    return Digraph(adj)


def test_digraph_rejects_self_edges():
    with pytest.raises(ValueError, match="self-influence"):
        digraph(3, (0, 1), (2, 2))


def test_digraph_rejects_out_of_range():
    # a non-square matrix names node ids that are out of range one way
    with pytest.raises(ValueError, match="square"):
        Digraph(np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError, match="square"):
        Digraph(np.zeros(3, dtype=bool))


def test_digraph_needs_two_nodes():
    with pytest.raises(ValueError):
        Digraph(np.zeros((1, 1), dtype=bool))


def test_digraph_is_read_only_and_compares_by_matrix():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    g = Digraph(adj)
    adj[1, 2] = True  # the graph holds its own copy
    assert g.edges == ((0, 1),) and g.n == 3
    with pytest.raises(ValueError):
        g.adj[2, 0] = True
    assert g == digraph(3, (0, 1))
    assert g != digraph(3, (1, 0))


def test_neighbors_and_degrees(tmp_path):
    # an edge-list line 'i j' lands at adj[i, j]: column j lists j's
    # in-neighbors, row j its out-neighbors
    f = tmp_path / "g.edges"
    f.write_text("0 1\n2 1\n1 3\n")
    g = generate_topology(TopologySpec(kind="edge_list", path=str(f), symmetric=False), 4, seed=0)
    assert np.flatnonzero(g.adj[:, 1]).tolist() == [0, 2]
    assert np.flatnonzero(g.adj[1]).tolist() == [3]
    assert g.adj.sum(axis=0).tolist() == [0, 2, 0, 1]
    assert g.adj.sum(axis=1).tolist() == [1, 1, 1, 0]
    assert g.m == 3


def test_adjacency_orientation():
    # adj[i, j] True iff edge i -> j
    g = digraph(3, (0, 2))
    assert g.adj[0, 2] and not g.adj[2, 0]
    assert g.edges == ((0, 2),)
    assert g.m == 1


def test_strong_connectivity():
    cycle = digraph(3, (0, 1), (1, 2), (2, 0))
    assert is_strongly_connected(cycle.adj)
    # path graph: 2 cannot reach back
    path = digraph(3, (0, 1), (1, 2))
    assert not is_strongly_connected(path.adj)


def test_symmetric_detection():
    sym = digraph(2, (0, 1), (1, 0))
    asym = digraph(2, (0, 1))
    assert sym.is_symmetric()
    assert not asym.is_symmetric()


@given(n=st.integers(min_value=2, max_value=30))
def test_ring_complete_strongly_connected(n):
    for kind in ("ring", "complete"):
        g = generate_topology(TopologySpec(kind=kind), n, seed=0)
        assert is_strongly_connected(g.adj)
        assert g.is_symmetric()


def test_ring_directed_is_cycle():
    g = generate_topology(TopologySpec(kind="ring", symmetric=False), 5, seed=0)
    assert g.edges == tuple(sorted((i, (i + 1) % 5) for i in range(5)))
    assert is_strongly_connected(g.adj)


def test_complete_edge_count():
    g = generate_topology(TopologySpec(kind="complete"), 6, seed=0)
    assert g.m == 6 * 5


@given(n=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_erdos_renyi_symmetric_and_connected(n, seed):
    g = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    assert g.is_symmetric()
    assert is_strongly_connected(g.adj)


def test_erdos_renyi_deterministic_in_seed():
    spec = TopologySpec(kind="erdos_renyi", p=0.4)
    a = generate_topology(spec, 10, seed=7)
    b = generate_topology(spec, 10, seed=7)
    c = generate_topology(spec, 10, seed=8)
    assert a == b
    # different seed should (for this size) give a different draw
    assert a != c


def _edge_text(g):
    return "".join(f"{a} {b}\n" for a, b in sorted(g.edges))


@pytest.mark.parametrize(
    "kind, symmetric, n, edges",
    [
        ("ring", True, 5, "01 04 10 12 21 23 32 34 40 43"),
        ("ring", False, 5, "01 12 23 34 40"),
        ("complete", True, 4, "01 02 03 10 12 13 20 21 23 30 31 32"),
        ("complete", False, 4, "01 02 03 10 12 13 20 21 23 30 31 32"),
    ],
)
def test_deterministic_topologies_pinned(kind, symmetric, n, edges):
    g = generate_topology(TopologySpec(kind=kind, symmetric=symmetric), n, seed=0)
    assert sorted(g.edges) == [(int(e[0]), int(e[1])) for e in edges.split()]


@pytest.mark.parametrize(
    "symmetric, n, p, seed, m, expected",
    [
        # the sorted edge text for small graphs, else its SHA-256; the draws
        # take 1, 1, 3, 7, 321, 2, 1 and 1 attempts to come out strongly
        # connected, so the regeneration stream is pinned too
        (True, 6, 0.5, 0, 12, "0 1\n0 4\n0 5\n1 0\n1 2\n1 3\n2 1\n2 4\n3 1\n4 0\n4 2\n5 0\n"),
        (False, 5, 0.5, 1, 12, "0 3\n1 0\n1 2\n1 4\n2 1\n3 0\n3 2\n3 4\n4 0\n4 1\n4 2\n4 3\n"),
        (True, 10, 0.3, 0, 30, "f1162bb799c408a0bb202630f83b6b990d796bc3f7fda18015fb2029dcf764ba"),
        (False, 10, 0.3, 0, 27, "18c132569b1458fa2a915cdc837fd271f4809ba1d41377d0bda46174ac3b80c1"),
        (True, 37, 0.05, 2, 102, "38edcee178d69c8524b753ea78ecd2228e4e8f52fa0d080bbd93a84fe937dbfc"),
        (False, 37, 0.1, 3, 168, "61f8b4b37438c86a7a2fb20b6ee1b911fb38a6dc815361ad13410ba0cb77cbe2"),
        (True, 100, 0.5, 1, 4980, "79c85d5028c0c6a80f966de30e3307e6d6e0c78e98d6ceb61ecc818bbcf1c1f0"),
        (False, 100, 0.3, 2, 3007, "f13af871fb048d9a9c6df1403dd5898ad38519fe8db342f0dceeaa875ed2383d"),
    ],
)
def test_erdos_renyi_pinned(symmetric, n, p, seed, m, expected):
    g = generate_topology(TopologySpec(kind="erdos_renyi", p=p, symmetric=symmetric), n, seed=seed)
    text = _edge_text(g)
    assert g.m == m
    assert (text if "\n" in expected else hashlib.sha256(text.encode()).hexdigest()) == expected


def test_erdos_renyi_gives_up_when_p_hopeless():
    # p this small on n=20 essentially never yields strong connectivity
    with pytest.raises(TopologyError, match="attempts"):
        generate_topology(TopologySpec(kind="erdos_renyi", p=0.001), 20, seed=0)


def test_erdos_renyi_p_validated():
    with pytest.raises(ValueError):
        TopologySpec(kind="erdos_renyi", p=0.0)
    with pytest.raises(ValueError):
        TopologySpec(kind="erdos_renyi", p=1.5)
    with pytest.raises(ValueError):
        TopologySpec(kind="erdos_renyi")  # p missing


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TopologySpec(kind="smallworld")


def test_edge_list_parse(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("# comment line\n0 1\n1 2  # trailing comment\n\n2 0\n")
    g = generate_topology(TopologySpec(kind="edge_list", path=str(f), symmetric=False), 3, seed=0)
    assert g.edges == ((0, 1), (1, 2), (2, 0))


def test_edge_list_symmetrized(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("0 1\n")
    g = generate_topology(TopologySpec(kind="edge_list", path=str(f)), 2, seed=0)
    assert g.edges == ((0, 1), (1, 0))


def test_edge_list_bad_token(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("0 1\nfoo bar\n")
    with pytest.raises(EdgeListError, match=r":2: non-integer"):
        generate_topology(TopologySpec(kind="edge_list", path=str(f)), 3, seed=0)


def test_edge_list_wrong_arity(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("0 1 2\n")
    with pytest.raises(EdgeListError, match="expected 'i j'"):
        generate_topology(TopologySpec(kind="edge_list", path=str(f)), 3, seed=0)


def test_edge_list_out_of_range(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("0 5\n")
    with pytest.raises(EdgeListError, match="range"):
        generate_topology(TopologySpec(kind="edge_list", path=str(f)), 3, seed=0)


def test_edge_list_self_edge(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("1 1\n")
    with pytest.raises(EdgeListError):
        generate_topology(TopologySpec(kind="edge_list", path=str(f)), 3, seed=0)


def test_edge_list_missing_file():
    with pytest.raises(EdgeListError):
        generate_topology(TopologySpec(kind="edge_list", path="/nonexistent/g.edges"), 3, seed=0)


def test_edge_list_empty_file_has_no_edges(tmp_path):
    f = tmp_path / "g.edges"
    for text in ("", "# only a comment\n\n"):
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _parse_edge_list(str(f), 3).any()


@pytest.mark.parametrize("text, edge", [("1_0 2\n", (10, 2)), ("\u0663 1\n", (3, 1))])
def test_edge_list_reads_every_id_int_reads(text, edge, tmp_path):
    # numpy refuses these ids; the line loop reads them as int() does
    f = tmp_path / "g.edges"
    f.write_text(text)
    assert np.argwhere(_parse_edge_list(str(f), 12)).tolist() == [list(edge)]


# numpy reads the non-ASCII "\u01fe" as node 462, int() refuses it
_TOKENS = ["0", "1", "2", "3", "499", "500", "+3", "-1", "00", "1.0", "1_0", "\u0663", "\u01fe", "x",
           "99999999999999999999"]
_LINES = st.builds(
    lambda lead, tokens, seps, comment: lead + "".join(t + s for t, s in zip(tokens, seps)) + comment,
    st.sampled_from(["", " ", "\t"]),
    st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=3),
    st.lists(st.sampled_from([" ", "\t", " \t ", "\x1c"]), min_size=3, max_size=3),
    st.sampled_from(["", "# c", "#1 2"]),
)


@given(lines=st.lists(_LINES, max_size=6), ends=st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=200, deadline=None)
def test_edge_list_fast_path_agrees_with_line_loop(lines, ends, tmp_path_factory):
    # whatever numpy reads at once must be what the line loop reads, and a
    # file it refuses goes to the loop: the same matrix, or the same error
    f = tmp_path_factory.mktemp("edges") / "g.edges"
    f.write_bytes(ends.join(lines).encode())

    def outcome(read, *args):
        try:
            return np.argwhere(read(str(f), *args)).tolist()
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(_parse_edge_list, 500) == outcome(_read_edge_lines, f.read_text().splitlines(), 500)


def test_joint_graph_unions_edges():
    # a B-step window's joint graph is the OR of its steps' effective graphs:
    # three one-way links, none strongly connected alone, close a directed cycle
    steps = [np.eye(3) for _ in range(3)]
    for gains, (receiver, transmitter) in zip(steps, [(1, 0), (2, 1), (0, 2)]):
        gains[receiver, transmitter] = 1.0
    assert not any(is_strongly_connected(g > 0.5) for g in steps)
    assert is_strongly_connected(np.logical_or.reduce([g > 0.5 for g in steps]))
    audit = EpsilonBAudit(0.5, 3)
    for gains in steps:
        audit.add(gains)
    assert audit.satisfied


def _const_realization(n, pairs, gain, self_weight=1.0):
    from otaconsensus.channel import ChannelRealization

    g = np.zeros((n, n))
    np.fill_diagonal(g, self_weight)
    for i, j in pairs:
        g[i, j] = gain
        g[j, i] = gain
    return ChannelRealization(n, g, self_weight)


def test_epsilon_B_over_nonoverlapping_windows():
    # per step only one link is up; jointly over B=3 the cycle closes
    r0 = _const_realization(3, [(0, 1)], 1.0)
    r1 = _const_realization(3, [(1, 2)], 1.0)
    r2 = _const_realization(3, [(0, 2)], 1.0)
    seq = [r0, r1, r2, r0, r1, r2]
    assert check_epsilon_B_connectivity(seq, epsilon=0.5, B=3)
    assert not check_epsilon_B_connectivity(seq, epsilon=0.5, B=1)
    # gains at or below epsilon do not count as edges
    assert not check_epsilon_B_connectivity(seq, epsilon=1.0, B=3)


def test_epsilon_B_trailing_partial_window_ignored():
    r_up = _const_realization(2, [(0, 1)], 1.0)
    r_down = _const_realization(2, [], 1.0)
    # window [0,2) connected; trailing step 2 alone is not a full window
    assert check_epsilon_B_connectivity([r_up, r_up, r_down], epsilon=0.5, B=2)


def test_epsilon_B_vacuous_on_short_sequence():
    r_down = _const_realization(2, [], 1.0)
    assert check_epsilon_B_connectivity([r_down], epsilon=0.5, B=2)


def test_epsilon_B_validates_arguments():
    r = _const_realization(2, [(0, 1)], 1.0)
    with pytest.raises(ValueError):
        check_epsilon_B_connectivity([r], epsilon=0.0, B=1)
    with pytest.raises(ValueError):
        check_epsilon_B_connectivity([r], epsilon=0.5, B=0)
