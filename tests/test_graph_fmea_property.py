"""Property-based tests: Algorithm 1 against independent oracles.

Random small DAG architectures are generated; the oracle recomputes
single-point failures directly from the definition ("the component appears
in every input→output path", enumerated exhaustively with networkx) and
must agree with :func:`run_ssam_fmea` on every component.  A second oracle
is the FMEA/cut-set duality: Algorithm 1's single points must equal the
singleton minimal cut sets of the synthesised fault tree.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fta import federate_fta_fmea
from repro.safety import run_ssam_fmea
from repro.ssam import ArchitectureBuilder
from repro.ssam.base import text_of


@st.composite
def random_architectures(draw):
    """A random DAG over 2–8 components with edges only index-forward
    (guaranteeing acyclicity), anchored at random entry/exit nodes."""
    n = draw(st.integers(2, 8))
    builder = ArchitectureBuilder("sys", component_type="system")
    handles = []
    for index in range(n):
        handle = builder.component(f"N{index}", fit=10, component_class="Diode")
        handle.failure_mode("Open", "open", 1.0)
        handles.append(handle)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
                builder.wire(handles[i], handles[j])
    entries = sorted(
        draw(
            st.sets(
                st.integers(0, n - 1), min_size=1, max_size=min(3, n)
            )
        )
    )
    exits = sorted(
        draw(
            st.sets(
                st.integers(0, n - 1), min_size=1, max_size=min(3, n)
            )
        )
    )
    for index in entries:
        builder.entry(handles[index])
    for index in exits:
        builder.exit(handles[index])
    return builder.build(), n, edges, entries, exits


def oracle_single_points(n, edges, entries, exits):
    """Brute force: enumerate every IN->OUT path; a node is a single point
    iff paths exist and the node is on all of them."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_nodes_from(["IN", "OUT"])
    graph.add_edges_from(edges)
    for index in entries:
        graph.add_edge("IN", index)
    for index in exits:
        graph.add_edge(index, "OUT")
    paths = [
        set(path) - {"IN", "OUT"}
        for path in nx.all_simple_paths(graph, "IN", "OUT")
    ]
    if not paths:
        return set()
    common = set.intersection(*paths)
    return {f"N{index}" for index in common}


@settings(max_examples=120, deadline=None)
@given(data=random_architectures())
def test_property_algorithm1_matches_oracle(data):
    system, n, edges, entries, exits = data
    result = run_ssam_fmea(system, mark_model=False)
    algorithm = set(result.safety_related_components())
    oracle = oracle_single_points(n, edges, entries, exits)
    assert algorithm == oracle


@settings(max_examples=120, deadline=None)
@given(data=random_architectures())
def test_property_single_points_equal_singleton_cut_sets(data):
    """Algorithm-1 single points equal the singleton minimal cut sets of
    :func:`synthesize_fault_tree` (the FMEA/cut-set duality)."""
    system = data[0]
    fmea = run_ssam_fmea(system, mark_model=False)
    federated = federate_fta_fmea(system, fmea)
    assert federated.consistent, federated.disagreements()


@settings(max_examples=60, deadline=None)
@given(data=random_architectures())
def test_property_adding_parallel_twin_removes_single_point(data):
    """Duplicating any single-point component in parallel de-singles it."""
    system, n, edges, entries, exits = data
    result = run_ssam_fmea(system, mark_model=False)
    single_points = result.safety_related_components()
    if not single_points:
        return
    target_name = single_points[0]
    from repro.ssam import architecture as arch

    by_name = {
        text_of(sub): sub for sub in system.get("subcomponents")
    }
    target = by_name[target_name]
    twin = arch.component("TWIN", fit=10, component_class="Diode")
    twin.add("failureModes", arch.failure_mode("Open", "open", 1.0))
    system.add("subcomponents", twin)
    # Mirror the target's connections onto the twin.
    for rel in list(system.get("relationships")):
        if rel.get("source") is target:
            arch.connect(system, twin, rel.get("target"))
        if rel.get("target") is target:
            arch.connect(system, rel.get("source"), twin)
    rerun = run_ssam_fmea(system, mark_model=False)
    assert target_name not in rerun.safety_related_components()
