"""The flat CSR search substrate must be indistinguishable from dict search.

Every library search runs on the frozen CSR view (``Graph.freeze()``),
whose kernels promise to reproduce the dict-adjacency kernels bit for
bit.  This module replays the same workloads — the acceptance
algorithms (PFA / IDOM / DJKA / DOM), each execution engine, the
search-backend matrix, and the full channel-width negotiation — once
on the library's flat kernels and once with the dict reference kernels
of ``tests/dict_kernels.py`` swapped in underneath, and asserts
bit-identical results: identical trees edge-for-edge, identical
wirelengths, identical pass counts and channel widths.
"""

from __future__ import annotations

import pytest

from repro.fpga import xc3000
from repro.graph import SEARCH_BACKENDS
from repro.router import RouterConfig, minimum_channel_width

from ..dict_kernels import route_with_dict_kernels
from .conftest import route_once, result_signature


def on_dict_kernels(monkeypatch, route, *args, **kwargs):
    """``route(*args, **kwargs)`` with the dict reference kernels."""
    with monkeypatch.context() as patch:
        route_with_dict_kernels(patch)
        return route(*args, **kwargs)


def dict_reference(monkeypatch, arch, circuit, **kwargs):
    """Signature of one serial routing session on the dict kernels."""
    return result_signature(
        on_dict_kernels(monkeypatch, route_once, arch, circuit, **kwargs)
    )


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("algorithm", ["pfa", "idom", "djka", "dom"])
    def test_backend_matches_reference(
        self, tiny_xc3000, monkeypatch, algorithm
    ):
        arch, circuit = tiny_xc3000
        ref = dict_reference(monkeypatch, arch, circuit,
                             backend="dijkstra", algorithm=algorithm)
        got = result_signature(
            route_once(arch, circuit, backend="dijkstra",
                       algorithm=algorithm)
        )
        assert got == ref

    def test_steiner_matches(self, tiny_xc3000, monkeypatch):
        arch, circuit = tiny_xc3000
        ref = dict_reference(monkeypatch, arch, circuit,
                             backend="dijkstra", algorithm="ikmb")
        got = result_signature(
            route_once(arch, circuit, backend="dijkstra", algorithm="ikmb")
        )
        assert got == ref

    def test_xc4000_family_matches_reference(self, tiny_xc4000, monkeypatch):
        arch, circuit = tiny_xc4000
        ref = dict_reference(monkeypatch, arch, circuit, backend="dijkstra")
        got = result_signature(route_once(arch, circuit, backend="dijkstra"))
        assert got == ref


class TestSearchBackendMatrix:
    """The flat kernels sit underneath every SearchPolicy backend —
    goal-directed dispatch (A*, bidirectional) must stay bit-identical
    to the plain-Dijkstra dict reference."""

    @pytest.mark.parametrize("search", SEARCH_BACKENDS)
    def test_search_backend_matches_dict_reference(
        self, tiny_xc3000, monkeypatch, search
    ):
        arch, circuit = tiny_xc3000
        ref = dict_reference(monkeypatch, arch, circuit,
                             backend="dijkstra", algorithm="pfa")
        got = result_signature(
            route_once(arch, circuit, backend=search, algorithm="pfa")
        )
        assert got == ref


class TestEngineEquivalence:
    """Shipping (shared CSR + per-net pin taps) must commit the exact
    trees the serial dict reference produces."""

    @pytest.mark.parametrize("engine", ["serial", "thread"])
    def test_engine_backend_matrix(self, tiny_xc3000, monkeypatch, engine):
        arch, circuit = tiny_xc3000
        ref = dict_reference(monkeypatch, arch, circuit, backend="dijkstra")
        got = result_signature(
            route_once(arch, circuit, backend="dijkstra", engine=engine)
        )
        assert got == ref

    def test_process_engine_matches(self, tiny_xc3000, monkeypatch):
        arch, circuit = tiny_xc3000
        ref = dict_reference(monkeypatch, arch, circuit, backend="dijkstra")
        got = result_signature(
            route_once(arch, circuit, backend="dijkstra", engine="process",
                       max_workers=2)
        )
        assert got == ref


class TestChannelWidthEquivalence:
    @pytest.mark.parametrize("algorithm", ["pfa", "djka"])
    def test_negotiated_width_identical(
        self, tiny_xc3000, monkeypatch, algorithm
    ):
        _, circuit = tiny_xc3000
        cfg = RouterConfig(algorithm=algorithm, search="dijkstra",
                           max_passes=4)
        w_ref, res_ref = on_dict_kernels(
            monkeypatch, minimum_channel_width,
            circuit, xc3000, cfg, w_start=3, w_max=10,
        )
        w_got, res_got = minimum_channel_width(
            circuit, xc3000, cfg, w_start=3, w_max=10
        )
        assert w_got == w_ref
        assert result_signature(res_got) == result_signature(res_ref)
