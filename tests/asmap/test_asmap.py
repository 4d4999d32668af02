"""Tests for IP→AS mapping and boundary classification."""

import pytest

from repro.asmap.boundaries import classify_hop
from repro.asmap.mapping import ASMap, NoisyASMap, UNKNOWN_ASN
from repro.netsim.ipv4 import Prefix, parse_addr


def build_map():
    truth = ASMap()
    truth.register(Prefix.parse("62.0.0.0/16"), 100)
    truth.register(Prefix.parse("62.1.0.0/16"), 200)
    truth.register(Prefix.parse("24.0.0.0/16"), 300)
    return truth


class TestASMap:
    def test_lookup(self):
        truth = build_map()
        assert truth.lookup(parse_addr("62.0.1.1")) == 100
        assert truth.lookup(parse_addr("62.1.1.1")) == 200

    def test_unknown(self):
        assert build_map().lookup(parse_addr("9.9.9.9")) == UNKNOWN_ASN

    def test_counts(self):
        truth = build_map()
        assert truth.prefix_count == 3
        assert truth.asn_count == 3


class TestNoisyASMap:
    def test_deterministic_per_address(self):
        noisy = NoisyASMap(build_map(), seed=5, miss_rate=0.3, misattribution_rate=0.3)
        addr = parse_addr("62.0.1.1")
        first = noisy.lookup(addr)
        assert all(noisy.lookup(addr) == first for _ in range(10))

    def test_noise_rates_approximate(self):
        noisy = NoisyASMap(build_map(), seed=1, miss_rate=0.1, misattribution_rate=0.1)
        misses = wrong = right = 0
        for index in range(5000):
            addr = parse_addr("62.0.0.0") + index
            result = noisy.lookup(addr)
            if result == UNKNOWN_ASN:
                misses += 1
            elif result != 100:
                wrong += 1
            else:
                right += 1
        assert 0.06 < misses / 5000 < 0.14
        assert 0.06 < wrong / 5000 < 0.14
        assert right > 3500

    def test_zero_noise_is_truth(self):
        noisy = NoisyASMap(build_map(), miss_rate=0.0, misattribution_rate=0.0)
        assert noisy.lookup(parse_addr("62.1.2.3")) == 200

    def test_unknown_stays_unknown(self):
        noisy = NoisyASMap(build_map(), miss_rate=0.0, misattribution_rate=0.0)
        assert noisy.lookup(parse_addr("9.9.9.9")) == UNKNOWN_ASN


class TestBoundaryClassification:
    def test_interior_hop(self):
        verdict = classify_hop([100, 100, 100], 1)
        assert not verdict.is_boundary
        assert verdict.determinate

    def test_boundary_hop(self):
        verdict = classify_hop([100, 100, 200], 2)
        assert verdict.is_boundary
        assert verdict.determinate

    def test_first_hop_is_not_boundary(self):
        verdict = classify_hop([100, 200], 0)
        assert not verdict.is_boundary
        assert verdict.determinate

    def test_unknown_here_is_indeterminate(self):
        verdict = classify_hop([100, UNKNOWN_ASN, 200], 1)
        assert not verdict.determinate

    def test_unknown_predecessors_skipped(self):
        """Conventional traceroute analysis: skip unknown hops when
        finding the previous AS."""
        verdict = classify_hop([100, UNKNOWN_ASN, 200], 2)
        assert verdict.is_boundary
        assert verdict.determinate
        same = classify_hop([100, UNKNOWN_ASN, 100], 2)
        assert not same.is_boundary

    def test_all_unknown_before_is_determinate_non_boundary(self):
        verdict = classify_hop([UNKNOWN_ASN, 100], 1)
        assert verdict.determinate
        assert not verdict.is_boundary

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            classify_hop([100], 5)
