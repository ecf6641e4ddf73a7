import io
import itertools
import math
import random
from types import SimpleNamespace

import pytest

import qrindex.sampling as sampling
from qrindex import (
    BitSourceExhaustedError,
    RandomBitLedger,
    RejectionLimitError,
    SampleReport,
    ScriptedBitSource,
    SeededBitSource,
    SystemBitSource,
    compare_bit_budgets,
    draw_uniform,
    enumerate_qr,
    parse_factorization,
    sample_residue_by_index,
    sample_residue_classical,
)


class TestBitSources:
    def test_scripted_replays_and_tracks_position(self):
        source = ScriptedBitSource("10 1\n0")
        assert [source.next_bit() for _ in range(4)] == [1, 0, 1, 0]
        assert source.position == 4
        with pytest.raises(BitSourceExhaustedError):
            source.next_bit()

    def test_scripted_rejects_other_characters(self):
        with pytest.raises(ValueError):
            ScriptedBitSource("10x")

    def test_seeded_is_deterministic(self):
        a = SeededBitSource(999)
        b = SeededBitSource(999)
        stream_a = [a.next_bit() for _ in range(200)]
        stream_b = [b.next_bit() for _ in range(200)]
        assert stream_a == stream_b
        assert set(stream_a) == {0, 1}

    def test_different_seeds_differ(self):
        a = [SeededBitSource(1).next_bit() for _ in range(64)]
        b = [SeededBitSource(2).next_bit() for _ in range(64)]
        assert a != b

    def test_seed_range_enforced(self):
        SeededBitSource(0)
        SeededBitSource((1 << 64) - 1)
        with pytest.raises(ValueError):
            SeededBitSource(-1)
        with pytest.raises(ValueError):
            SeededBitSource(1 << 64)

    def test_seeded_words_are_the_one_bit_stream(self):
        # next_bits(k) serves the next k bits of the next_bit stream, first
        # bit most significant, with the two calls interleaved freely.
        for seed in range(20):
            words, bits = SeededBitSource(seed), SeededBitSource(seed)
            for k in (0, 1, 2, 7, 8, 13, 64, 2047):
                expected = 0
                for _ in range(k):
                    expected = expected << 1 | bits.next_bit()
                assert words.next_bits(k) == expected, (seed, k)
                assert words.next_bit() == bits.next_bit()

    def test_scripted_runs_dry_inside_a_word(self):
        source = ScriptedBitSource("101")
        with pytest.raises(BitSourceExhaustedError) as excinfo:
            source.next_bits(5)
        assert source.position == 3
        assert excinfo.value.served == 3

    def test_system_words_are_the_one_bit_stream(self, monkeypatch):
        # A fixed byte stream stands in for os.urandom: next_bits(k), with
        # next_bit calls interleaved, must serve the one-bit stream.
        def replay(data):
            monkeypatch.setattr(sampling, "os", SimpleNamespace(urandom=io.BytesIO(data).read))
            return SystemBitSource()

        for seed in range(5):
            data = random.Random(seed).randbytes(512)
            bits, expected = replay(data), []
            for k in (0, 1, 7, 8, 9, 13, 64, 2047):
                word = 0
                for _ in range(k):
                    word = word << 1 | bits.next_bit()
                expected += [word, bits.next_bit()]
            words, served = replay(data), []
            for k in (0, 1, 7, 8, 9, 13, 64, 2047):
                served += [words.next_bits(k), words.next_bit()]
            assert served == expected, seed

    def test_system_source_yields_bits(self):
        source = SystemBitSource()
        bits = [source.next_bit() for _ in range(100)]
        assert set(bits) <= {0, 1}


class TestDrawUniform:
    def test_singleton_range_needs_no_bits(self):
        ledger = RandomBitLedger()
        assert draw_uniform(1, ScriptedBitSource(""), ledger) == 0
        assert ledger.bits_consumed == 0
        source = SeededBitSource(7)
        assert draw_uniform(1, source, ledger) == 0
        assert ledger.bits_consumed == 0
        assert source.next_bits(64) == SeededBitSource(7).next_bits(64)

    def test_single_bit_range(self):
        ledger = RandomBitLedger()
        assert draw_uniform(2, ScriptedBitSource("1"), ledger) == 1
        assert ledger == RandomBitLedger(bits_consumed=1, attempts=1)

    def test_rejection_trace(self):
        # Range 3 uses 2-bit words; 11 = 3 is rejected, 01 = 1 accepted.
        ledger = RandomBitLedger()
        assert draw_uniform(3, ScriptedBitSource("11 01"), ledger) == 1
        assert ledger == RandomBitLedger(bits_consumed=4, attempts=2)

    def test_bits_are_most_significant_first(self):
        ledger = RandomBitLedger()
        assert draw_uniform(5, ScriptedBitSource("100"), ledger) == 4

    def test_every_word_shape_is_reachable_once(self):
        # Over all scripts of one accepted word, each value appears once:
        # the draw is exactly uniform conditioned on the attempt count.
        for n in (2, 3, 5, 6, 7, 8):
            b = (n - 1).bit_length()
            outcomes = []
            for word in itertools.product("01", repeat=b):
                ledger = RandomBitLedger()
                try:
                    value = draw_uniform(n, ScriptedBitSource("".join(word)), ledger)
                except BitSourceExhaustedError:
                    continue  # rejected word; this script has no second attempt
                outcomes.append(value)
                assert ledger.bits_consumed == b
            assert sorted(outcomes) == list(range(n))

    def test_ledger_counts_partial_draws(self):
        # A source dying mid-word still leaves the bits it served counted.
        ledger = RandomBitLedger()
        with pytest.raises(BitSourceExhaustedError):
            draw_uniform(8, ScriptedBitSource("10"), ledger)
        assert ledger.bits_consumed == 2
        assert ledger.attempts == 1

    def test_rejection_cap(self):
        ledger = RandomBitLedger()
        with pytest.raises(RejectionLimitError):
            draw_uniform(3, ScriptedBitSource("11" * 200), ledger)
        assert ledger.attempts == 128
        assert ledger.bits_consumed == 256

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            draw_uniform(0, ScriptedBitSource("0"), RandomBitLedger())


class TestSampleByIndex:
    def test_trivial_index_space_draws_nothing(self):
        z, ledger = sample_residue_by_index(parse_factorization("2^3"), ScriptedBitSource(""))
        assert z == 1
        assert ledger == RandomBitLedger(bits_consumed=0, attempts=1)

    def test_scripted_single_bit(self):
        z, ledger = sample_residue_by_index(parse_factorization("3*5"), ScriptedBitSource("0"))
        assert z == 1
        assert ledger.bits_consumed == 1

    def test_outputs_stay_in_qr(self):
        for factors in ("3*5", "2^4*3", "3*5*7", "2^5", "2^2*7^2"):
            m = parse_factorization(factors)
            table = set(enumerate_qr(m.n))
            source = SeededBitSource(5)
            for _ in range(100):
                z, _ = sample_residue_by_index(m, source)
                assert z in table

    def test_ledger_matches_script_position(self):
        source = ScriptedBitSource("110101110010")
        _, ledger = sample_residue_by_index(parse_factorization("3*5*7"), source)
        assert ledger.bits_consumed == source.position


class TestSampleClassical:
    def test_direct_hit(self):
        # Draw range 14 uses 4-bit words; 0110 = 6 gives x = 7, a unit.
        z, ledger = sample_residue_classical(parse_factorization("3*5"), ScriptedBitSource("0110"))
        assert z == 4
        assert ledger == RandomBitLedger(bits_consumed=4, attempts=1)

    def test_gcd_retry_counts_an_attempt(self):
        # 0100 = 4 gives x = 5 (shares a factor), 0001 = 1 gives x = 2.
        source = ScriptedBitSource("0100 0001")
        z, ledger = sample_residue_classical(parse_factorization("3*5"), source)
        assert z == 4
        assert ledger == RandomBitLedger(bits_consumed=8, attempts=2)

    def test_every_accepted_odd_square_is_one_mod_8(self):
        # Draw range 7 uses 3-bit words; u in {0,2,4,6} gives each odd x.
        m = parse_factorization("2^3")
        for word in ("000", "010", "100", "110"):
            z, _ = sample_residue_classical(m, ScriptedBitSource(word))
            assert z == 1
        z, ledger = sample_residue_classical(m, ScriptedBitSource("001 010"))
        assert z == 1
        assert ledger.attempts == 2

    def test_outputs_stay_in_qr(self):
        for factors in ("3*5", "2^4*3", "2^6"):
            m = parse_factorization(factors)
            table = set(enumerate_qr(m.n))
            source = SeededBitSource(11)
            for _ in range(100):
                z, _ = sample_residue_classical(m, source)
                assert z in table


class TestCompareBitBudgets:
    def test_reports_are_reproducible(self):
        m = parse_factorization("3*5*7")
        first = compare_bit_budgets(m, 200, seed=31)
        second = compare_bit_budgets(m, 200, seed=31)
        assert first == second
        assert first[0].method == "index"
        assert first[1].method == "classical"

    def test_single_sample_report_shape(self):
        m = parse_factorization("3*5")
        index_report, classical_report = compare_bit_budgets(m, 1, seed=0)
        assert index_report.samples == 1
        assert index_report.mean_bits_per_sample == index_report.total_bits
        assert index_report.theoretical_floor == 1.0
        assert classical_report.total_bits >= 4

    def test_trivial_modulus_costs_zero_bits(self):
        index_report, _ = compare_bit_budgets(parse_factorization("2^3"), 50, seed=3)
        assert index_report.total_bits == 0
        assert index_report.theoretical_floor == 0.0

    def test_budget_ordering_on_multi_factor_modulus(self):
        # N/phi(N) >= 2 makes the classical retry loop expensive enough
        # that the index method must win on mean bits.
        m = parse_factorization("3*5*7")
        index_report, classical_report = compare_bit_budgets(m, 1000, seed=12)
        assert index_report.mean_bits_per_sample < classical_report.mean_bits_per_sample

    def test_floor_uses_exact_log2(self):
        m = parse_factorization("3*5*7*11*13")
        index_report, _ = compare_bit_budgets(m, 1, seed=1)
        assert index_report.theoretical_floor == math.log2(180)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            compare_bit_budgets(parse_factorization("3*5"), 0, seed=1)

    def test_big_modulus_floor_is_finite(self):
        # The floor must not overflow on moduli far past float range.
        m = parse_factorization("2^4099")
        report, _ = compare_bit_budgets(m, 1, seed=9)
        assert report.theoretical_floor == 4096.0


def test_sample_report_is_frozen():
    report = SampleReport("index", 1, 2, 1, 2.0, 1.0)
    with pytest.raises(AttributeError):
        report.samples = 5
