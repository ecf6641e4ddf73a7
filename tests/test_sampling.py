import hashlib
import io
import itertools
import math
import random
from types import SimpleNamespace

import pytest

import qrindex.indexing as indexing
import qrindex.sampling as sampling
from helpers import sample_residue_by_index_reference
from qrindex import (
    BitSource,
    BitSourceExhaustedError,
    FactorizationError,
    RandomBitLedger,
    RejectionLimitError,
    SampleReport,
    ScriptedBitSource,
    SeededBitSource,
    SystemBitSource,
    compare_bit_budgets,
    draw_uniform,
    enumerate_qr,
    factor_trial_division,
    index_space_size,
    parse_factorization,
    sample_residue_by_index,
    sample_residue_classical,
)


class TestBitSources:
    def test_scripted_replays_and_tracks_position(self):
        source = ScriptedBitSource("10 1\n0")
        assert [source.next_bits(1) for _ in range(4)] == [1, 0, 1, 0]
        assert source.position == 4
        with pytest.raises(BitSourceExhaustedError):
            source.next_bits(1)

    def test_scripted_rejects_other_characters(self):
        with pytest.raises(ValueError):
            ScriptedBitSource("10x")

    def test_seeded_is_deterministic(self):
        a = SeededBitSource(999)
        b = SeededBitSource(999)
        stream_a = [a.next_bits(1) for _ in range(200)]
        stream_b = [b.next_bits(1) for _ in range(200)]
        assert stream_a == stream_b
        assert set(stream_a) == {0, 1}

    def test_different_seeds_differ(self):
        a = [SeededBitSource(1).next_bits(1) for _ in range(64)]
        b = [SeededBitSource(2).next_bits(1) for _ in range(64)]
        assert a != b

    def test_seed_range_enforced(self):
        SeededBitSource(0)
        SeededBitSource((1 << 64) - 1)
        with pytest.raises(ValueError):
            SeededBitSource(-1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_non_integer_seed_is_a_type_error(self, seed):
        # Refused as decode_index refuses a float index, not hashed into a seed.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SeededBitSource(seed)
        with pytest.raises(ValueError):
            SeededBitSource(1 << 64)

    def test_seeded_words_are_the_one_bit_stream(self):
        # next_bits(k), with one-bit words interleaved, serves the stream
        # of getrandbits(1) calls, first bit most significant.
        for seed in range(20):
            words, reference = SeededBitSource(seed), random.Random(seed)
            for k in (0, 1, 2, 7, 8, 13, 64, 2047):
                expected = 0
                for _ in range(k):
                    expected = expected << 1 | reference.getrandbits(1)
                assert words.next_bits(k) == expected, (seed, k)
                assert words.next_bits(1) == reference.getrandbits(1)

    def test_scripted_runs_dry_inside_a_word(self):
        source = ScriptedBitSource("101")
        with pytest.raises(BitSourceExhaustedError) as excinfo:
            source.next_bits(5)
        assert source.position == 3
        assert excinfo.value.served == 3

    def test_scripted_words(self):
        source = ScriptedBitSource("0110 1")
        assert source.next_bits(0) == 0 and source.position == 0
        assert source.next_bits(3) == 0b011
        assert source.next_bits(2) == 0b01  # ends exactly at the end
        assert source.position == 5
        assert source.next_bits(0) == 0 and source.position == 5
        with pytest.raises(BitSourceExhaustedError) as excinfo:
            source.next_bits(1)
        assert excinfo.value.served == 0

    def test_scripted_word_runs_past_the_end(self):
        source = ScriptedBitSource("110 01")
        assert source.next_bits(2) == 0b11
        with pytest.raises(BitSourceExhaustedError) as excinfo:
            source.next_bits(4)
        assert source.position == 5
        assert excinfo.value.served == 3

    def test_system_words_are_the_one_bit_stream(self, monkeypatch):
        # A fixed byte stream stands in for os.urandom: next_bits(k), with
        # one-bit words interleaved, serves its bits most significant
        # first per byte.
        for seed in range(5):
            data = random.Random(seed).randbytes(512)
            monkeypatch.setattr(sampling, "os", SimpleNamespace(urandom=io.BytesIO(data).read))
            words, reference = SystemBitSource(), iter("".join(f"{b:08b}" for b in data))
            for k in (0, 1, 7, 8, 9, 13, 64, 2047):
                expected = int("0" + "".join(itertools.islice(reference, k)), 2)
                assert words.next_bits(k) == expected, (seed, k)
                assert words.next_bits(1) == int(next(reference))

    def test_a_bare_subclass_serves_empty_words_only(self):
        # A subclass that defines neither next_bits nor _fresh_bits serves
        # the empty word and has no bits to refill from.
        class Bare(BitSource):
            pass

        source = Bare()
        assert source.next_bits(0) == 0
        with pytest.raises(NotImplementedError):
            source.next_bits(1)
        assert source._remaining == 0

    def test_negative_bit_counts_are_refused(self):
        for source in (SeededBitSource(1), SystemBitSource(), ScriptedBitSource("101")):
            with pytest.raises(ValueError):
                source.next_bits(-1)
            assert source.next_bits(3) >= 0
        assert source.position == 3

    def test_a_source_implements_next_bits_alone(self):
        class Counter(BitSource):
            # Serves the bits of 0, 1, 2, ... as 3-bit words.
            def __init__(self):
                self.bits = "".join(f"{i:03b}" for i in range(8))

            def next_bits(self, k):
                word, self.bits = self.bits[:k], self.bits[k:]
                return int("0" + word, 2)

        source = Counter()
        assert [source.next_bits(1) for _ in range(6)] == [0, 0, 0, 0, 0, 1]
        assert source.next_bits(3) == 2

    def test_system_source_yields_bits(self):
        source = SystemBitSource()
        bits = [source.next_bits(1) for _ in range(100)]
        assert set(bits) <= {0, 1}



def _bit_string(value, k):
    return f"{value:0{k}b}" if k else ""


def _patch_urandom(monkeypatch, data):
    monkeypatch.setattr(sampling, "os", SimpleNamespace(urandom=io.BytesIO(data).read))


class TestBlockRefills:
    """Words that end just before, on and just past a refill block."""

    def word_plans(self):
        block = sampling._REFILL_BITS
        sizes = (0, 1, block - 1, block, block + 1, 3 * block + 5)
        # Each size on a fresh source lines its end up with the first block;
        # the whole run on one source meets the later blocks off alignment.
        return [(k,) for k in sizes] + [sizes, sizes[::-1]]

    def test_seeded_words_across_refills(self):
        for seed in range(3):
            for plan in self.word_plans():
                words, reference = SeededBitSource(seed), random.Random(seed)
                for k in plan:
                    expected = 0
                    for _ in range(k):
                        expected = expected << 1 | reference.getrandbits(1)
                    assert words.next_bits(k) == expected, (seed, plan, k)
                    assert words.next_bits(1) == reference.getrandbits(1)

    def test_system_words_across_refills(self, monkeypatch):
        for seed in range(3):
            data = random.Random(seed).randbytes(8 * sampling._REFILL_BITS)
            for plan in self.word_plans():
                _patch_urandom(monkeypatch, data)
                words, reference = SystemBitSource(), iter("".join(f"{b:08b}" for b in data))
                for k in plan:
                    expected = int("0" + "".join(itertools.islice(reference, k)), 2)
                    assert words.next_bits(k) == expected, (seed, plan, k)
                    assert words.next_bits(1) == int(next(reference))

    @pytest.mark.parametrize("k", [0.5, 3000.5])
    def test_a_failed_word_leaves_the_stream_intact(self, monkeypatch, k):
        # 0.5 fails after a refill, 3000.5 before it; either way the next
        # word is the stream's first.
        data = random.Random(7).randbytes(8 * sampling._REFILL_BITS)
        script = "".join(f"{b:08b}" for b in data)
        assert SeededBitSource(1).next_bits(8) == 120
        for make, first in (
            (lambda: SeededBitSource(1), 120),
            (SystemBitSource, data[0]),
            (lambda: ScriptedBitSource(script), data[0]),
        ):
            _patch_urandom(monkeypatch, data)
            source = make()
            with pytest.raises(TypeError):
                source.next_bits(k)
            assert source.next_bits(8) == first

    def test_scripted_words_across_refills(self):
        # A script of the first bits of a seeded stream, not a whole number
        # of blocks and longer than every plan: both sources cut the same
        # words through the one next_bits, then the script runs dry.
        length = 7 * sampling._REFILL_BITS + 3
        for seed in range(3):
            script = _bit_string(SeededBitSource(seed).next_bits(length), length)
            for plan in self.word_plans():
                scripted, seeded = ScriptedBitSource(script), SeededBitSource(seed)
                for k in plan:
                    assert scripted.next_bits(k) == seeded.next_bits(k), (seed, plan, k)
                left = length - scripted.position
                with pytest.raises(BitSourceExhaustedError) as excinfo:
                    scripted.next_bits(left + 1)
                assert excinfo.value.served == left
                assert scripted.position == length

    def test_word_splits_serve_one_bit_string(self, monkeypatch):
        # Same seed (or same bytes), different word sizes: one bit string.
        block = sampling._REFILL_BITS
        total = 4 * block + 77
        rng = random.Random(5)
        # Repeated cuts give zero-bit words; the cut at `block` ends a word
        # exactly where the first refill's bits run out.
        cuts = sorted(rng.sample(range(1, total), 40) + [block, 2 * block + 3] * 2)
        splits = [
            [total],
            [1] * total,
            [b - a for a, b in zip([0] + cuts, cuts + [total])],
        ]
        assert 0 in splits[2]
        data = random.Random(6).randbytes(2 * total)
        for make in (lambda: SeededBitSource(77), SystemBitSource):
            streams = set()
            for sizes in splits:
                _patch_urandom(monkeypatch, data)
                source = make()
                streams.add("".join(_bit_string(source.next_bits(k), k) for k in sizes))
            assert len(streams) == 1
            assert len(streams.pop()) == total


# Seeded samples pinned before sources read their generators in blocks:
# 500 draws per method on one source, covering residues and ledgers for
# word sizes of 8 to 512 bits.
_P256 = 88158333340229937261593647823874259445698326079331861632479618699380104575023
_Q256 = 101330544341850623656857788140682675093887660717318082466630834864978534576941
_PIN_MODULI = {
    "15015": "3*5*7*11*13",
    "8064": "2^7 * 3^2 * 7",
    "semiprime512": f"{_P256}*{_Q256}",
}
_SAMPLE_PINS = [
    (
        "15015",
        "index",
        "51acf6cbda55483bfb0ca0ba35d948c0d81669de3c7f265e9a53a4a7a6c703b8",
    ),
    (
        "15015",
        "classical",
        "44491ca3580f4de8c753aef4df99afb3dd56b6876fa34a089df839321876f264",
    ),
    (
        "8064",
        "index",
        "2b9d1ba86fba4ca6e0a38977f044667c5622c2d677633c5aaff50d2b93f4bb06",
    ),
    (
        "8064",
        "classical",
        "e08bfb6f6fb69b2c1ad6dc07e6e104f7c5787d5383c352eb3a85ec1ab5a16efc",
    ),
    (
        "semiprime512",
        "index",
        "917d85f76e9c7a3f722e412d42a2a0461a78d449ad518f710bd5130e923db248",
    ),
    (
        "semiprime512",
        "classical",
        "c2facdf5eebdd2cf225f3aee2d967ff7731928d1e78d38200c235e3409bacc99",
    ),
]


def _sample_digest(modulus, method, draws=500, seed=2018):
    sample = {"index": sample_residue_by_index, "classical": sample_residue_classical}[method]
    m = parse_factorization(_PIN_MODULI[modulus])
    source = SeededBitSource(seed)
    digest = hashlib.sha256()
    for _ in range(draws):
        z, ledger = sample(m, source)
        digest.update(f"{z} {ledger.bits_consumed} {ledger.attempts}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("modulus,method,pin", _SAMPLE_PINS)
def test_seeded_samples_are_pinned(modulus, method, pin):
    assert _sample_digest(modulus, method) == pin


@pytest.mark.parametrize(
    "factors",
    ["3*5*7*11*13", "2^7 * 3^2 * 7", "3^5 * 5^3 * 7^2", "2^12", "2^3 * 3", f"{_P256}*{_Q256}"],
    ids=["15015", "8064", "powers", "2^12", "24", "semiprime512"],
)
def test_index_sampler_matches_the_decode_index_path(factors):
    # The sampler decodes the drawn value directly; the reference adds 1
    # and goes through decode_index.  |QR(24)| = 1, so that one draws no bits.
    # Both read the modulus' residue table when it has one (15015, 8064,
    # 2^12, 24), so a third stream decodes its draws by the per-part squares.
    m = parse_factorization(factors)
    fast, slow, arithmetic = SeededBitSource(2018), SeededBitSource(2018), SeededBitSource(2018)
    for i in range(2000):
        drawn = sample_residue_by_index(m, fast)
        assert drawn == sample_residue_by_index_reference(m, slow), i
        ledger = RandomBitLedger()
        value = draw_uniform(index_space_size(m), arithmetic, ledger)
        assert drawn == (indexing._decode_sum(m, value), ledger), i
    assert fast.next_bits(64) == slow.next_bits(64) == arithmetic.next_bits(64)


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

    @pytest.mark.parametrize("n", [2.5, 2.0, 0.5, "3", None])
    def test_non_integer_range_is_a_type_error(self, n):
        ledger, source = RandomBitLedger(), ScriptedBitSource("0101")
        with pytest.raises(TypeError):
            draw_uniform(n, source, ledger)
        assert ledger == RandomBitLedger()
        assert source.position == 0
        # A sampler's range is its modulus: one of the wrong type draws nothing.
        for sample in (sample_residue_by_index, sample_residue_classical):
            with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got str"):
                sample("x", source)
        assert source.position == 0

    @pytest.mark.parametrize("ledger", [None, object(), "ledger"], ids=["None", "object", "str"])
    def test_ledger_without_totals_is_a_type_error_and_draws_nothing(self, ledger):
        # The ledger is read before the first word: the source keeps its
        # fresh stream, as if the call had not been made.
        source = SeededBitSource(1)
        with pytest.raises(TypeError, match=f"^ledger must be a RandomBitLedger, got {type(ledger).__name__}$"):
            draw_uniform(180, source, ledger)
        assert source.next_bits(16) == SeededBitSource(1).next_bits(16)

    @pytest.mark.parametrize("start", [(0, 0), (1000, 7)], ids=["fresh", "running"])
    @pytest.mark.parametrize("j", [1, 2, 5, 128])
    def test_ledger_is_exact_on_every_exit(self, j, start):
        # Range 5 draws 3-bit words: 111 = 7 is rejected, 010 = 2 accepted.
        # Each exit comes on attempt j, which counts; the ledger adds to
        # the totals it already holds.
        exits = [
            (ScriptedBitSource("111" * (j - 1) + "010"), None, 3 * j),
            (ScriptedBitSource("111" * (j - 1) + "01"), BitSourceExhaustedError, 3 * (j - 1) + 2),
            (_FailsOnAttempt(j), RuntimeError, 3 * (j - 1)),
        ]
        for source, error, bits in exits:
            ledger = RandomBitLedger(*start)
            if error is None:
                assert draw_uniform(5, source, ledger) == 2
            else:
                with pytest.raises(error) as excinfo:
                    draw_uniform(5, source, ledger)
                assert type(excinfo.value) is error
            assert ledger == RandomBitLedger(start[0] + bits, start[1] + j), error

    def test_rejection_cap_adds_to_a_running_ledger(self):
        ledger, source = RandomBitLedger(1000, 7), ScriptedBitSource("111" * 130)
        with pytest.raises(RejectionLimitError):
            draw_uniform(5, source, ledger)
        assert ledger == RandomBitLedger(1000 + 128 * 3, 7 + 128)
        assert source.position == 128 * 3

    def test_ledger_is_a_slotted_dataclass(self):
        assert RandomBitLedger.__match_args__ == ("bits_consumed", "attempts")
        assert RandomBitLedger.__slots__ == ("bits_consumed", "attempts")
        ledger = RandomBitLedger(5, 2)
        assert ledger == RandomBitLedger(bits_consumed=5, attempts=2)
        assert ledger != RandomBitLedger(5, 3)
        assert RandomBitLedger() == RandomBitLedger(0, 0)
        assert repr(ledger) == "RandomBitLedger(bits_consumed=5, attempts=2)"
        ledger.attempts += 1
        assert ledger.attempts == 3
        with pytest.raises(AttributeError):
            ledger.bits = 1


class _FailsOnAttempt(BitSource):
    """Serves all-ones words, then raises RuntimeError on call j."""

    def __init__(self, j):
        self.left = j - 1

    def next_bits(self, k):
        if not self.left:
            raise RuntimeError("source failed")
        self.left -= 1
        return (1 << k) - 1


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

    def test_cap_grows_with_n_over_phi(self):
        # N = 15: the cap is 128 * ceil(14/8) = 256 rounds.  Range 14 uses
        # 4-bit words; 0010 = 2 gives x = 3, not a unit, and 0000 gives x = 1.
        source = ScriptedBitSource("0010" * 128 + "0000")
        z, ledger = sample_residue_classical(parse_factorization("3*5"), source)
        assert z == 1
        assert ledger == RandomBitLedger(bits_consumed=516, attempts=129)

    def test_cap_leaves_an_exact_ledger(self, monkeypatch):
        ledgers = []

        def recording_ledger():
            ledgers.append(RandomBitLedger())
            return ledgers[-1]

        monkeypatch.setattr(sampling, "RandomBitLedger", recording_ledger)
        source = ScriptedBitSource("0010" * 256 + "0000")
        with pytest.raises(RejectionLimitError, match="^no unit modulo 15 within 256 attempts$"):
            sample_residue_classical(parse_factorization("3*5"), source)
        assert ledgers == [RandomBitLedger(bits_consumed=1024, attempts=256)]
        assert source.position == 1024

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

    def test_float_seed_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            compare_bit_budgets(parse_factorization("3*5"), 1, 1.5)
        with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got NoneType$"):
            compare_bit_budgets(None, 5, 1)

    @pytest.mark.parametrize("n_samples", ["3", 3.0])
    def test_non_integer_sample_count_is_a_type_error(self, n_samples):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            compare_bit_budgets(parse_factorization("3*5"), n_samples, 1)

    def test_string_seed_is_a_type_error(self):
        # The classical stream's seed + 1 must not be built from the string first.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            compare_bit_budgets(parse_factorization("3*5"), 1, "1")

    def test_big_modulus_floor_is_finite(self):
        # The floor must not overflow on moduli far past float range.
        m = parse_factorization("2^4099")
        report, _ = compare_bit_budgets(m, 1, seed=9)
        assert report.theoretical_floor == 4096.0


def test_sample_report_is_frozen():
    report = SampleReport("index", 1, 2, 1, 2.0, 1.0)
    with pytest.raises(AttributeError):
        report.samples = 5


class _Constant(BitSource):
    """Serves every word as the same value, cut to k bits."""

    def __init__(self, value):
        self.value = value

    def next_bits(self, k):
        return self.value & ((1 << k) - 1)


# 10**5000 has 16,610 bits, past the default int/str limit of 4,300 digits.
_HUGE = 10**5000


@pytest.mark.parametrize(
    "call,error,text",
    [
        (
            lambda: draw_uniform(_HUGE, _Constant(-1), RandomBitLedger()),
            RejectionLimitError,
            "no draw below <16610-bit integer> within 128 attempts",
        ),
        (
            lambda: draw_uniform(-_HUGE, _Constant(0), RandomBitLedger()),
            ValueError,
            "range must be positive, got <16610-bit negative integer>",
        ),
        (
            # x = 2 every round, never a unit; ceil((N-1)/phi(N)) = 2.
            lambda: sample_residue_classical(parse_factorization("2^16000"), _Constant(1)),
            RejectionLimitError,
            "no unit modulo <16001-bit integer> within 256 attempts",
        ),
        (
            lambda: SeededBitSource(_HUGE),
            ValueError,
            "seed must fit in 64 bits, got <16610-bit integer>",
        ),
        (
            lambda: SeededBitSource(1).next_bits(-_HUGE),
            ValueError,
            "bit count must be >= 0, got <16610-bit negative integer>",
        ),
        (
            lambda: SystemBitSource().next_bits(-_HUGE),
            ValueError,
            "bit count must be >= 0, got <16610-bit negative integer>",
        ),
        (
            lambda: ScriptedBitSource("01").next_bits(-_HUGE),
            ValueError,
            "bit count must be >= 0, got <16610-bit negative integer>",
        ),
        (
            lambda: compare_bit_budgets(parse_factorization("3*5"), -_HUGE, 1),
            ValueError,
            "sample count must be positive, got <16610-bit negative integer>",
        ),
        (
            lambda: enumerate_qr(_HUGE),
            ValueError,
            "modulus <16610-bit integer> exceeds the enumeration cap 1000000",
        ),
        (
            lambda: enumerate_qr(-_HUGE),
            ValueError,
            "modulus must be >= 2, got <16610-bit negative integer>",
        ),
        (
            lambda: factor_trial_division(_HUGE),
            FactorizationError,
            "refusing trial division above 1000000, got <16610-bit integer>",
        ),
        (
            lambda: factor_trial_division(-_HUGE),
            FactorizationError,
            "modulus must be >= 2, got <16610-bit negative integer>",
        ),
    ],
    ids=[
        "draw-cap", "draw-range", "classical-cap", "seed", "seeded-bit-count",
        "system-bit-count", "scripted-bit-count", "sample-count", "enumerate-cap",
        "enumerate-range", "trial-division-cap", "trial-division-range",
    ],
)
def test_messages_name_huge_integers_by_bit_length(default_int_str_limit, call, error, text):
    # Past the int/str limit, str(n) itself would raise the interpreter's
    # ValueError in place of the library's error.
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == text
