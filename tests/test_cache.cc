/**
 * @file
 * Unit tests for the set-associative cache (shared L3) and its
 * replacement policies, including a parameterized sweep over
 * associativities and a differential test against a timestamp-scan
 * reference model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cache/replacement.hh"
#include "cache/set_assoc_cache.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

TEST(ReplacementTest, PrefersInvalidWays)
{
    Rng rng(1);
    std::vector<WayMeta> ways(4);
    ways[0].valid = true;
    ways[1].valid = false;
    ways[2].valid = true;
    ways[3].valid = true;
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Lru, rng), 1u);
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Random, rng), 1u);
}

TEST(ReplacementTest, LruPicksOldest)
{
    Rng rng(1);
    std::vector<WayMeta> ways(4);
    for (std::uint32_t w = 0; w < 4; ++w) {
        ways[w].valid = true;
        ways[w].lastUse = 100 + w;
    }
    ways[2].lastUse = 5;
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Lru, rng), 2u);
}

TEST(ReplacementTest, RandomCoversAllWays)
{
    Rng rng(2);
    std::vector<WayMeta> ways(4);
    for (auto &w : ways)
        w.valid = true;
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(chooseVictim(ways, ReplPolicy::Random, rng));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(SetAssocCacheTest, MissThenHit)
{
    SetAssocCache cache("t", 16 << 10, 4, 24);
    EXPECT_FALSE(cache.access(100, false).hit);
    EXPECT_TRUE(cache.access(100, false).hit);
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
}

TEST(SetAssocCacheTest, GeometryDerivation)
{
    SetAssocCache cache("t", 64 << 10, 16, 24);
    EXPECT_EQ(cache.numSets(), 64u);
    EXPECT_EQ(cache.numWays(), 16u);
    EXPECT_EQ(cache.capacityBytes(), 64u << 10);
}

TEST(SetAssocCacheTest, DirtyEvictionProducesWriteback)
{
    // 1-way cache: second line to the same set evicts the first.
    SetAssocCache cache("t", 64 * 64, 1, 24); // 64 sets, direct-mapped
    cache.access(7, true);                    // dirty
    const auto res = cache.access(7 + 64, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.hasWriteback);
    EXPECT_EQ(res.writebackLine, 7u);
    EXPECT_EQ(cache.writebacks().value(), 1u);
}

TEST(SetAssocCacheTest, CleanEvictionSilent)
{
    SetAssocCache cache("t", 64 * 64, 1, 24);
    cache.access(7, false); // clean
    const auto res = cache.access(7 + 64, false);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.hasWriteback);
}

TEST(SetAssocCacheTest, WriteMarksDirtyOnHit)
{
    SetAssocCache cache("t", 64 * 64, 1, 24);
    cache.access(7, false); // clean fill
    cache.access(7, true);  // dirty it
    const auto res = cache.access(7 + 64, false);
    ASSERT_TRUE(res.hasWriteback);
}

TEST(SetAssocCacheTest, LruOrderWithinSet)
{
    // 2-way: A, B, touch A, insert C -> B evicted.
    SetAssocCache cache("t", 2 * 64 * 64, 2, 24); // 64 sets, 2-way
    const LineAddr a = 3, b = 3 + 64, c = 3 + 128;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false); // A most recent
    cache.access(c, false); // evicts B
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(SetAssocCacheTest, ProbeDoesNotAllocateOrTouch)
{
    SetAssocCache cache("t", 2 * 64 * 64, 2, 24);
    EXPECT_FALSE(cache.probe(42));
    EXPECT_EQ(cache.misses().value(), 0u);
    cache.access(42, false);
    EXPECT_TRUE(cache.probe(42));
}

TEST(SetAssocCacheTest, InvalidateReportsDirty)
{
    SetAssocCache cache("t", 16 << 10, 4, 24);
    cache.access(10, true);
    cache.access(11, false);
    EXPECT_TRUE(cache.invalidate(10));
    EXPECT_FALSE(cache.invalidate(11));
    EXPECT_FALSE(cache.invalidate(12)); // absent
    EXPECT_FALSE(cache.probe(10));
}

/** what() of the std::invalid_argument the geometry throws, or "". */
std::string
geometryError(std::uint64_t capacity_bytes, std::uint32_t ways)
{
    try {
        SetAssocCache cache("t", capacity_bytes, ways, 24);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(SetAssocCacheTest, RejectsZeroWays)
{
    EXPECT_NE(geometryError(64 << 10, 0).find("associativity 0"),
              std::string::npos);
}

TEST(SetAssocCacheTest, RejectsWaysAboveMax)
{
    const std::uint32_t ways = SetAssocCache::kMaxWays + 1;
    EXPECT_NE(geometryError(64ull * 64 * ways, ways).find("outside 1..32"),
              std::string::npos);
}

TEST(SetAssocCacheTest, RejectsZeroSets)
{
    // 512 bytes at 16 ways is half a set.
    EXPECT_NE(geometryError(512, 16).find("gives 0 sets"), std::string::npos);
}

TEST(SetAssocCacheTest, RejectsNonPowerOfTwoSets)
{
    EXPECT_NE(geometryError(3 * 64 * 16, 16).find("gives 3 sets"),
              std::string::npos);
}

TEST(SetAssocCacheTest, HitLatencyStored)
{
    SetAssocCache cache("t", 16 << 10, 4, 42);
    EXPECT_EQ(cache.hitLatency(), 42u);
}

/** Parameterized sweep: the cache retains a working set that fits,
 *  at every associativity. */
using CacheWaysTest = ::testing::TestWithParam<std::uint32_t>;

TEST_P(CacheWaysTest, RetainsFittingWorkingSet)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache cache("t", 64ull * 64 * ways, ways, 24);
    // Working set = exactly the cache capacity, touched twice.
    const std::uint64_t lines = cache.numSets() * ways;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i, false);
    const std::uint64_t misses_before = cache.misses().value();
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i, false);
    EXPECT_EQ(cache.misses().value(), misses_before);
    EXPECT_EQ(cache.hits().value(), lines);
}

TEST_P(CacheWaysTest, EvictsWhenOverCommitted)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache cache("t", 64ull * 64 * ways, ways, 24);
    const std::uint64_t lines = cache.numSets() * ways;
    // Touch twice the capacity cyclically: second pass must miss
    // (LRU worst case for cyclic reuse).
    for (std::uint64_t i = 0; i < 2 * lines; ++i)
        cache.access(i, false);
    const std::uint64_t misses_before = cache.misses().value();
    cache.access(0, false);
    EXPECT_EQ(cache.misses().value(), misses_before + 1);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheWaysTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u, 32u));

TEST(LaneMaskTest, ExtractMatchesBitLoop)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t lo = rng() & 0x8080808080808080ULL;
        const std::uint64_t hi = rng() & 0x8080808080808080ULL;
        std::uint32_t expect = 0;
        for (unsigned lane = 0; lane < 16; ++lane) {
            const std::uint64_t word = lane < 8 ? lo : hi;
            const std::uint64_t top = word >> (8 * (lane % 8) + 7);
            expect |= static_cast<std::uint32_t>(top & 1) << lane;
        }
        ASSERT_EQ(laneMask16(lo, hi), expect);
        ASSERT_EQ(laneHighBits(lo) | laneHighBits(hi) << 8, expect);
    }
}

/**
 * The cache as it was before its lookup rows: per-way WayMeta
 * timestamps scanned by chooseVictim. Saves the same record stream as
 * SetAssocCache, so the two images compare byte for byte.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t sets, std::uint32_t ways, ReplPolicy policy,
                   std::uint64_t seed)
        : sets_(sets), ways_(ways), policy_(policy), rng_(seed),
          meta_(sets * ways), tags_(sets * ways), dirty_(sets * ways)
    {
    }

    CacheAccessResult access(LineAddr line, bool is_write)
    {
        const std::uint64_t set = line % sets_;
        const LineAddr tag = line / sets_;
        ++clock_;
        std::uint32_t w = find(set, tag);
        if (w < ways_) {
            const std::size_t i = set * ways_ + w;
            meta_[i].lastUse = clock_;
            dirty_[i] = dirty_[i] || is_write;
            ++hits;
            return CacheAccessResult{0, true, false};
        }
        ++misses;
        const std::span<const WayMeta> metas(&meta_[set * ways_], ways_);
        w = chooseVictim(metas, policy_, rng_);
        if (policy_ == ReplPolicy::Lru && metas[w].valid) {
            std::uint32_t same = 0;
            for (const WayMeta &m : metas)
                same += m.lastUse == metas[w].lastUse;
            tiedEvictions += same > 1;
        }
        const std::size_t i = set * ways_ + w;
        CacheAccessResult result{0, false, false};
        if (meta_[i].valid && dirty_[i]) {
            result.writebackLine = tags_[i] * sets_ + set;
            result.hasWriteback = true;
            ++writebacks;
        }
        tags_[i] = tag;
        dirty_[i] = is_write;
        meta_[i] = WayMeta{true, clock_};
        return result;
    }

    bool probe(LineAddr line) const
    {
        return find(line % sets_, line / sets_) < ways_;
    }

    bool invalidate(LineAddr line)
    {
        const std::uint64_t set = line % sets_;
        const std::uint32_t w = find(set, line / sets_);
        if (w == ways_)
            return false;
        const std::size_t i = set * ways_ + w;
        const bool was_dirty = dirty_[i];
        meta_[i].valid = false;
        dirty_[i] = false;
        return was_dirty;
    }

    void save(SnapshotWriter &w) const
    {
        w.u64(sets_);
        w.u32(ways_);
        w.u64(clock_);
        for (const std::uint64_t s : rng_.state())
            w.u64(s);
        for (std::size_t i = 0; i < meta_.size(); ++i) {
            w.u64(tags_[i]);
            w.b(dirty_[i]);
            w.b(meta_[i].valid);
            w.u64(meta_[i].lastUse);
        }
    }

    /**
     * Perturb the state into another well-formed image: timestamps
     * rounded down to a multiple of 2..8 (ties among valid ways, all
     * still at most the use clock), some valid lines dropped, some
     * dirty bits flipped.
     */
    void scramble(Rng &rng)
    {
        const std::uint64_t q = 2 + rng.next(7);
        for (std::size_t i = 0; i < meta_.size(); ++i) {
            meta_[i].lastUse -= meta_[i].lastUse % q;
            if (!meta_[i].valid)
                continue;
            if (rng.chance(0.1)) {
                meta_[i].valid = false;
                dirty_[i] = false;
            } else if (rng.chance(0.2)) {
                dirty_[i] = !dirty_[i];
            }
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** LRU evictions whose victim shared its timestamp with another
     *  way, so the tie-break decided them. */
    std::uint64_t tiedEvictions = 0;

  private:
    /** Way holding @p tag validly in @p set, else ways_. */
    std::uint32_t find(std::uint64_t set, LineAddr tag) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::size_t i = set * ways_ + w;
            if (meta_[i].valid && tags_[i] == tag)
                return w;
        }
        return ways_;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    ReplPolicy policy_;
    Rng rng_;
    std::uint64_t clock_ = 0;
    std::vector<WayMeta> meta_;
    std::vector<LineAddr> tags_;
    std::vector<bool> dirty_;
};

template <typename Cache>
std::vector<std::uint8_t>
image(const Cache &cache)
{
    SnapshotWriter w;
    w.beginSection("l3");
    cache.save(w);
    w.endSection();
    return w.finish();
}

constexpr std::uint64_t kSets = 8;

std::unique_ptr<SetAssocCache>
makeCache(std::uint32_t ways, ReplPolicy policy, std::uint64_t seed)
{
    return std::make_unique<SetAssocCache>("t", kSets * 64 * ways, ways, 24,
                                           policy, seed);
}

using CacheDifferentialTest =
    ::testing::TestWithParam<std::tuple<std::uint32_t, ReplPolicy>>;

/**
 * Random skewed streams of reads, writes, probes and invalidates, with
 * checkpoints at random points: the cache continues from its own image
 * or from a scrambled reference image, restored into a fresh instance
 * whose RNG seed differs. Every result, every counter and every image
 * must equal the reference's.
 */
TEST_P(CacheDifferentialTest, MatchesTimestampReference)
{
    const std::uint32_t ways = std::get<0>(GetParam());
    const ReplPolicy policy = std::get<1>(GetParam());
    auto cache = makeCache(ways, policy, 7);
    ReferenceCache ref(kSets, ways, policy, 7);
    Rng rng(1000 + ways);
    std::uint64_t base_hits = 0;
    std::uint64_t base_misses = 0;
    std::uint64_t base_writebacks = 0;
    std::uint64_t checkpoints = 0;

    for (int op = 0; op < 30000; ++op) {
        // Hot tags are drawn skewed toward small values; cold ones
        // from a wide range, so 8-bit fingerprints collide often.
        const std::uint64_t set = rng.next(rng.next(kSets) + 1);
        LineAddr tag = rng.next(std::uint64_t{1} << 40);
        if (rng.chance(0.7))
            tag = rng.next(rng.next(3 * ways) + 1);
        const LineAddr line = tag * kSets + set;
        const std::uint64_t kind = rng.next(100);
        if (kind < 85) {
            const bool is_write = kind >= 60;
            const CacheAccessResult got = cache->access(line, is_write);
            const CacheAccessResult want = ref.access(line, is_write);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.hasWriteback, want.hasWriteback) << "op " << op;
            ASSERT_EQ(got.writebackLine, want.writebackLine) << "op " << op;
        } else if (kind < 95) {
            ASSERT_EQ(cache->probe(line), ref.probe(line)) << "op " << op;
        } else {
            const bool dirty = ref.invalidate(line);
            ASSERT_EQ(cache->invalidate(line), dirty) << "op " << op;
        }

        if (rng.next(400) != 0)
            continue;
        ++checkpoints;
        ASSERT_EQ(image(*cache), image(ref)) << "op " << op;
        base_hits += cache->hits().value();
        base_misses += cache->misses().value();
        base_writebacks += cache->writebacks().value();
        if (rng.chance(0.4))
            ref.scramble(rng);
        SnapshotReader r;
        ASSERT_TRUE(r.open(image(ref))) << r.error();
        ASSERT_TRUE(r.enterSection("l3"));
        cache = makeCache(ways, policy, 100 + op);
        cache->restore(r);
        ASSERT_TRUE(r.ok()) << r.error();
        ASSERT_TRUE(r.leaveSection()) << r.error();
    }

    EXPECT_EQ(base_hits + cache->hits().value(), ref.hits);
    EXPECT_EQ(base_misses + cache->misses().value(), ref.misses);
    EXPECT_EQ(base_writebacks + cache->writebacks().value(), ref.writebacks);
    EXPECT_EQ(image(*cache), image(ref));

    // Guards on the stream itself: it must reach the cases it exists
    // to compare.
    EXPECT_GE(checkpoints, 20u);
    EXPECT_GT(ref.hits, 1000u);
    EXPECT_GT(ref.writebacks, 100u);
    if (policy == ReplPolicy::Lru && ways > 1) {
        EXPECT_GT(ref.tiedEvictions, 0u);
    }
}

std::string
differentialName(
    const ::testing::TestParamInfo<CacheDifferentialTest::ParamType> &info)
{
    const bool lru = std::get<1>(info.param) == ReplPolicy::Lru;
    return std::to_string(std::get<0>(info.param)) + "Way" +
           (lru ? "Lru" : "Random");
}

const auto kDiffWays = ::testing::Values(1u, 2u, 3u, 8u, 12u, 16u, 32u);
const auto kDiffPolicies =
    ::testing::Values(ReplPolicy::Lru, ReplPolicy::Random);

INSTANTIATE_TEST_SUITE_P(WaysAndPolicies, CacheDifferentialTest,
                         ::testing::Combine(kDiffWays, kDiffPolicies),
                         differentialName);

} // namespace
} // namespace cameo
