#include "cache/set_assoc_cache.hh"

#include <algorithm>
#include <stdexcept>

#include "util/bitops.hh"

namespace cameo
{

namespace
{

/** Set count of the geometry, or std::invalid_argument naming why it
 *  cannot be built. Runs before any member that divides by it. */
std::uint64_t
checkedSetCount(const std::string &name, std::uint64_t capacity_bytes,
                std::uint32_t ways)
{
    if (ways == 0 || ways > SetAssocCache::kMaxWays)
        throw std::invalid_argument(
            "cache '" + name + "': associativity " + std::to_string(ways) +
            " is outside 1.." + std::to_string(SetAssocCache::kMaxWays));
    const std::uint64_t sets = capacity_bytes / kLineBytes / ways;
    if (!isPowerOfTwo(sets))
        throw std::invalid_argument(
            "cache '" + name + "': " + std::to_string(capacity_bytes) +
            " bytes at " + std::to_string(ways) + " ways gives " +
            std::to_string(sets) +
            " sets; the set count must be a nonzero power of two");
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity_bytes,
                             std::uint32_t ways, Tick hit_latency,
                             ReplPolicy policy, std::uint64_t seed)
    : name_(std::move(name)), ways_(ways),
      numSets_(checkedSetCount(name_, capacity_bytes, ways)),
      setMask_(numSets_ - 1), setShift_(exactLog2(numSets_)),
      wide_(ways > 16),
      waysMask_(ways == 32 ? ~std::uint32_t{0} : (1u << ways) - 1),
      lruLanes_(kLaneOnes * (ways - 1)), hitLatency_(hit_latency),
      policy_(policy), rng_(seed),
      hits_(name_ + ".hits", "cache hits"),
      misses_(name_ + ".misses", "cache misses"),
      writebacks_(name_ + ".writebacks", "dirty evictions")
{
    rows_.resize(numSets_);
    tags_.resize(numSets_ * ways_);
    lastUse_.resize(numSets_ * ways_);
    validMask_.resize(numSets_);
    dirtyMask_.resize(numSets_);
    for (std::uint64_t set = 0; set < numSets_; ++set)
        rebuildRow(set);
}

void
SetAssocCache::rebuildRow(std::uint64_t set)
{
    const LineAddr *tags = &tags_[set * ways_];
    const std::uint64_t *last_use = &lastUse_[set * ways_];
    Row &row = rows_[set];
    for (std::uint32_t w = 0; w < kMaxWays; ++w) {
        if (w >= ways_) {
            setLane(row.fp, w, 0);
            setLane(row.rank, w, kPadRank);
            continue;
        }
        // Rank = how many ways are more recent. A timestamp tie counts
        // the higher way as more recent, so the lowest tied way ranks
        // last — the way the timestamp scan would evict first.
        std::uint64_t rank = 0;
        for (std::uint32_t v = 0; v < ways_; ++v)
            rank += last_use[v] > last_use[w] ||
                    (last_use[v] == last_use[w] && v > w);
        setLane(row.fp, w, fingerprint(tags[w]));
        setLane(row.rank, w, rank);
    }
}

std::uint32_t
SetAssocCache::scanLruVictim(std::uint64_t set) const
{
    const std::uint64_t *last_use = &lastUse_[set * ways_];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (last_use[w] < last_use[victim])
            victim = w;
    }
    return victim;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return findWay(setOf(line), tagOf(line)) != 0;
}

bool
SetAssocCache::invalidate(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const std::uint32_t match = findWay(set, tagOf(line));
    if (match == 0)
        return false;
    // Only validity and dirtiness are dropped. The stale tag and
    // timestamp stay in the snapshot image, and the stale row lanes
    // are harmless: lookups mask candidates by validity, and an
    // invalid way is refilled before its rank is ever read.
    const bool was_dirty = (dirtyMask_[set] & match) != 0;
    validMask_[set] &= ~match;
    dirtyMask_[set] &= ~match;
    return was_dirty;
}

void
SetAssocCache::registerStats(StatRegistry &registry)
{
    registry.add(hits_);
    registry.add(misses_);
    registry.add(writebacks_);
}

void
SetAssocCache::save(SnapshotWriter &w) const
{
    w.u64(numSets_);
    w.u32(ways_);
    w.u64(useClock_);
    for (const std::uint64_t s : rng_.state())
        w.u64(s);
    // Same record stream as the historical array-of-structs layout:
    // set-major way order, tag / dirty / valid / lastUse per way.
    for (std::uint64_t i = 0; i < numSets_ * ways_; ++i) {
        const std::uint64_t set = i / ways_;
        const std::uint32_t bit = 1u << (i % ways_);
        w.u64(tags_[i]);
        w.b((dirtyMask_[set] & bit) != 0);
        w.b((validMask_[set] & bit) != 0);
        w.u64(lastUse_[i]);
    }
}

void
SetAssocCache::restore(SnapshotReader &r)
{
    const std::uint64_t nSets = r.u64();
    const std::uint32_t nWays = r.u32();
    if (!r.ok())
        return;
    if (nSets != numSets_ || nWays != ways_) {
        r.fail("cache: '" + name_ + "' geometry mismatch: snapshot has " +
               std::to_string(nSets) + " sets x " +
               std::to_string(nWays) + " ways, this cache has " +
               std::to_string(numSets_) + " x " + std::to_string(ways_));
        return;
    }
    useClock_ = r.u64();
    Rng::State rngState;
    for (std::uint64_t &s : rngState)
        s = r.u64();
    rng_.setState(rngState);
    std::fill(validMask_.begin(), validMask_.end(), 0u);
    std::fill(dirtyMask_.begin(), dirtyMask_.end(), 0u);
    for (std::uint64_t i = 0; i < numSets_ * ways_; ++i) {
        const std::uint64_t set = i / ways_;
        const std::uint32_t bit = 1u << (i % ways_);
        tags_[i] = r.u64();
        if (r.b())
            dirtyMask_[set] |= bit;
        if (r.b())
            validMask_[set] |= bit;
        lastUse_[i] = r.u64();
    }
    for (std::uint64_t set = 0; set < numSets_; ++set)
        rebuildRow(set);
}

} // namespace cameo
