/**
 * @file
 * Functional + latency model of a set-associative writeback cache.
 *
 * Used for the shared L3 (32MB, 16-way, 24 cycles in Table I; scaled
 * proportionally in the default configuration). The model is
 * trace-driven: an access returns hit/miss plus any victim that must be
 * written back; the caller (CpuCore/System) is responsible for timing
 * the resulting memory traffic.
 */

#ifndef CAMEO_CACHE_SET_ASSOC_CACHE_HH
#define CAMEO_CACHE_SET_ASSOC_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "cache/replacement.hh"
#include "check/audit.hh"
#include "snapshot/snapshot.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cameo
{

/**
 * Gather the high bit of each byte lane of @p x into bits 0..7 (lane i,
 * bits 8i..8i+7, to bit i). Every other bit of @p x must be clear. The
 * multiply places lane i's bit at 56+i and no two partial products
 * overlap, so nothing carries.
 */
constexpr std::uint32_t
laneHighBits(std::uint64_t x)
{
    return static_cast<std::uint32_t>((x * 0x0002040810204081ULL) >> 56);
}

/**
 * 16-lane laneHighBits over @p lo (lanes 0..7) and @p hi (lanes 8..15).
 * One pmovmskb where SSE2 is in the baseline (every x86-64 target).
 */
inline std::uint32_t
laneMask16(std::uint64_t lo, std::uint64_t hi)
{
#if defined(__SSE2__)
    return static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_set_epi64x(static_cast<long long>(hi),
                       static_cast<long long>(lo))));
#else
    return laneHighBits(lo) | laneHighBits(hi) << 8;
#endif
}

/**
 * Result of one cache access. Deliberately a 16-byte POD — this is
 * returned once per simulated access from the hottest function in the
 * simulator, and two registers beat a hidden sret buffer.
 */
struct CacheAccessResult
{
    /** Dirty victim line to write back; meaningful when hasWriteback. */
    LineAddr writebackLine = 0;

    /** True if the line was present. */
    bool hit = false;

    /** True when a dirty victim was evicted (miss path only). */
    bool hasWriteback = false;
};

/** A set-associative, write-allocate, writeback cache. */
class SetAssocCache
{
  public:
    /** Maximum supported associativity. */
    static constexpr std::uint32_t kMaxWays = 32;

    /**
     * @param name           Stat prefix, e.g. "l3".
     * @param capacity_bytes Total data capacity (power-of-two sets).
     * @param ways           Associativity, 1..kMaxWays.
     * @param hit_latency    Load-to-use latency in CPU cycles.
     * @param policy         Replacement policy (default LRU).
     * @param seed           RNG seed for the Random policy.
     * @throws std::invalid_argument when @p ways is out of range or
     *         the geometry does not give a power-of-two set count.
     */
    SetAssocCache(std::string name, std::uint64_t capacity_bytes,
                  std::uint32_t ways, Tick hit_latency,
                  ReplPolicy policy = ReplPolicy::Lru,
                  std::uint64_t seed = 1);

    SetAssocCache(const SetAssocCache &) = delete;
    SetAssocCache &operator=(const SetAssocCache &) = delete;

    /**
     * Access @p line; allocates on miss (write-allocate).
     *
     * Defined inline below — one call per simulated access in both
     * fidelity modes makes this the hottest function in the simulator.
     *
     * @param line     Line address (OS-physical).
     * @param is_write Marks the line dirty on hit or after allocation.
     * @return Hit/miss and any dirty victim to write back.
     */
    CacheAccessResult access(LineAddr line, bool is_write);

    /** Non-allocating presence check (no LRU update). */
    bool probe(LineAddr line) const;

    /** Drop @p line if present; returns true if it was dirty. */
    bool invalidate(LineAddr line);

    Tick hitLatency() const { return hitLatency_; }
    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t capacityBytes() const
    {
        return numSets_ * ways_ * kLineBytes;
    }

    void registerStats(StatRegistry &registry);

    /**
     * Checkpoint the tag/dirty/LRU arrays, the LRU use clock, and the
     * Random-policy RNG cursor. Geometry is structural; restore()
     * verifies it and flags @p r on mismatch. Counters travel in the
     * stats section, not here. The lookup rows are derived state:
     * restore() rebuilds them from the tags and timestamps.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &writebacks() const { return writebacks_; }

  private:
    static constexpr std::uint64_t kLaneOnes = 0x0101010101010101ULL;
    static constexpr std::uint64_t kLaneHigh = 0x8080808080808080ULL;

    /** Rank held by the padding lanes past ways_: above every real
     *  rank, so no move-to-front bumps it and no victim compare
     *  matches it. */
    static constexpr std::uint64_t kPadRank = 0x7f;

    /**
     * One set's lookup row, a byte lane per way (kMaxWays lanes; the
     * ones past ways_ are padding). fp holds an 8-bit fingerprint of
     * each way's tag; rank holds its recency rank, a permutation of
     * 0..ways_-1 with 0 the most recently used. Caches of up to 16
     * ways touch only the first two words of each array. One row is
     * one 64-byte host cache line.
     */
    struct alignas(64) Row
    {
        std::uint64_t fp[kMaxWays / 8];
        std::uint64_t rank[kMaxWays / 8];
    };

    std::uint64_t setOf(LineAddr line) const { return line & setMask_; }
    LineAddr tagOf(LineAddr line) const { return line >> setShift_; }

    /** 8-bit tag fingerprint: the top byte of a multiplicative hash,
     *  so tags that differ only in low bits still spread. */
    static std::uint64_t fingerprint(LineAddr tag)
    {
        return (tag * 0x9e3779b97f4a7c15ULL) >> 56;
    }

    /** High bit set in every byte lane of @p x that is zero. Exact:
     *  the low-seven-bit add cannot carry out of its lane. */
    static constexpr std::uint64_t zeroLanes(std::uint64_t x)
    {
        return ~(((x & ~kLaneHigh) + ~kLaneHigh) | x) & kLaneHigh;
    }

    /** Way mask of the lanes of @p words equal to the byte broadcast
     *  in every lane of @p lanes. */
    std::uint32_t lanesEqual(const std::uint64_t *words,
                             std::uint64_t lanes) const
    {
        std::uint32_t mask = laneMask16(zeroLanes(words[0] ^ lanes),
                                        zeroLanes(words[1] ^ lanes));
        if (wide_)
            mask |= laneMask16(zeroLanes(words[2] ^ lanes),
                               zeroLanes(words[3] ^ lanes))
                    << 16;
        return mask;
    }

    static std::uint64_t lane(const std::uint64_t *words, std::uint32_t w)
    {
        return (words[w / 8] >> (8 * (w % 8))) & 0xff;
    }

    static void setLane(std::uint64_t *words, std::uint32_t w,
                        std::uint64_t value)
    {
        const unsigned shift = 8 * (w % 8);
        words[w / 8] = (words[w / 8] & ~(std::uint64_t{0xff} << shift)) |
                       value << shift;
    }

    /**
     * Add one to every lane of @p word below the byte broadcast in
     * @p lanes. Ranks and the threshold stay below 0x80, so OR-ing in
     * each lane's high bit and subtracting the threshold cannot borrow
     * across lanes; a lane keeps its high bit exactly when its rank is
     * >= the threshold.
     */
    static void bumpBelow(std::uint64_t &word, std::uint64_t lanes)
    {
        word += (~((word | kLaneHigh) - lanes) & kLaneHigh) >> 7;
    }

    /** Make way @p w of @p row the most recently used: every way
     *  ranked ahead of it moves back one, and it takes rank 0. */
    void moveToFront(Row &row, std::uint32_t w) const
    {
        const std::uint64_t lanes = kLaneOnes * lane(row.rank, w);
        bumpBelow(row.rank[0], lanes);
        bumpBelow(row.rank[1], lanes);
        if (wide_) {
            bumpBelow(row.rank[2], lanes);
            bumpBelow(row.rank[3], lanes);
        }
        setLane(row.rank, w, 0);
    }

    /** One-hot way mask of @p tag in @p set if a valid way holds it,
     *  else 0. A fingerprint match is only a candidate; the full tag
     *  decides, so a collision is never a false hit. */
    std::uint32_t findWay(std::uint64_t set, LineAddr tag) const
    {
        const LineAddr *tags = &tags_[set * ways_];
        std::uint32_t cand =
            lanesEqual(rows_[set].fp, kLaneOnes * fingerprint(tag)) &
            validMask_[set];
        for (; cand != 0; cand &= cand - 1) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(cand));
            if (tags[w] == tag)
                return 1u << w;
        }
        return 0;
    }

    /** LRU victim of @p set by the timestamp scan the ranks replace:
     *  the lowest lastUse, ties to the lowest way. Audit-only. */
    std::uint32_t scanLruVictim(std::uint64_t set) const;

    /** Recompute @p set's row from tags_ and lastUse_ (construction
     *  and restore). */
    void rebuildRow(std::uint64_t set);

    std::string name_;
    std::uint32_t ways_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;
    unsigned setShift_;
    bool wide_;                ///< More than 16 ways: rows use 32 lanes.
    std::uint32_t waysMask_;   ///< Bit w set for every way index.
    std::uint64_t lruLanes_;   ///< ways_ - 1 in every byte lane.
    Tick hitLatency_;
    ReplPolicy policy_;
    Rng rng_;
    std::uint64_t useClock_ = 0;

    // Lookup state: a lookup is a byte compare across the row's
    // fingerprint lanes plus one full-tag confirm; a hit or fill is a
    // compare-and-add across its rank lanes; the LRU victim is the
    // lane ranked ways_ - 1. Every access stamps exactly one way with
    // a fresh useClock_, so valid ways never share a lastUse and the
    // rank order is the timestamp order: the rank victim is the
    // min-timestamp victim.
    std::vector<Row> rows_; ///< Per set.

    // Snapshot image, structure-of-arrays: the tags (read once per
    // lookup to confirm a fingerprint match), the timestamps (stamped
    // on every hit and fill; read only by save() and the audit), and
    // per-set valid/dirty bitmaps.
    std::vector<LineAddr> tags_;         ///< numSets_ * ways_, set-major.
    std::vector<std::uint64_t> lastUse_; ///< numSets_ * ways_, set-major.
    std::vector<std::uint32_t> validMask_; ///< Per set; bit w = way valid.
    std::vector<std::uint32_t> dirtyMask_; ///< Per set; bit w = way dirty.

    Counter hits_;
    Counter misses_;
    Counter writebacks_;
};

inline CacheAccessResult
SetAssocCache::access(LineAddr line, bool is_write)
{
    const std::uint64_t set = setOf(line);
    const LineAddr tag = tagOf(line);
    LineAddr *tags = &tags_[set * ways_];
    std::uint64_t *last_use = &lastUse_[set * ways_];
    Row &row = rows_[set];
    ++useClock_;

    if (const std::uint32_t match = findWay(set, tag)) {
        const auto w =
            static_cast<std::uint32_t>(std::countr_zero(match));
        moveToFront(row, w);
        last_use[w] = useClock_;
        dirtyMask_[set] |= static_cast<std::uint32_t>(is_write) << w;
        hits_.inc();
        return CacheAccessResult{0, true, false};
    }

    misses_.inc();

    // Victim selection — the same decision procedure as chooseVictim:
    // the lowest-index invalid way when one exists, else the policy.
    const std::uint32_t valid = validMask_[set];
    std::uint32_t victim;
    if (const std::uint32_t invalid = ~valid & waysMask_) {
        victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
    } else if (policy_ == ReplPolicy::Random) {
        victim = static_cast<std::uint32_t>(rng_.next(ways_));
    } else {
        victim = static_cast<std::uint32_t>(
            std::countr_zero(lanesEqual(row.rank, lruLanes_)));
        CAMEO_AUDIT(victim == scanLruVictim(set),
                    "l3: rank victim differs from the LRU timestamp scan");
    }

    const std::uint32_t bit = 1u << victim;
    CacheAccessResult result{0, false, false};
    if ((valid & bit) != 0 && (dirtyMask_[set] & bit) != 0) {
        result.writebackLine = (tags[victim] << setShift_) | set;
        result.hasWriteback = true;
        writebacks_.inc();
    }
    tags[victim] = tag;
    setLane(row.fp, victim, fingerprint(tag));
    moveToFront(row, victim);
    validMask_[set] = valid | bit;
    dirtyMask_[set] = (dirtyMask_[set] & ~bit) |
                      (static_cast<std::uint32_t>(is_write) << victim);
    last_use[victim] = useClock_;
    return result;
}

} // namespace cameo

#endif // CAMEO_CACHE_SET_ASSOC_CACHE_HH
