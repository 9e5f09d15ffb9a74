/**
 * @file
 * Replacement policies for the set-associative cache model.
 *
 * The paper's L3 is plain LRU; Random is provided for sensitivity tests
 * and as a second implementation to exercise the policy interface.
 * Policies operate on way indices within one set and are stateless
 * across sets except for the per-way metadata handed to them.
 *
 * SetAssocCache makes the same decision over its per-set recency
 * ranks; chooseVictim over WayMeta timestamps is the reference model
 * the cache's differential test compares it against.
 */

#ifndef CAMEO_CACHE_REPLACEMENT_HH
#define CAMEO_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <span>

#include "util/rng.hh"

namespace cameo
{

/** Per-way replacement metadata of the reference model. */
struct WayMeta
{
    bool valid = false;
    std::uint64_t lastUse = 0; ///< LRU timestamp (monotone counter).
};

/** Which policy a cache instance uses. */
enum class ReplPolicy
{
    Lru,
    Random,
};

/**
 * Choose a victim way for a set.
 *
 * Invalid ways are always preferred (lowest index first). Otherwise LRU
 * picks the smallest lastUse; Random picks uniformly.
 *
 * @param ways  Metadata for every way in the set.
 * @param policy Replacement policy.
 * @param rng   Randomness source (used by Random only).
 * @return Victim way index.
 */
std::uint32_t chooseVictim(std::span<const WayMeta> ways, ReplPolicy policy,
                           Rng &rng);

} // namespace cameo

#endif // CAMEO_CACHE_REPLACEMENT_HH
