/**
 * @file
 * Direct-mapped TAD tag array, the checkpointable part of
 * AlloyCacheOrg.
 *
 * The Alloy cache's translation state is its tag array: one TAD (Tag
 * And Data) entry per direct-mapped set, tag co-located with the data
 * in the stacked row. This class owns that array — lookup, install,
 * and victim bookkeeping — while the org keeps the access-path timing
 * (TAD bursts, MAP-I predictor, parallel fetch) that gives Alloy its
 * latency character.
 */

#ifndef CAMEO_ORGS_POLICY_TAD_TAG_MAPPING_HH
#define CAMEO_ORGS_POLICY_TAD_TAG_MAPPING_HH

#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/types.hh"

namespace cameo
{

/** Direct-mapped tag array with per-set valid/dirty state. */
class TadTagMapping final : public Checkpointable
{
  public:
    /** One direct-mapped set: the resident line's tag and state. */
    struct Entry
    {
        LineAddr tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    explicit TadTagMapping(std::uint64_t num_sets);

    std::uint64_t numSets() const { return numSets_; }

    std::uint64_t setIndexOf(LineAddr line) const
    {
        return line % numSets_;
    }

    Entry &setFor(LineAddr line) { return sets_[line % numSets_]; }
    const Entry &setFor(LineAddr line) const
    {
        return sets_[line % numSets_];
    }

    /** True if @p line is the valid resident of its set. */
    bool hit(LineAddr line) const
    {
        const Entry &set = setFor(line);
        return set.valid && set.tag == line;
    }

    /** Checkpointable: the structural set count + every entry. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    std::uint64_t numSets_;
    std::vector<Entry> sets_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_TAD_TAG_MAPPING_HH
