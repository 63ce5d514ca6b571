// SkipVectorMap instantiated with epoch-based reclamation (SV-EBR): the
// deferred-reclamation alternative the paper contrasts hazard pointers
// against.
//
// Stats note (src/stats/stats.h): epoch retire/advance/reclaim events are
// attributed to whichever map's stats::Scope is active when end_op() runs --
// for this alias that is always the owning SkipVectorMap, since each
// instance has a private EpochDomain.
//
// Snapshot note (docs/SNAPSHOTS.md): the multiversioned snapshot and
// apply_batch API is reclaimer-independent, so these aliases inherit it
// unchanged. Pruned version-chain records go through every map's own
// records-only epoch domain, never through this node reclaimer, and are not
// counted as retire traffic here.
#pragma once

#include "core/skip_vector.h"
#include "reclaim/epoch.h"

namespace sv::core {

template <class K, class V>
using SkipVectorEpoch = SkipVectorMap<K, V, reclaim::EpochReclaimer>;

}  // namespace sv::core
