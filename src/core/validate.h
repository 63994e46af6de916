#ifndef XSSD_CORE_VALIDATE_H_
#define XSSD_CORE_VALIDATE_H_

#include "core/config.h"

namespace xssd::core {

/// Sanity-check a device configuration before construction: geometry,
/// memory rates, and for every partition the ring/queue relationships and
/// the destage ring's fit inside the logical address space, plus pairwise
/// disjointness of the partitions' destage rings. Returns the first
/// violation found.
Status ValidateConfig(const VillarsConfig& config);

}  // namespace xssd::core

#endif  // XSSD_CORE_VALIDATE_H_
