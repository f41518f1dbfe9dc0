// Former names of the many-host testbed, which is now Testbed
// (src/core/testbed.h) with `clients` and `servers` set.

#ifndef SRC_WORKLOAD_STAR_TESTBED_H_
#define SRC_WORKLOAD_STAR_TESTBED_H_

#include "src/core/testbed.h"

namespace tcplat {

using StarTestbedConfig = TestbedConfig;
using StarTestbed = Testbed;

}  // namespace tcplat

#endif  // SRC_WORKLOAD_STAR_TESTBED_H_
