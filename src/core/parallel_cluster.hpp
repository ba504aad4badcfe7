#pragma once

#include "core/cluster.hpp"

namespace openmx::core {

/// Old name of the multi-LP cluster, now core::Cluster with an LP count.
/// Kept only because the perfbench/ package includes this header and
/// names the type; every other caller uses Cluster.
using ParallelCluster = Cluster;

}  // namespace openmx::core
