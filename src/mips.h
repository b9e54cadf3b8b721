// Umbrella header: include everything a typical application needs.
//
//   #include "mips.h"
//
// Fine-grained headers remain available for compile-time-conscious users
// (each src/ subdirectory is an independent library; see README).

#ifndef MIPS_MIPS_H_
#define MIPS_MIPS_H_

#include "catalog/live_catalog.h" // IWYU pragma: export
#include "catalog/segment.h"      // IWYU pragma: export
#include "common/status.h"        // IWYU pragma: export
#include "common/thread_pool.h"   // IWYU pragma: export
#include "common/types.h"         // IWYU pragma: export
#include "core/cost_model.h"      // IWYU pragma: export
#include "core/engine.h"          // IWYU pragma: export
#include "core/maximus.h"         // IWYU pragma: export
#include "core/optimus.h"         // IWYU pragma: export
#include "data/datasets.h"        // IWYU pragma: export
#include "data/io.h"              // IWYU pragma: export
#include "data/mf_trainer.h"      // IWYU pragma: export
#include "data/synthetic.h"       // IWYU pragma: export
#include "linalg/matrix.h"        // IWYU pragma: export
#include "linalg/simd_dispatch.h" // IWYU pragma: export
#include "serve/batching_engine.h"  // IWYU pragma: export
#include "shard/partition.h"      // IWYU pragma: export
#include "shard/sharded_engine.h" // IWYU pragma: export
#include "solvers/bmm.h"          // IWYU pragma: export
#include "solvers/fexipro/fexipro.h"  // IWYU pragma: export
#include "solvers/lemp/lemp.h"    // IWYU pragma: export
#include "solvers/naive.h"        // IWYU pragma: export
#include "solvers/registry.h"     // IWYU pragma: export
#include "solvers/solver.h"       // IWYU pragma: export
#include "solvers/spec.h"         // IWYU pragma: export
#include "sparse/csr_matrix.h"    // IWYU pragma: export
#include "sparse/hybrid.h"        // IWYU pragma: export
#include "sparse/inverted_index.h"  // IWYU pragma: export
#include "sparse/sindi.h"         // IWYU pragma: export
#include "topk/result.h"          // IWYU pragma: export

#endif  // MIPS_MIPS_H_
