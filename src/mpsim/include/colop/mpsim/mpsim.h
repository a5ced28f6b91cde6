#pragma once
// colop::mpsim — thread-backed SPMD message-passing runtime.
//
// This is the library's substrate for executing programs with collective
// operations: the moral equivalent of MPI over a shared-memory transport.
// See DESIGN.md §2 for why the paper's Parsytec/MPICH testbed is
// substituted by this runtime plus the colop::simnet cost simulator.

#include "colop/mpsim/balanced_tree.h"  // IWYU pragma: export
#include "colop/mpsim/collectives.h"    // IWYU pragma: export
#include "colop/mpsim/comm.h"           // IWYU pragma: export
#include "colop/mpsim/group.h"          // IWYU pragma: export
#include "colop/mpsim/request.h"        // IWYU pragma: export
#include "colop/mpsim/schedule.h"       // IWYU pragma: export
#include "colop/mpsim/spmd.h"           // IWYU pragma: export
#include "colop/mpsim/stats.h"          // IWYU pragma: export
