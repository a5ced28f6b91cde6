#pragma once
// Collective schedules on the simulated machine.  There is one schedule
// per algorithm: mpsim::schedule (colop/mpsim/schedule.h) generates it,
// the mpsim collectives run it on real data, and `price` below charges it
// on virtual clocks — one message of (segments carried * m/segments * w)
// words per step, an exchange for each mutual pair of steps, and
// (elements * ops) compute units per operator sweep.  A new algorithm is
// one new generator there; simnet prices it with no code of its own.
// tests/test_traffic_differential.cpp runs every algorithm on threads and
// here, and requires the same message count.
//
// Defaults differ between the two sides.  exec::run_on_simnet prices the
// paper's butterfly bcast and butterfly (all)reduce (SimSchedules{}); the
// thread executor runs mpsim's binomial bcast and binomial reduce.  The
// makespans agree at every power of two, the message counts do not: a
// bcast at p = 8 sends 7 messages on threads and 24 in simnet.
//
// For p = 2^k the butterfly schedules reproduce the paper's closed forms
// exactly:  T_bcast  = log p * (ts + m*tw)                    (Eq 15)
//           T_reduce = log p * (ts + m*(tw + 1))              (Eq 16)
//           T_scan   = log p * (ts + m*(tw + 2))              (Eq 17)
//
// Word counts are data-plane independent: `m * w` is the number of defined
// 8-byte payload words (an undefined `_` costs zero), and both the boxed
// and the packed executors (colop/ir/packed.h) charge exactly this via
// payload_bytes — so simnet predictions stay valid whichever plane runs.

#include "colop/mpsim/schedule.h"
#include "colop/simnet/machine.h"

namespace colop::simnet {

/// Charge `algo`'s schedule (mpsim::schedule(algo, mach.size(), spec)) on
/// `mach` for a block of `m` elements of `w` words each.  Per round: the
/// sends and exchanges, then the receives, then the compute; a step's
/// operator costs `ops` op units per element, or `ops2` for operator 1
/// (comcast_costopt's e).  Rooted algorithms require 0 <= root < p.
void price(SimMachine& mach, mpsim::Algo algo, double m, double w,
           double ops = 0, const mpsim::Spec& spec = {}, double ops2 = 0);

/// Latency/bandwidth-optimal chunk count for the chain pipeline
/// (bcast_pipelined): k* = sqrt((p-2) * m * tw / ts), at least 1.
[[nodiscard]] int optimal_segments(int p, double m, double ts, double tw);

// --- local stages -----------------------------------------------------------
/// map f on every processor: m * ops compute units each.
void local_map(SimMachine& mach, double m, double ops);
/// iter f on the root only: levels * m * ops compute units.
void local_iter(SimMachine& mach, double m, double ops, double levels);

}  // namespace colop::simnet
