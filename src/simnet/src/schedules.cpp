#include "colop/simnet/schedules.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace colop::simnet {

using mpsim::Land;

void price(SimMachine& mach, mpsim::Algo algo, double m, double w, double ops,
           const mpsim::Spec& spec, double ops2) {
  const mpsim::Schedule s = mpsim::schedule(algo, mach.size(), spec);
  const double seg = m / s.segments;
  const double cost[2] = {ops, ops2};
  for (std::size_t i = 0, begin = 0; i < s.rounds(); begin = s.ends[i++]) {
    const std::span round(s.steps.data() + begin, s.ends[i] - begin);
    for (std::size_t j = 0; j < round.size(); ++j) {
      const mpsim::Step& st = round[j];
      if (st.land == Land::local) continue;
      if (st.pair) {
        mach.exchange(st.src, st.dst, st.len * seg * w);
        ++j;  // the mutual step rides the same exchange
      } else {
        mach.send(st.src, st.dst, st.len * seg * w);
      }
    }
    for (const mpsim::Step& st : round)
      if (st.land != Land::local && !st.pair) mach.recv(st.dst, st.src);
    for (const mpsim::Step& st : round)
      if (st.land == Land::local || st.ops > 0)
        mach.compute(st.dst, st.len * seg * cost[st.op] * st.ops);
  }
}

int optimal_segments(int p, double m, double ts, double tw) {
  // Minimize (p - 2 + k) * (ts + (m/k)*tw) over k: k* = sqrt((p-2)*m*tw/ts).
  if (p <= 2 || ts <= 0) return 1;
  const double k = std::sqrt((p - 2) * m * tw / ts);
  return std::max(1, static_cast<int>(k + 0.5));
}

void local_map(SimMachine& mach, double m, double ops) {
  if (ops == 0) return;
  for (int r = 0; r < mach.size(); ++r) mach.compute(r, m * ops);
}

void local_iter(SimMachine& mach, double m, double ops, double levels) {
  mach.compute(0, m * ops * levels);
}

}  // namespace colop::simnet
