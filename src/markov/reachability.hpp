// Reachability analysis of a timed event graph under exponential firing
// (race semantics): markings are states, every enabled transition fires at
// its exponential rate, yielding a continuous-time Markov chain (the
// transformation step of Theorem 2).
//
// Boundedness: the Strict TPN is 1-safe (each processor's round-robin chain
// gates its whole receive/compute/send sequence), so exploration is exact.
// The Overlap TPN has unbounded data-flow places (a fast upstream may run
// ahead); `place_capacity` imposes finite buffers: a transition is disabled
// while one of its output flow places is full. The capped chain
// under-estimates the true throughput and converges to it as the capacity
// grows (the exact Overlap analysis is the column method of Theorem 3).
//
// Exploration is a breadth-first pass over one flat arena: each marking is
// one byte per place, zero-padded to a multiple of 8 bytes, stored in
// discovery order, so state id = BFS discovery order and every chain is a
// pure function of the net. Duplicate markings are found through an
// open-addressed table of 32-bit state ids keyed by an incremental hash
// (each firing adds a per-transition delta). Each state keeps the set of
// transitions whose input places all hold a token, ⌈T/64⌉ 64-bit words per
// state. A state first reached by firing t copies its parent's set and
// re-tests only the transitions that read a place t changed. Expanding a
// state walks its set bits in ascending order, so edges keep their
// transition-id order and only those transitions get the output-capacity
// check. State ids and edge counts are 32-bit: a chain that would pass
// 2^32 - 1 states or edges throws CapacityExceeded, the same limit the
// Gauss–Seidel index enforces.
#pragma once

#include <cstdint>
#include <vector>

#include "tpn/graph.hpp"

namespace streamflow {

struct ReachabilityOptions {
  /// Hard cap on the number of explored markings.
  std::size_t max_states = 250'000;
  /// Token capacity of data-flow places (resource places are 1-bounded by
  /// construction).
  int place_capacity = 8;
};

/// One CTMC edge: in marking `from`, transition `transition` fires (rate =
/// rates[transition]) and leads to marking `to`. States are numbered in BFS
/// discovery order (0 is the initial marking); the fields are 32-bit, which
/// explore_markings guarantees by throwing CapacityExceeded first.
struct CtmcEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t transition = 0;
};

/// The reachability CTMC of a TEG.
struct TpnMarkovChain {
  std::size_t num_states = 0;
  std::vector<CtmcEdge> edges;
  /// True if some marking hit the flow-place capacity (Overlap nets only):
  /// the chain then models finite buffers rather than the unbounded net.
  bool capacity_clipped = false;
};

/// Explores all markings reachable from the initial marking. Edges are
/// listed by source state, then by transition id.
/// `rates[t]` is the exponential firing rate of transition t (all > 0), and
/// every place's initial tokens must fit in a byte (InvalidArgument
/// otherwise). Throws CapacityExceeded if max_states or the 32-bit state or
/// edge limit is hit.
TpnMarkovChain explore_markings(const TimedEventGraph& graph,
                                const std::vector<double>& rates,
                                const ReachabilityOptions& options = {});

}  // namespace streamflow
