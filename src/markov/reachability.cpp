#include "markov/reachability.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

namespace streamflow {

namespace {

/// Largest state or edge count a 32-bit id can hold; the all-ones id marks
/// an empty slot of the state table.
constexpr std::size_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

/// splitmix64's finalizer: the per-place hash weights.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The net flattened once for the firing loop. Transition t reads
/// inputs[in_begin[t] .. in_begin[t + 1]): its consumed (non-self-loop)
/// input places first, up to consumed_end[t], then its self-loop places,
/// which must hold a token but net out to zero. It writes
/// outputs[out_begin[t] .. out_begin[t + 1]), its non-self-loop output
/// places in graph order, so the first full one decides between clipping
/// (a flow place) and the 1-safety error (a resource place) as before.
/// A firing moves the marking hash Σ m[p]·weight[p] by delta[t].
struct FlatNet {
  std::vector<std::uint32_t> in_begin, consumed_end, inputs;
  std::vector<std::uint32_t> out_begin, outputs;
  std::vector<std::uint8_t> output_is_flow;
  std::vector<std::uint64_t> weight, delta;

  explicit FlatNet(const TimedEventGraph& graph) {
    const std::size_t num_transitions = graph.num_transitions();
    weight.resize(graph.num_places());
    for (std::size_t pid = 0; pid < weight.size(); ++pid) {
      weight[pid] = mix64(0x9e3779b97f4a7c15ULL * (pid + 1));
    }
    delta.assign(num_transitions, 0);
    in_begin.push_back(0);
    out_begin.push_back(0);
    for (std::size_t t = 0; t < num_transitions; ++t) {
      const auto& in = graph.input_places(t);
      for (std::size_t pid : in) {
        if (graph.place(pid).from == t) continue;
        inputs.push_back(static_cast<std::uint32_t>(pid));
        delta[t] -= weight[pid];
      }
      consumed_end.push_back(static_cast<std::uint32_t>(inputs.size()));
      for (std::size_t pid : in) {
        if (graph.place(pid).from == t) {
          inputs.push_back(static_cast<std::uint32_t>(pid));
        }
      }
      in_begin.push_back(static_cast<std::uint32_t>(inputs.size()));
      for (std::size_t pid : graph.output_places(t)) {
        const Place& p = graph.place(pid);
        if (p.to == t) continue;
        outputs.push_back(static_cast<std::uint32_t>(pid));
        output_is_flow.push_back(p.kind == PlaceKind::kFlow ? 1 : 0);
        delta[t] += weight[pid];
      }
      out_begin.push_back(static_cast<std::uint32_t>(outputs.size()));
    }
  }
};

}  // namespace

TpnMarkovChain explore_markings(const TimedEventGraph& graph,
                                const std::vector<double>& rates,
                                const ReachabilityOptions& options) {
  SF_REQUIRE(rates.size() == graph.num_transitions(),
             "need one rate per transition");
  for (double r : rates)
    SF_REQUIRE(r > 0.0, "all firing rates must be positive");
  SF_REQUIRE(options.place_capacity >= 1, "place capacity must be >= 1");
  SF_REQUIRE(options.place_capacity <= 255,
             "place capacity must fit in a byte");
  for (const Place& p : graph.places())
    SF_REQUIRE(p.initial_tokens <= 255, "initial tokens must fit in a byte");

  const std::size_t num_places = graph.num_places();
  const FlatNet net(graph);
  const std::size_t num_transitions = graph.num_transitions();
  const auto capacity = static_cast<std::uint8_t>(options.place_capacity);

  // State s is the stride bytes at arena[s * stride], zero-padded to a
  // multiple of 8; one spare stride at the end holds the successor under
  // test. State ids are BFS discovery order: the cursor walks the arena, so
  // no frontier is kept. `slots` is an open-addressed table of state ids,
  // probed linearly from the top bits of the state's hash. It is only
  // point-queried and rehashed in id order, never iterated for output, so
  // no result depends on hash order.
  const std::size_t stride = std::max<std::size_t>(8, (num_places + 7) / 8 * 8);
  std::vector<std::uint8_t> arena(2 * stride, 0);
  std::vector<std::uint64_t> hashes;
  std::uint64_t initial_hash = 0;
  for (std::size_t pid = 0; pid < num_places; ++pid) {
    const int tokens = graph.place(pid).initial_tokens;
    arena[pid] = static_cast<std::uint8_t>(tokens);
    initial_hash += static_cast<std::uint64_t>(tokens) * net.weight[pid];
  }
  int slot_bits = 4;
  std::vector<std::uint32_t> slots(std::size_t{1} << slot_bits, kEmptySlot);
  const auto home_slot = [&](std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> (64 - slot_bits));
  };
  slots[home_slot(initial_hash)] = 0;
  hashes.push_back(initial_hash);

  TpnMarkovChain chain;
  chain.num_states = 1;
  // The state being expanded is copied out: committing a successor grows
  // the arena and may move it.
  std::vector<std::uint8_t> current(stride);
  for (std::size_t state = 0; state < chain.num_states; ++state) {
    std::memcpy(current.data(), arena.data() + state * stride, stride);
    const std::uint8_t* m = current.data();
    for (std::size_t t = 0; t < num_transitions; ++t) {
      // Enabled: every input place holds a token...
      bool enabled = true;
      for (std::uint32_t k = net.in_begin[t]; k < net.in_begin[t + 1]; ++k) {
        if (m[net.inputs[k]] == 0) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      // ...and no output flow place would exceed its capacity.
      for (std::uint32_t k = net.out_begin[t]; k < net.out_begin[t + 1]; ++k) {
        if (m[net.outputs[k]] < capacity) continue;
        if (net.output_is_flow[k] == 0) {
          throw CapacityExceeded(
              "resource place exceeded capacity: the event graph violates "
              "the expected 1-safety of serialization chains");
        }
        enabled = false;
        chain.capacity_clipped = true;
        break;
      }
      if (!enabled) continue;

      std::uint8_t* next = arena.data() + chain.num_states * stride;
      std::memcpy(next, m, stride);
      for (std::uint32_t k = net.in_begin[t]; k < net.consumed_end[t]; ++k)
        --next[net.inputs[k]];
      for (std::uint32_t k = net.out_begin[t]; k < net.out_begin[t + 1]; ++k)
        ++next[net.outputs[k]];
      const std::uint64_t hash = hashes[state] + net.delta[t];

      const std::size_t mask = slots.size() - 1;
      std::size_t slot = home_slot(hash);
      std::uint32_t to = slots[slot];
      while (to != kEmptySlot &&
             (hashes[to] != hash ||
              std::memcmp(arena.data() + std::size_t{to} * stride, next,
                          stride) != 0)) {
        slot = (slot + 1) & mask;
        to = slots[slot];
      }
      if (to == kEmptySlot) {
        if (chain.num_states >= options.max_states) {
          throw CapacityExceeded(
              "marking exploration exceeded max_states=" +
              std::to_string(options.max_states) +
              "; use the column decomposition or raise the cap");
        }
        if (chain.num_states >= kMaxCount) {
          throw CapacityExceeded(
              "marking exploration exceeded the 32-bit state id limit");
        }
        to = static_cast<std::uint32_t>(chain.num_states++);
        slots[slot] = to;
        hashes.push_back(hash);
        arena.resize(arena.size() + stride);
        if (2 * chain.num_states > slots.size()) {
          ++slot_bits;
          slots.assign(std::size_t{1} << slot_bits, kEmptySlot);
          const std::size_t grown_mask = slots.size() - 1;
          for (std::uint32_t id = 0; id < chain.num_states; ++id) {
            std::size_t s = home_slot(hashes[id]);
            while (slots[s] != kEmptySlot) s = (s + 1) & grown_mask;
            slots[s] = id;
          }
        }
      }
      if (chain.edges.size() >= kMaxCount) {
        throw CapacityExceeded(
            "marking exploration exceeded the 32-bit edge count limit");
      }
      chain.edges.push_back(CtmcEdge{static_cast<std::uint32_t>(state), to,
                                     static_cast<std::uint32_t>(t)});
    }
  }
  return chain;
}

}  // namespace streamflow
