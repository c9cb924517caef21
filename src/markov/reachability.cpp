#include "markov/reachability.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <deque>
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
/// A firing moves the marking hash Σ m[p]·weight[p] by delta[t]. Firing t
/// changes only its consumed inputs and its outputs, so the only
/// transitions whose input test it can flip are the consumers of those
/// places: affected[affected_begin[t] .. affected_begin[t + 1]), ascending.
struct FlatNet {
  std::vector<std::uint32_t> in_begin, consumed_end, inputs;
  std::vector<std::uint32_t> out_begin, outputs;
  std::vector<std::uint8_t> output_is_flow;
  std::vector<std::uint64_t> weight, delta;
  std::vector<std::uint32_t> affected_begin, affected;

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
    // In an event graph each place has one consumer, place.to: t's consumed
    // inputs are read by t itself, its outputs by their consumers.
    affected_begin.reserve(num_transitions + 1);
    affected.reserve(inputs.size() + outputs.size());
    affected_begin.push_back(0);
    for (std::size_t t = 0; t < num_transitions; ++t) {
      const auto first = static_cast<std::ptrdiff_t>(affected.size());
      if (consumed_end[t] > in_begin[t])
        affected.push_back(static_cast<std::uint32_t>(t));
      for (std::uint32_t k = out_begin[t]; k < out_begin[t + 1]; ++k)
        affected.push_back(
            static_cast<std::uint32_t>(graph.place(outputs[k]).to));
      std::sort(affected.begin() + first, affected.end());
      affected.erase(std::unique(affected.begin() + first, affected.end()),
                     affected.end());
      affected_begin.push_back(static_cast<std::uint32_t>(affected.size()));
    }
  }

  /// True if every input place of t holds a token in marking m.
  bool inputs_marked(const std::uint8_t* m, std::size_t t) const {
    for (std::uint32_t k = in_begin[t]; k < in_begin[t + 1]; ++k) {
      if (m[inputs[k]] == 0) return false;
    }
    return true;
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

  // enabled[s * words ..] is state s's set of transitions whose input places
  // all hold a token, bit t % 64 of word t / 64 for transition t. Only the
  // initial marking is scanned in full; a new state copies its parent's set
  // and re-tests the transitions the firing could flip. Walking the set bits
  // in ascending order lists edges by transition id, as a full scan would.
  // The deque grows in fixed-size blocks, so the sets are never copied into
  // a doubled buffer (a doubling vector raised analyze_mix's peak RSS by
  // 0.4 MB).
  const std::size_t words = (num_transitions + 63) / 64;
  std::deque<std::uint64_t> enabled(words, 0);
  for (std::size_t t = 0; t < num_transitions; ++t) {
    if (net.inputs_marked(arena.data(), t))
      enabled[t / 64] |= std::uint64_t{1} << (t % 64);
  }

  TpnMarkovChain chain;
  chain.num_states = 1;
  // The state being expanded is copied out: committing a successor grows
  // the arena and may move it.
  std::vector<std::uint8_t> current(stride);
  for (std::size_t state = 0; state < chain.num_states; ++state) {
    std::memcpy(current.data(), arena.data() + state * stride, stride);
    const std::uint8_t* m = current.data();
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = enabled[state * words + w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t t =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        // An input-enabled transition fires unless an output flow place is
        // at capacity.
        bool fires = true;
        for (std::uint32_t k = net.out_begin[t]; k < net.out_begin[t + 1];
             ++k) {
          if (m[net.outputs[k]] < capacity) continue;
          if (net.output_is_flow[k] == 0) {
            throw CapacityExceeded(
                "resource place exceeded capacity: the event graph violates "
                "the expected 1-safety of serialization chains");
          }
          fires = false;
          chain.capacity_clipped = true;
          break;
        }
        if (!fires) continue;

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
          // affected[t] ascends, so it visits the words in order.
          std::uint32_t k = net.affected_begin[t];
          for (std::size_t v = 0; v < words; ++v) {
            std::uint64_t word = enabled[state * words + v];
            for (; k < net.affected_begin[t + 1] && net.affected[k] / 64 == v;
                 ++k) {
              const std::uint32_t u = net.affected[k];
              const std::uint64_t bit = std::uint64_t{1} << (u % 64);
              word = net.inputs_marked(next, u) ? word | bit : word & ~bit;
            }
            enabled.push_back(word);
          }
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
  }
  return chain;
}

}  // namespace streamflow
