#include "sim/teg_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/prng.hpp"

namespace streamflow {

std::vector<DistributionPtr> transition_laws(const TimedEventGraph& graph,
                                             const StochasticTiming& timing) {
  std::vector<DistributionPtr> laws;
  laws.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions()) {
    laws.push_back(t.kind == TransitionKind::kCompute
                       ? timing.comp(t.proc)
                       : timing.comm(t.proc, t.proc2));
  }
  return laws;
}

namespace {

/// The graph compiled once per call for the round loop. Slot s is the s-th
/// transition in a topological order of the token-free-place subgraph
/// (acyclic by liveness). Round k keeps one array [previous | current] of
/// 2n completion times by slot, and slot s's input places are a uint32 CSR
/// of indices into it: a place with a token reads its producer's previous
/// round, a token-free place its producer's current one.
struct RoundPlan {
  std::vector<std::uint32_t> transition;    // slot -> transition id
  std::vector<std::uint32_t> input_begin;   // slot -> first input, n + 1
  std::vector<std::uint32_t> input_source;  // index into [previous | current]
  std::vector<std::uint32_t> last_col;      // last-column transitions' slots
};

RoundPlan compile_plan(const TimedEventGraph& graph) {
  const std::size_t n = graph.num_transitions();
  if (2 * n > std::numeric_limits<std::uint32_t>::max() ||
      graph.num_places() > std::numeric_limits<std::uint32_t>::max()) {
    throw CapacityExceeded("event graph too large for a 32-bit round plan");
  }
  std::vector<std::size_t> indegree(n, 0);
  for (const Place& p : graph.places()) {
    if (p.initial_tokens == 0) ++indegree[p.to];
  }
  RoundPlan plan;
  plan.transition.reserve(n);
  std::vector<std::size_t> queue;
  for (std::size_t t = 0; t < n; ++t)
    if (indegree[t] == 0) queue.push_back(t);
  while (!queue.empty()) {
    const std::size_t t = queue.back();
    queue.pop_back();
    plan.transition.push_back(static_cast<std::uint32_t>(t));
    for (std::size_t pid : graph.output_places(t)) {
      const Place& p = graph.place(pid);
      if (p.initial_tokens > 0) continue;
      if (--indegree[p.to] == 0) queue.push_back(p.to);
    }
  }
  SF_ASSERT(plan.transition.size() == n,
            "token-free subgraph has a cycle: the net is not live");

  const auto n32 = static_cast<std::uint32_t>(n);
  std::vector<std::uint32_t> slot_of(n);
  for (std::size_t s = 0; s < n; ++s)
    slot_of[plan.transition[s]] = static_cast<std::uint32_t>(s);
  plan.input_begin.reserve(n + 1);
  plan.input_begin.push_back(0);
  plan.input_source.reserve(graph.num_places());
  for (const std::uint32_t t : plan.transition) {
    // A place with w tokens hands firing k the token produced by the
    // k-w-th firing of its producer (or an initial token, ready at 0).
    for (const std::size_t pid : graph.input_places(t)) {
      const Place& p = graph.place(pid);
      const std::uint32_t from = slot_of[p.from];
      plan.input_source.push_back(p.initial_tokens > 0 ? from : n32 + from);
    }
    plan.input_begin.push_back(
        static_cast<std::uint32_t>(plan.input_source.size()));
  }
  for (const std::size_t t : graph.last_column_transitions())
    plan.last_col.push_back(slot_of[t]);
  SF_ASSERT(!plan.last_col.empty(), "graph has no last-column transitions");
  return plan;
}

/// The (max,plus) round loop over a compiled plan, generic over how slot s
/// draws its firing time (scalar-compat: one shared stream in plan order;
/// batched: one BatchSampler per slot). Static dispatch — a per-draw
/// std::function here would cost exactly the call overhead the batched
/// sampling layer exists to remove.
template <typename DrawFn>
TegSimResult run_rounds(const RoundPlan& plan, const TegSimOptions& options,
                        DrawFn&& draw) {
  const std::size_t n = plan.transition.size();
  // times[s] = completion of slot s's firing k-1, times[n + s] = firing k.
  std::vector<double> times(2 * n, 0.0);
  const double* const previous = times.data();
  double* const current = times.data() + n;
  const std::uint32_t* const begin = plan.input_begin.data();
  const std::uint32_t* const source = plan.input_source.data();
  const std::vector<std::uint32_t>& last_col = plan.last_col;

  const std::int64_t warmup_rounds = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.rounds));

  // Rows of a feed-forward net can fire at different asymptotic rates (a
  // slow output row lags unboundedly behind a fast one), so the throughput
  // must be measured PER last-column transition and summed — measuring one
  // global window would conflate the rows.
  std::vector<double> window_start(last_col.size(), 0.0);
  std::vector<double> window_end(last_col.size(), 0.0);

  for (std::int64_t k = 1; k <= options.rounds; ++k) {
    for (std::size_t s = 0; s < n; ++s) {
      double ready = 0.0;
      for (std::uint32_t e = begin[s]; e < begin[s + 1]; ++e)
        ready = std::max(ready, times[source[e]]);
      current[s] = ready + draw(s);
    }
    if (k == warmup_rounds) {
      for (std::size_t i = 0; i < last_col.size(); ++i)
        window_start[i] = current[last_col[i]];
    }
    std::copy(current, current + n, times.data());
  }
  // Both halves now hold the final round's completions.
  for (std::size_t i = 0; i < last_col.size(); ++i)
    window_end[i] = previous[last_col[i]];

  TegSimResult result;
  const std::int64_t measured_rounds =
      options.rounds - std::max<std::int64_t>(warmup_rounds, 0);
  result.completed =
      measured_rounds * static_cast<std::int64_t>(last_col.size());
  double min_row_rate = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < last_col.size(); ++i) {
    const double span = window_end[i] - window_start[i];
    SF_ASSERT(span > 0.0, "empty measurement window");
    const double rate = static_cast<double>(measured_rounds) / span;
    result.throughput += rate;
    min_row_rate = std::min(min_row_rate, rate);
    result.horizon = std::max(result.horizon, window_end[i]);
    result.elapsed = std::max(result.elapsed, span);
  }
  result.in_order_throughput =
      min_row_rate * static_cast<double>(last_col.size());
  return result;
}

}  // namespace

void TegSimOptions::validate() const {
  SF_REQUIRE(rounds >= 10, "need at least 10 rounds");
  SF_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
}

TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          Prng& prng, const TegSimOptions& options) {
  SF_REQUIRE(laws.size() == graph.num_transitions(),
             "need one law per transition");
  options.validate();
  const RoundPlan plan = compile_plan(graph);

  if (options.sampling == SamplingMode::kScalarCompat) {
    std::vector<const Distribution*> slot_laws;
    slot_laws.reserve(laws.size());
    for (const std::uint32_t t : plan.transition)
      slot_laws.push_back(laws[t].get());
    return run_rounds(plan, options, [&](std::size_t s) {
      return slot_laws[s]->sample(prng);
    });
  }

  // Batched: transition t draws from the pure child substream split(t) of
  // the stream's entry state, whatever its slot. The parent is advanced
  // exactly one draw so that back-to-back simulations on the same injected
  // stream see fresh (decorrelated) substream families, as they did when
  // draws were consumed inline.
  const Prng root = prng;
  (void)prng();
  const std::size_t raw_block = pick_block_draws(
      laws.size(), static_cast<std::size_t>(options.rounds));
  std::vector<BatchSampler> samplers;
  samplers.reserve(laws.size());
  for (const std::uint32_t t : plan.transition)
    samplers.emplace_back(laws[t], root.split(t), options.refill_isa,
                          raw_block);
  return run_rounds(plan, options,
                    [&](std::size_t s) { return samplers[s].next(); });
}

TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          const TegSimOptions& options) {
  Prng prng(options.seed);
  return simulate_teg(graph, laws, prng, options);
}

TegSimResult simulate_teg_deterministic(const TimedEventGraph& graph,
                                        const TegSimOptions& options) {
  std::vector<DistributionPtr> laws;
  laws.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions())
    laws.push_back(make_constant(t.duration));
  return simulate_teg(graph, laws, options);
}

}  // namespace streamflow
