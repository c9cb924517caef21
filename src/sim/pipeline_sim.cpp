#include "sim/pipeline_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/prng.hpp"

namespace streamflow {

namespace {

/// Rolling history of the last values of a per-stage event series, in a
/// power-of-two ring so that an index is one mask.
class History {
 public:
  explicit History(std::size_t window)
      : values_(std::bit_ceil(std::max<std::size_t>(window, 1)), 0.0),
        mask_(values_.size() - 1) {}

  /// Value for data set n - back, where back < window; data sets before the
  /// first one are "ready at time 0". No test needed for those: n - back
  /// wraps to a slot no data set m <= n has written yet (that would take
  /// m = n - back + j * capacity with j >= 1, i.e. m > n), which still
  /// holds its initial zero.
  double get(std::int64_t n, std::int64_t back) const {
    return values_[static_cast<std::uint64_t>(n - back) & mask_];
  }

  void set(std::int64_t n, double value) {
    values_[static_cast<std::uint64_t>(n) & mask_] = value;
  }

 private:
  std::vector<double> values_;
  std::uint64_t mask_;
};

/// The round-robin layout of a mapping, flattened into slots. Data set n
/// runs stage i on member n mod r_i of its team: comp slot comp_begin[i] +
/// (n mod r_i). It sends file F_i from sender n mod r_i to receiver
/// n mod r_{i+1}, a pair that repeats with period lcm(r_i, r_{i+1}): comm
/// slot comm_begin[i] + (n mod that period). The run loop rolls one slot
/// counter per stage and per link instead of dividing.
struct RoundRobin {
  explicit RoundRobin(const Mapping& mapping) {
    const std::size_t n_stages = mapping.num_stages();
    comp_begin.push_back(0);
    comm_begin.push_back(0);
    for (std::size_t i = 0; i < n_stages; ++i) {
      const std::vector<std::size_t>& team = mapping.team(i);
      processor.insert(processor.end(), team.begin(), team.end());
      comp_begin.push_back(processor.size());
      if (i + 1 == n_stages) break;
      const std::vector<std::size_t>& next = mapping.team(i + 1);
      const std::size_t period = std::lcm(team.size(), next.size());
      for (std::size_t phase = 0; phase < period; ++phase) {
        sender.push_back(team[phase % team.size()]);
        receiver.push_back(next[phase % next.size()]);
      }
      comm_begin.push_back(sender.size());
    }
  }

  std::vector<std::size_t> comp_begin;  // stage -> first comp slot, N + 1
  std::vector<std::size_t> processor;   // comp slot -> processor
  std::vector<std::size_t> comm_begin;  // link -> first comm slot, N
  std::vector<std::size_t> sender;      // comm slot -> sending processor
  std::vector<std::size_t> receiver;    // comm slot -> receiving processor
};

/// The law of every comm slot, looked up once so that no draw pays
/// StochasticTiming's checks.
std::vector<const Distribution*> comm_laws(const StochasticTiming& timing,
                                           const RoundRobin& rr) {
  std::vector<const Distribution*> laws;
  laws.reserve(rr.sender.size());
  for (std::size_t k = 0; k < rr.sender.size(); ++k)
    laws.push_back(timing.comm(rr.sender[k], rr.receiver[k]).get());
  return laws;
}

// The samplers below serve run(): next_data_set() once at the start of each
// data set, then comp(i, slot) and comm(i, slot) for stage i's computation
// and file F_i's transfer in the current comp and comm slots.

/// Independent case, scalar-compat: every draw from the injected stream in
/// program order.
class CompatSampler {
 public:
  CompatSampler(const StochasticTiming& timing, const RoundRobin& rr,
                Prng& prng)
      : comm_laws_(comm_laws(timing, rr)), prng_(prng) {
    for (const std::size_t p : rr.processor)
      comp_laws_.push_back(timing.comp(p).get());
  }

  void next_data_set() {}
  double comp(std::size_t, std::size_t slot) {
    return comp_laws_[slot]->sample(prng_);
  }
  double comm(std::size_t, std::size_t slot) {
    return comm_laws_[slot]->sample(prng_);
  }

 private:
  std::vector<const Distribution*> comp_laws_;  // by comp slot
  std::vector<const Distribution*> comm_laws_;  // by comm slot
  Prng& prng_;
};

/// Independent case, batched: one BatchSampler per comp slot — the
/// member's law is fixed, so inversion families get the vectorized
/// transform — and one BufferedPrng per link, sampled per draw because the
/// (sender, receiver) law varies with the phase. Stream indices follow the
/// slots (all comp slots stage-major, then the links), so results depend
/// only on (inputs, seed).
class BatchedSampler {
 public:
  BatchedSampler(const StochasticTiming& timing, const RoundRobin& rr,
                 const Prng& root, const PipelineSimOptions& options)
      : comm_laws_(comm_laws(timing, rr)) {
    const std::size_t n_comp = rr.processor.size();
    const std::size_t n_links = rr.comm_begin.size() - 1;
    const std::size_t block = pick_block_draws(
        n_comp + n_links, static_cast<std::size_t>(options.data_sets));
    comp_samplers_.reserve(n_comp);
    for (std::size_t slot = 0; slot < n_comp; ++slot) {
      comp_samplers_.emplace_back(timing.comp(rr.processor[slot]),
                                  root.split(slot), options.refill_isa, block);
    }
    comm_streams_.reserve(n_links);
    for (std::size_t i = 0; i < n_links; ++i) {
      comm_streams_.emplace_back(root.split(n_comp + i), options.refill_isa,
                                 block);
    }
  }

  void next_data_set() {}
  double comp(std::size_t, std::size_t slot) {
    return comp_samplers_[slot].next();
  }
  double comm(std::size_t i, std::size_t slot) {
    return comm_laws_[slot]->sample(comm_streams_[i]);
  }

 private:
  std::vector<const Distribution*> comm_laws_;  // by comm slot
  std::vector<BatchSampler> comp_samplers_;      // by comp slot
  std::vector<BufferedPrng> comm_streams_;
};

/// Associated case: multipliers drawn once per data set scale the
/// deterministic times. kPerDataSet: ONE multiplier per data set drives
/// every time along its path (§6.2: the data set's size). kPerStage:
/// independent multipliers per stage/file, the degenerate control.
///
/// Batched mode: one BatchSampler per multiplier slot (a single shared slot
/// for kPerDataSet; one per stage and per link for kPerStage), each on its
/// own pure substream of the entry state, consumed in data-set order.
/// Scalar-compat mode leaves slot_samplers_ empty and draws from the
/// injected stream inline.
class AssociatedSampler {
 public:
  AssociatedSampler(const Mapping& mapping, const RoundRobin& rr,
                    DistributionPtr unit_law, Prng& prng,
                    const PipelineSimOptions& options, AssociationScope scope)
      : unit_law_(std::move(unit_law)),
        prng_(prng),
        scope_(scope),
        work_mult_(mapping.num_stages(), 1.0),
        size_mult_(rr.comm_begin.size() - 1, 1.0) {
    for (const std::size_t p : rr.processor)
      comp_time_.push_back(mapping.comp_time(p));
    for (std::size_t k = 0; k < rr.sender.size(); ++k)
      comm_time_.push_back(mapping.comm_time(rr.sender[k], rr.receiver[k]));
    if (options.sampling != SamplingMode::kBatched) return;
    const Prng root = prng;
    (void)prng();
    const std::size_t n_slots = scope == AssociationScope::kPerDataSet
                                    ? 1
                                    : work_mult_.size() + size_mult_.size();
    const std::size_t block = pick_block_draws(
        n_slots, static_cast<std::size_t>(options.data_sets));
    slot_samplers_.reserve(n_slots);
    for (std::size_t k = 0; k < n_slots; ++k) {
      slot_samplers_.emplace_back(unit_law_, root.split(k), options.refill_isa,
                                  block);
    }
  }

  void next_data_set() {
    if (scope_ == AssociationScope::kPerDataSet) {
      const double shared = draw(0);
      for (double& w : work_mult_) w = shared;
      for (double& s : size_mult_) s = shared;
      return;
    }
    std::size_t slot = 0;
    for (double& w : work_mult_) w = draw(slot++);
    for (double& s : size_mult_) s = draw(slot++);
  }
  double comp(std::size_t i, std::size_t slot) const {
    return work_mult_[i] * comp_time_[slot];
  }
  double comm(std::size_t i, std::size_t slot) const {
    return size_mult_[i] * comm_time_[slot];
  }

 private:
  double draw(std::size_t slot) {
    return slot_samplers_.empty() ? unit_law_->sample(prng_)
                                  : slot_samplers_[slot].next();
  }

  DistributionPtr unit_law_;
  Prng& prng_;
  AssociationScope scope_;
  std::vector<double> work_mult_;
  std::vector<double> size_mult_;
  std::vector<double> comp_time_;  // by comp slot
  std::vector<double> comm_time_;  // by comm slot
  std::vector<BatchSampler> slot_samplers_;
};

template <typename SamplerT>
PipelineSimResult run(ExecutionModel model, const RoundRobin& rr,
                      SamplerT& sampler, const PipelineSimOptions& options) {
  options.validate();

  const std::size_t n_stages = rr.comp_begin.size() - 1;
  std::vector<std::int64_t> r(n_stages);
  for (std::size_t i = 0; i < n_stages; ++i)
    r[i] = static_cast<std::int64_t>(rr.comp_begin[i + 1] - rr.comp_begin[i]);

  // comp_done[i]: completion of stage i's computation for data set n.
  // xfer_done[i]: completion of file F_i's transfer for data set n.
  std::vector<History> comp_done;
  std::vector<History> xfer_done;
  comp_done.reserve(n_stages);
  for (std::size_t i = 0; i < n_stages; ++i) {
    comp_done.emplace_back(static_cast<std::size_t>(r[i]) + 1);
  }
  xfer_done.reserve(n_stages);
  for (std::size_t i = 0; i + 1 < n_stages; ++i) {
    xfer_done.emplace_back(
        static_cast<std::size_t>(std::max(r[i], r[i + 1])) + 1);
  }
  // The current data set's comp slot per stage and comm slot per link.
  std::vector<std::size_t> comp_slot(rr.comp_begin.begin(),
                                     rr.comp_begin.end() - 1);
  std::vector<std::size_t> comm_slot(rr.comm_begin.begin(),
                                     rr.comm_begin.end() - 1);

  const std::int64_t warmup = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.data_sets));
  // Replicas of the last stage can complete at different asymptotic rates
  // (no downstream round-robin constrains them), so throughput is measured
  // per last-stage member and summed.
  const std::int64_t r_last = r[n_stages - 1];
  SF_REQUIRE(options.data_sets - warmup >= 2 * r_last,
             "need at least two measured completions per last-stage member");
  std::vector<double> member_start(static_cast<std::size_t>(r_last), 0.0);
  std::vector<double> member_end(static_cast<std::size_t>(r_last), 0.0);
  std::vector<std::int64_t> member_count(static_cast<std::size_t>(r_last), 0);
  double last_completion = 0.0;
  double latency_sum = 0.0;
  double latency_max = 0.0;
  std::int64_t latency_count = 0;

  for (std::int64_t n = 0; n < options.data_sets; ++n) {
    sampler.next_data_set();
    double first_start = 0.0;
    for (std::size_t i = 0; i < n_stages; ++i) {
      // --- computation of stage i for data set n ------------------------
      double ready = 0.0;
      if (i > 0) ready = xfer_done[i - 1].get(n, 0);  // its input arrived
      if (model == ExecutionModel::kOverlap) {
        // The compute unit is serial across the processor's occurrences.
        ready = std::max(ready, comp_done[i].get(n, r[i]));
      } else if (i == 0) {
        // Strict, first stage: compute(n) waits for the processor's
        // previous full cycle, which ends with its send (or its compute if
        // there is no send).
        const double prev_cycle = (n_stages > 1)
                                      ? xfer_done[0].get(n, r[0])
                                      : comp_done[0].get(n, r[0]);
        ready = std::max(ready, prev_cycle);
      }
      // Strict, i > 0: the receive (transfer) already serialized the cycle.
      if (i == 0) first_start = ready;
      comp_done[i].set(n, ready + sampler.comp(i, comp_slot[i]));

      // --- transfer of file F_i for data set n --------------------------
      if (i + 1 < n_stages) {
        double xfer_ready = comp_done[i].get(n, 0);
        if (model == ExecutionModel::kOverlap) {
          // Sender's output port and receiver's input port are serial.
          xfer_ready = std::max(xfer_ready, xfer_done[i].get(n, r[i]));
          xfer_ready = std::max(xfer_ready, xfer_done[i].get(n, r[i + 1]));
        } else {
          // Strict: the receiver must have finished its previous full
          // cycle (which ends with its own send, or compute at the last
          // stage) before accepting this file.
          const double receiver_prev =
              (i + 2 < n_stages) ? xfer_done[i + 1].get(n, r[i + 1])
                                 : comp_done[i + 1].get(n, r[i + 1]);
          xfer_ready = std::max(xfer_ready, receiver_prev);
        }
        const double duration =
            sampler.comm(i, comm_slot[i]) / options.bandwidth_efficiency;
        xfer_done[i].set(n, xfer_ready + duration);
      }
    }
    const double done = comp_done[n_stages - 1].get(n, 0);
    const std::size_t member =
        comp_slot[n_stages - 1] - rr.comp_begin[n_stages - 1];
    if (n < warmup) {
      member_start[member] = done;  // keeps the last pre-warmup completion
    } else {
      member_end[member] = done;
      ++member_count[member];
      const double latency = done - first_start;
      latency_sum += latency;
      latency_max = std::max(latency_max, latency);
      ++latency_count;
    }
    last_completion = std::max(last_completion, done);

    for (std::size_t i = 0; i < n_stages; ++i) {
      if (++comp_slot[i] == rr.comp_begin[i + 1]) {
        comp_slot[i] = rr.comp_begin[i];
      }
    }
    for (std::size_t i = 0; i + 1 < n_stages; ++i) {
      if (++comm_slot[i] == rr.comm_begin[i + 1]) {
        comm_slot[i] = rr.comm_begin[i];
      }
    }
  }

  PipelineSimResult result;
  result.makespan = last_completion;
  double min_member_rate = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < static_cast<std::size_t>(r_last); ++k) {
    const double span = member_end[k] - member_start[k];
    SF_ASSERT(span > 0.0, "empty measurement window");
    const double rate = static_cast<double>(member_count[k]) / span;
    result.completed += member_count[k];
    result.throughput += rate;
    min_member_rate = std::min(min_member_rate, rate);
    result.elapsed = std::max(result.elapsed, span);
  }
  result.in_order_throughput =
      min_member_rate * static_cast<double>(r_last);
  if (latency_count > 0) {
    result.mean_latency = latency_sum / static_cast<double>(latency_count);
    result.max_latency = latency_max;
  }
  return result;
}

}  // namespace

void PipelineSimOptions::validate() const {
  SF_REQUIRE(data_sets >= 10, "need at least 10 data sets");
  SF_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
  SF_REQUIRE(bandwidth_efficiency > 0.0 && bandwidth_efficiency <= 1.0,
             "bandwidth efficiency must be in (0, 1]");
}

PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing, Prng& prng,
                                    const PipelineSimOptions& options) {
  options.validate();
  const RoundRobin rr(mapping);
  if (options.sampling == SamplingMode::kBatched) {
    // Per-resource substreams split from the stream's entry state; the
    // parent advances exactly one draw so back-to-back simulations on the
    // same injected stream see fresh substream families.
    const Prng root = prng;
    (void)prng();
    BatchedSampler sampler(timing, rr, root, options);
    return run(model, rr, sampler, options);
  }
  CompatSampler sampler(timing, rr, prng);
  return run(model, rr, sampler, options);
}

PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing,
                                    const PipelineSimOptions& options) {
  Prng prng(options.seed);
  return simulate_pipeline(mapping, model, timing, prng, options);
}

PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    Prng& prng, const PipelineSimOptions& options, AssociationScope scope) {
  options.validate();
  const RoundRobin rr(mapping);
  AssociatedSampler sampler(mapping, rr, size_law.with_mean(1.0), prng,
                            options, scope);
  return run(model, rr, sampler, options);
}

PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    const PipelineSimOptions& options, AssociationScope scope) {
  Prng prng(options.seed);
  return simulate_pipeline_associated(mapping, model, size_law, prng, options,
                                      scope);
}

}  // namespace streamflow
