// Layer probes of the gated workloads' traced runs: fixed measurements of
// the common, dist and serve layers through their public functions, run
// after the traced pass of analyze_mix and of simulate_replicated alike,
// so each of those runs reports every catalogued per-layer metric.
//
//   common.refill_ns_per_draw      BufferedPrng::take
//   dist.sample_ns_per_draw.<law>  Distribution::sample_batch
//   serve.parse_us                 FlatRequest::parse
//   serve.handle_us.analyze        a storeless handle_request
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffered_prng.hpp"
#include "common/prng.hpp"
#include "dist/distribution.hpp"
#include "inputs.hpp"
#include "model/serialization.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

/// Median over three repeats of the cost per draw of `draw(n)`.
template <typename Fn>
double ns_per_draw(std::size_t n, Fn&& draw) {
  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    draw(n);
    times.push_back((now_s() - t0) * 1e9 / static_cast<double>(n));
  }
  return median(times);
}

}  // namespace

void add_layer_probes(std::uint64_t seed, Metrics& m) {
  constexpr std::size_t kRawDraws = std::size_t{1} << 24;
  constexpr std::size_t kLawDraws = std::size_t{1} << 21;
  std::uint64_t sink = 0;
  m["common.refill_ns_per_draw"] = ns_per_draw(kRawDraws, [&](std::size_t n) {
    BufferedPrng prng{Prng(seed)};
    std::size_t drawn = 0;
    while (drawn < n) {
      const std::uint64_t* run = nullptr;
      const std::size_t got = prng.take(&run, n - drawn);
      sink ^= run[got - 1];
      drawn += got;
    }
  });
  double draws = 3.0 * kRawDraws;
  std::vector<double> out(4096);
  for (const char* spec :
       {"exp:1", "weibull:1.5,1", "gamma:2,0.5", "gauss:1,0.3"}) {
    const DistributionPtr law = parse_distribution(spec);
    const std::string family(spec, std::string(spec).find(':'));
    m["dist.sample_ns_per_draw." + family] =
        ns_per_draw(kLawDraws, [&](std::size_t n) {
          BufferedPrng prng{Prng(seed)};
          for (std::size_t done = 0; done < n; done += out.size()) {
            law->sample_batch(prng, out.data(), out.size());
          }
          sink ^= static_cast<std::uint64_t>(out.back());
        });
    draws += 3.0 * kLawDraws;
  }
  m["dist.draws"] = draws;
  note("draw probe checksum " + std::to_string(sink));

  // Serve: every variant of each pattern-chain class as a serve `analyze`
  // request line, in a seeded order, parsed and handled storeless from
  // outside the loop (serve_mixed measures the loop itself).
  std::vector<double> parse_us;
  std::vector<double> handle_us;
  const std::vector<AnalyzeClass>& classes = analyze_classes();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    if (classes[k].method != ExponentialMethod::kColumns) continue;
    VariantStream variants(seed, 300 + k);
    for (std::size_t i = 0; i < kVariants; ++i) {
      const std::string line =
          "{\"id\":" + std::to_string(parse_us.size()) +
          ",\"op\":\"analyze\",\"instance\":\"" +
          json_escape(instance_to_string(
              analyze_instance(classes[k], variants.next()))) +
          "\"}";
      double t0 = now_s();
      (void)FlatRequest::parse(line);
      parse_us.push_back((now_s() - t0) * 1e6);
      t0 = now_s();
      const HandledRequest handled = handle_request(line, ServeOptions{});
      handle_us.push_back((now_s() - t0) * 1e6);
      if (handled.is_error) {
        throw std::runtime_error("serve probe: analyze request failed: " +
                                 handled.response);
      }
    }
  }
  m["serve.parse_us"] = mean(parse_us);
  m["serve.handle_us.analyze"] = mean(handle_us);
}

}  // namespace perfbench
