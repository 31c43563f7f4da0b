#include "workloads.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "bbs/api/engine.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/io/api_io.hpp"

namespace servebench {

using bbs::api::Index;
using bbs::api::Request;
using bbs::model::Configuration;

std::uint64_t Rng::next_u64() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::integer(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

namespace {

/// The structure catalogs of serve_warm and explore_drivers are fixed; the
/// run seed draws the parameters, variants and send order. (A seed-drawn
/// catalog changes which structures share a worker under hash routing,
/// which moved throughput by about 6% between seeds.)
constexpr std::uint64_t kCatalogSeed = 2010;

bbs::gen::GenParams params(Rng& rng, Index processors,
                          double feasible_margin = 1.5) {
  bbs::gen::GenParams p;
  p.num_processors = processors;
  p.feasible_margin = feasible_margin;
  p.seed = rng.next_u64();
  return p;
}

/// Scales every graph's required period by a factor in [1.0, 1.3]: looser
/// than the generated (feasible) requirement, never tighter. Variant v of
/// n draws from the v-th of n equal strata, so each structure's set of
/// scales, and with it the solver work, barely changes between seeds.
void scale_periods(Configuration& config, Rng& rng, int v, int n) {
  for (Index g = 0; g < config.num_task_graphs(); ++g) {
    auto& tg = config.mutable_task_graph(g);
    tg.set_required_period(tg.required_period() *
                           (1.0 + 0.3 * (v + rng.uniform()) / n));
  }
}

/// Caps every buffer at 24..31 containers: far above what these small
/// graphs need, so the caps never bind, but each request rewrites them in
/// place on a pooled session.
void vary_caps(Configuration& config, Rng& rng) {
  for (Index g = 0; g < config.num_task_graphs(); ++g) {
    auto& tg = config.mutable_task_graph(g);
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      tg.set_max_capacity(b, static_cast<Index>(rng.integer(24, 31)));
    }
  }
}

Request make_request(bbs::api::RequestPayload payload) {
  Request r;
  r.payload = std::move(payload);
  return r;
}

void finish(Workload& w) {
  std::unordered_map<std::string, std::uint32_t> ids;
  w.lines.reserve(w.pool.size());
  w.traced_lines.reserve(w.pool.size());
  for (std::size_t i = 0; i < w.pool.size(); ++i) {
    Request& r = w.pool[i];
    r.id = 'q';
    r.id += std::to_string(i);
    w.lines.push_back(
        bbs::io::write_json_compact(bbs::io::request_to_json_value(r)) + "\n");
    Request traced = r;
    traced.options.trace = true;
    w.traced_lines.push_back(
        bbs::io::write_json_compact(bbs::io::request_to_json_value(traced)) +
        "\n");
    const std::string key = bbs::api::request_structure_key(r);
    auto [it, fresh] =
        ids.emplace(key, static_cast<std::uint32_t>(w.keys.size()));
    if (fresh) w.keys.push_back(key);
    w.structure_of.push_back(it->second);
  }
  if (w.warmup.empty()) {
    std::vector<bool> seen(w.keys.size(), false);
    for (std::size_t i = 0; i < w.pool.size(); ++i) {
      if (seen[w.structure_of[i]]) continue;
      seen[w.structure_of[i]] = true;
      w.warmup.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

// --- serve_warm --------------------------------------------------------------

Workload serve_warm(std::uint64_t seed, double seconds) {
  Rng catalog(kCatalogSeed);
  // Sixteen small structures (at most 16 tasks), most popular first.
  // Generated with 2x period slack: at the generators' default 1.5x, warm
  // solves of some multi-job instances round to allocations that fail the
  // platform check while the cold solve's rounding passes (see README).
  const auto p = [&catalog](Index processors) {
    return params(catalog, processors, /*feasible_margin=*/2.0);
  };
  std::vector<Configuration> structures;
  structures.push_back(bbs::gen::car_entertainment_preset());
  structures.push_back(bbs::gen::producer_consumer_t1());
  structures.push_back(bbs::gen::three_stage_chain_t2());
  structures.push_back(bbs::gen::make_chain(4, p(3)));
  structures.push_back(bbs::gen::make_ring(4, p(3)));
  structures.push_back(bbs::gen::make_split_join(2, 2, p(4)));
  structures.push_back(bbs::gen::make_multi_job(2, 3, p(3)));
  structures.push_back(bbs::gen::make_chain(8, p(4)));
  structures.push_back(bbs::gen::make_ring(6, p(4)));
  structures.push_back(bbs::gen::make_split_join(3, 2, p(4)));
  structures.push_back(bbs::gen::make_multi_job(2, 4, p(4)));
  structures.push_back(bbs::gen::make_chain(12, p(4)));
  structures.push_back(bbs::gen::make_ring(8, p(4)));
  structures.push_back(bbs::gen::make_split_join(2, 3, p(4)));
  structures.push_back(bbs::gen::make_multi_job(3, 4, p(4)));
  structures.push_back(bbs::gen::make_multi_job(4, 4, p(4)));

  Rng rng(seed);
  constexpr int kVariants = 16;
  Workload w;
  for (const Configuration& base : structures) {
    for (int v = 0; v < kVariants; ++v) {
      Configuration config = base;
      scale_periods(config, rng, v, kVariants);
      vary_caps(config, rng);
      // 3 of the 16 variants (~20%) are latency requests.
      if (v % 5 != 4) {
        w.pool.push_back(make_request(bbs::api::SolveRequest{config}));
      } else {
        w.pool.push_back(make_request(bbs::api::LatencyRequest{config, -1}));
      }
    }
  }

  // Zipf(s = 1) over the structure ranks, uniform over the variants.
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t r = 0; r < structures.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  const auto length = static_cast<std::size_t>(std::ceil(seconds * 40000.0));
  w.stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.uniform() * total;
    std::size_t s = 0;
    while (s + 1 < cdf.size() && cdf[s] <= u) ++s;
    const auto v = static_cast<std::size_t>(rng.integer(0, kVariants - 1));
    w.stream.push_back(static_cast<std::uint32_t>(s * kVariants + v));
  }
  finish(w);
  return w;
}

// --- explore_drivers ---------------------------------------------------------

Workload explore_drivers(std::uint64_t seed, double seconds) {
  Rng catalog(kCatalogSeed);
  std::vector<Configuration> structures;
  structures.push_back(bbs::gen::car_entertainment_preset());
  structures.push_back(bbs::gen::make_multi_job(3, 6, params(catalog, 4)));
  structures.push_back(bbs::gen::make_random_dag(24, 0.5, params(catalog, 6)));
  structures.push_back(bbs::gen::make_split_join(3, 4, params(catalog, 4)));
  structures.push_back(bbs::gen::make_chain(32, params(catalog, 6)));
  structures.push_back(bbs::gen::three_stage_chain_t2());

  Rng rng(seed);
  constexpr int kVariants = 4;
  Workload w;
  for (const Configuration& base : structures) {
    for (int v = 0; v < kVariants; ++v) {
      Configuration config = base;
      scale_periods(config, rng, v, kVariants);
      const Index graph = v % config.num_task_graphs();
      const double period = config.task_graph(graph).required_period();

      bbs::api::SweepRequest sweep{config};
      sweep.graph = graph;
      sweep.cap_lo = 1;
      sweep.cap_hi = 16;
      w.pool.push_back(make_request(sweep));

      for (const auto flow : {bbs::api::MinPeriodRequest::Flow::kJoint,
                              bbs::api::MinPeriodRequest::Flow::kBudgetFirst}) {
        bbs::api::MinPeriodRequest mp{config};
        mp.graph = graph;
        mp.period_hi = period;
        mp.flow = flow;
        w.pool.push_back(make_request(mp));
      }

      bbs::api::TwoPhaseRequest budget_first{config};
      budget_first.mode = bbs::api::TwoPhaseRequest::Mode::kBudgetFirst;
      w.pool.push_back(make_request(budget_first));

      bbs::api::TwoPhaseRequest buffer_first{config};
      buffer_first.mode = bbs::api::TwoPhaseRequest::Mode::kBufferFirst;
      buffer_first.cap_lo = 2 + v % 3;
      buffer_first.cap_hi = buffer_first.cap_lo + 7;
      w.pool.push_back(make_request(buffer_first));
    }
  }

  // Shuffled passes over the pool: the kind mix is exact per pass, so the
  // median latency does not hop between the kinds' latency modes from run
  // to run as it did under independent draws.
  const auto length = static_cast<std::size_t>(std::ceil(seconds * 2000.0));
  std::vector<std::uint32_t> pass(w.pool.size());
  for (std::uint32_t i = 0; i < pass.size(); ++i) pass[i] = i;
  while (w.stream.size() < length) {
    for (std::size_t i = pass.size() - 1; i > 0; --i) {
      std::swap(pass[i], pass[static_cast<std::size_t>(
                             rng.integer(0, static_cast<std::int64_t>(i)))]);
    }
    w.stream.insert(w.stream.end(), pass.begin(), pass.end());
  }
  finish(w);
  return w;
}

// --- cold_large --------------------------------------------------------------

Configuration fresh_structure(Rng& rng, Index lo, Index hi) {
  const auto tasks = static_cast<Index>(rng.integer(lo, hi));
  const auto processors = static_cast<Index>(rng.integer(4, 8));
  if (rng.uniform() < 0.5) {
    return bbs::gen::make_chain(tasks, params(rng, processors));
  }
  const double extra = rng.uniform(0.3, 0.6);
  return bbs::gen::make_random_dag(tasks, extra, params(rng, processors));
}

Workload cold_large(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  Workload w;
  w.distinct_stream = true;
  const auto length = static_cast<std::size_t>(std::ceil(seconds * 200.0));
  for (std::size_t i = 0; i < length; ++i) {
    w.pool.push_back(
        make_request(bbs::api::SolveRequest{fresh_structure(rng, 32, 96)}));
    w.stream.push_back(static_cast<std::uint32_t>(i));
  }
  // The warm-up pass uses structures of its own, so every stream request
  // still meets an empty pool.
  for (int i = 0; i < 4; ++i) {
    w.warmup.push_back(static_cast<std::uint32_t>(w.pool.size()));
    w.pool.push_back(
        make_request(bbs::api::SolveRequest{fresh_structure(rng, 32, 48)}));
  }
  finish(w);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  if (name == "serve_warm") return serve_warm(seed, seconds);
  if (name == "explore_drivers") return explore_drivers(seed, seconds);
  if (name == "cold_large") return cold_large(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t stream_fingerprint(const Workload& workload) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  for (const std::uint32_t i : workload.warmup) mix(workload.lines[i]);
  for (const std::uint32_t i : workload.stream) mix(workload.lines[i]);
  return h;
}

}  // namespace servebench
