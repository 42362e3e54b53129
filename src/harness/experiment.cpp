#include "harness/experiment.hpp"

#include <numeric>

namespace amac::harness {

std::vector<mac::Value> inputs_all(std::size_t n, mac::Value v) {
  return std::vector<mac::Value>(n, v);
}

std::vector<mac::Value> inputs_alternating(std::size_t n) {
  std::vector<mac::Value> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<mac::Value>(i % 2);
  return v;
}

std::vector<mac::Value> inputs_split(std::size_t n) {
  std::vector<mac::Value> v(n, 0);
  for (std::size_t i = n / 2; i < n; ++i) v[i] = 1;
  return v;
}

std::vector<mac::Value> inputs_random(std::size_t n, util::Rng& rng) {
  std::vector<mac::Value> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<mac::Value>(rng.uniform(0, 1));
  }
  return v;
}

std::vector<mac::Value> inputs_multivalued(std::size_t n, mac::Value limit,
                                           util::Rng& rng) {
  AMAC_EXPECTS(limit >= 1);
  std::vector<mac::Value> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<mac::Value>(
        rng.uniform(0, static_cast<std::uint64_t>(limit) - 1));
  }
  return v;
}

std::vector<std::uint64_t> identity_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::vector<std::uint64_t> permuted_ids(std::size_t n, util::Rng& rng) {
  auto ids = identity_ids(n);
  rng.shuffle(ids);
  return ids;
}

mac::ProcessFactory two_phase_factory(std::vector<mac::Value> inputs,
                                      bool literal_r2_check) {
  return [inputs = std::move(inputs), literal_r2_check](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    return std::make_unique<core::TwoPhaseConsensus>(u, inputs[u],
                                                     literal_r2_check);
  };
}

mac::ProcessFactory flooding_factory(std::vector<mac::Value> inputs,
                                     std::size_t pairs_per_message) {
  const std::size_t n = inputs.size();
  return [inputs = std::move(inputs), n, pairs_per_message](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    return std::make_unique<core::FloodingConsensus>(u, n, inputs[u],
                                                     pairs_per_message);
  };
}

mac::ProcessFactory wpaxos_factory(std::vector<mac::Value> inputs,
                                   std::vector<std::uint64_t> ids,
                                   core::wpaxos::WPaxosConfig config) {
  AMAC_EXPECTS(inputs.size() == ids.size());
  const std::size_t n = inputs.size();
  return [inputs = std::move(inputs), ids = std::move(ids), n,
          config](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    return std::make_unique<core::wpaxos::WPaxos>(ids[u], n, inputs[u],
                                                  config);
  };
}

mac::ProcessFactory anonymous_factory(std::vector<mac::Value> inputs,
                                      std::uint32_t diameter) {
  return [inputs = std::move(inputs), diameter](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    return std::make_unique<core::AnonymousMinFlood>(diameter, inputs[u]);
  };
}

mac::ProcessFactory stability_factory(std::vector<mac::Value> inputs,
                                      std::uint32_t diameter,
                                      std::vector<std::uint64_t> ids,
                                      std::size_t pairs_per_message) {
  AMAC_EXPECTS(inputs.size() == ids.size());
  return [inputs = std::move(inputs), ids = std::move(ids), diameter,
          pairs_per_message](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    return std::make_unique<core::StabilityConsensus>(
        ids[u], diameter, inputs[u], pairs_per_message);
  };
}

mac::ProcessFactory benor_factory(std::vector<mac::Value> inputs,
                                  std::size_t f, std::uint64_t seed) {
  const std::size_t n = inputs.size();
  return [inputs = std::move(inputs), n, f, seed](NodeId u) {
    AMAC_EXPECTS(u < inputs.size());
    util::Hasher h;
    h.mix_u64(seed);
    h.mix_u64(u);
    return std::make_unique<core::BenOr>(n, f, inputs[u], h.digest());
  };
}

const char* algorithm_name(Algorithm a) {
  const auto i = static_cast<std::size_t>(a);
  AMAC_ASSERT(i < kAlgorithmNames.size());
  return kAlgorithmNames[i].data();
}

mac::ProcessFactory algorithm_factory(Algorithm algorithm,
                                      AlgorithmParams params) {
  AMAC_EXPECTS(params.ids.size() == params.inputs.size());
  switch (algorithm) {
    case Algorithm::kTwoPhase:
      return two_phase_factory(std::move(params.inputs));
    case Algorithm::kFlooding:
      return flooding_factory(std::move(params.inputs));
    case Algorithm::kWPaxos:
      return wpaxos_factory(std::move(params.inputs), std::move(params.ids),
                            params.wpaxos);
    case Algorithm::kAnonymous:
      return anonymous_factory(std::move(params.inputs), params.diameter);
    case Algorithm::kStability:
      return stability_factory(std::move(params.inputs), params.diameter,
                               std::move(params.ids));
    case Algorithm::kBenOr:
      return benor_factory(std::move(params.inputs), params.benor_f,
                           params.seed);
  }
  AMAC_ASSERT(false);
  return {};
}

mac::ProtocolStats collect_protocol_stats(const mac::Network& net) {
  mac::ProtocolStats stats;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    net.process(u).protocol_stats(stats);
  }
  return stats;
}

Outcome run_consensus(const net::Graph& graph,
                      const mac::ProcessFactory& factory,
                      mac::Scheduler& scheduler,
                      const std::vector<mac::Value>& inputs,
                      mac::Time max_time) {
  mac::Network net(graph, factory, scheduler);
  const auto result = net.run(mac::StopWhen::kAllDecided, max_time);
  Outcome out;
  out.verdict = verify::check_consensus(net, inputs);
  out.stats = net.stats();
  out.end_time = result.end_time;
  return out;
}

}  // namespace amac::harness
