// eppi_cli — command-line front end for the ε-PPI library.
//
//   eppi_cli build <collection.csv> <out.idx> [options]
//       Builds the ε-PPI for a provider,identity membership table and saves
//       the published index as compressed eppi-index-v3 (the identity
//       names ride along as the lexicon section). Options:
//         --eps <x>          default privacy degree (default 0.6)
//         --eps-file <f>     per-owner degrees: lines of identity,eps
//                            (owners not listed use --eps)
//         --policy <name>    basic | incexp | chernoff (default chernoff)
//         --gamma <x>        Chernoff success ratio (default 0.9)
//         --delta <x>        inc-exp increment (default 0.02)
//         --distributed      run the trust-free multi-party construction
//         --c <n>            coordinator count for --distributed (default 3)
//         --seed <n>         RNG seed (default 1)
//         --no-mixing        disable the common-identity defense (ablation)
//
//   eppi_cli query <index.idx> <collection.csv> <identity> [identity ...]
//       Loads a saved index and answers QueryPPI using the CSV for names.
//
//   eppi_cli stats <index.idx>
//       Prints dimensions, density and the apparent-frequency profile.
//
//   eppi_cli fsck <path>
//       Integrity check with section-level reporting. <path> may be a single
//       index file (either format version) or an epoch-store directory
//       (manifest framing, sticky record, every referenced epoch file,
//       orphan detection). Exit 0 when clean, 1 when corruption or crash
//       artifacts are found — suitable as a CI gate.
//
//   eppi_cli audit <index.idx> <collection.csv> [--eps x]
//       Privacy audit of a published index against the ground-truth table:
//       measured attacker confidences under the primary and common-identity
//       attacks, per-owner bound satisfaction, and the resulting privacy
//       degrees (eps-PRIVATE / NoGuarantee / NoProtect).
//
//   eppi_cli party <collection.csv> --id I --port-base P [options]
//       Runs ONE provider of the distributed construction as a real network
//       process: provider I (by CSV order) listens on 127.0.0.1:P+I and
//       meshes with the other providers at P+j. Start one process per
//       provider; each learns only its own row and the protocol's public
//       outputs. Prints this provider's published row as CSV claims.
//       Additional options: --eps x, --c n, --host-file f (one host:port
//       per line overrides the loopback mesh).
//
//   eppi_cli serve [<collection.csv>] [options]
//       Exercises the concurrent serving tier (docs/serving.md): builds a
//       LocatorService from the table, then hammers QueryPPI from reader
//       threads — optionally while a writer thread rebuilds and swaps
//       epochs — and prints the eppi_serving_* counters and latency
//       quantiles. Options:
//         --eps <x>        privacy degree for every owner (default 0.6)
//         --threads <T>    reader threads (default 2)
//         --queries <N>    query calls per reader (default 10000)
//         --batch <B>      owners per call; B>1 uses QueryPPI-many (default 1)
//         --rebuilds <R>   concurrent epoch rebuild/swaps (default 0)
//         --seed <n>       RNG seed (default 1)
//         --smoke          built-in synthetic table, no CSV needed; shrinks
//                          the default workload — the CI observability gate
//         --prom           dump the metrics registry as Prometheus text on
//                          stdout (the human summary moves to stderr, so
//                          `serve --smoke --prom | eppi_cli stats` works)
//         --trace <path>   drain the process trace ring and write it as
//                          JSONL (crash-safe atomic write)
//
//   eppi_cli stats [<index.idx> | -]
//       With an index file (any version): dimensions, density and
//       apparent-frequency profile, plus the v3 compression story — shard
//       topology, lexicon size, per-codec row/byte breakdown (matching
//       the serving tier's eppi_index_bytes{codec=...} gauges) and the
//       reduction vs the dense-matrix equivalent.
//       With `-` (or no argument when stdin is piped): reads
//       Prometheus text exposition from stdin, validates it line by line
//       and prints a per-family sample summary; exit 1 on malformed input.
//
//   eppi_cli trace <trace.jsonl> [--expect-bytes N]
//       Replays an exported JSONL trace (serve/party --trace or a test run)
//       into the paper's Fig. 6 per-phase cost table: one row per protocol
//       phase with summed time, bytes, messages and rounds across parties.
//       Merged multi-process traces additionally get the compute/wait/stall
//       decomposition and the cross-process critical path.
//       --expect-bytes fails (exit 1) unless the summed phase bytes equal N
//       — the CI hook that pins the trace to the CostMeter ground truth.
//
//   eppi_cli trace merge <out.jsonl> <in.jsonl...> [options]
//       Joins per-process trace exports (one per party) into one causally
//       ordered timeline: net.recv spans matched to their remote sender
//       spans give cross-process edges; per-process clock offsets are
//       estimated from the matched send/recv pairs (difference constraints,
//       so no matched first-transmission pair ends up received before it
//       was sent); send_ns attributes are rebased into the merged clock.
//       Prints the merge report (offsets, edge counts, violations).
//         --require-edges N    exit 1 unless >= N cross-process edges
//         --max-violations N   exit 1 if more than N causality violations
//       Both gates back the multiprocess smoke: a merged m=4 run must
//       reconstruct real cross-process parent links with zero violations.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "attack/threat_report.h"
#include "core/constructor.h"
#include "core/distributed_constructor.h"
#include "core/construction_party.h"
#include "core/epoch_store.h"
#include "core/index_io.h"
#include "core/locator_http.h"
#include "core/locator_service.h"
#include "core/posting_index.h"
#include "dataset/collection_table.h"
#include "net/mini_http.h"
#include "net/socket_transport.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "obs/trace_merge.h"
#include "obs/trace_replay.h"
#include "storage/posix_vfs.h"

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  eppi_cli build <collection.csv> <out.idx> [--eps x] "
         "[--policy basic|incexp|chernoff]\n"
         "           [--gamma x] [--delta x] [--distributed] [--c n] "
         "[--seed n] [--no-mixing]\n"
         "  eppi_cli query <index.idx> <collection.csv> <identity> "
         "[identity ...]\n"
         "  eppi_cli stats <index.idx | ->   (- validates Prometheus text "
         "from stdin)\n"
         "  eppi_cli fsck <index.idx | store-dir>\n"
         "  eppi_cli party <collection.csv> --id I --port-base P "
         "[--eps x] [--c n] [--host-file f]\n"
         "           [--ft] [--seed n] [--listen-port P] [--metrics-port P] "
         "[--linger] [--trace out.jsonl]\n"
         "           [--heartbeat-ms H] [--heartbeat-timeout-ms T] "
         "[--stage-timeout-ms T] [--connect-timeout-ms T]\n"
         "  eppi_cli audit <index.idx> <collection.csv> [--eps x]\n"
         "  eppi_cli serve [<collection.csv>] [--eps x] [--threads T] "
         "[--queries N] [--batch B]\n"
         "           [--rebuilds R] [--seed n] [--smoke] [--prom] "
         "[--trace out.jsonl] [--listen PORT] [--no-delta]\n"
         "  eppi_cli trace <trace.jsonl> [--expect-bytes N]\n"
         "  eppi_cli trace merge <out.jsonl> <in.jsonl...> "
         "[--require-edges N] [--max-violations N]\n";
  return 2;
}

eppi::dataset::CollectionTable load_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw eppi::ConfigError("cannot open " + path);
  return eppi::dataset::load_collection_table(file);
}

// Per-owner privacy degrees: `identity,eps` lines override the default.
std::vector<double> load_epsilons(
    const eppi::dataset::CollectionTable& table, double default_eps,
    const std::string& eps_file) {
  std::vector<double> epsilons(table.network.identities(), default_eps);
  if (eps_file.empty()) return epsilons;
  std::ifstream file(eps_file);
  if (!file) throw eppi::ConfigError("cannot open " + eps_file);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) {
      throw eppi::ConfigError("eps file: malformed line " +
                              std::to_string(line_no));
    }
    const std::string name = line.substr(0, comma);
    const double eps = std::stod(line.substr(comma + 1));
    if (eps < 0.0 || eps > 1.0) {
      throw eppi::ConfigError("eps file: epsilon out of [0,1] on line " +
                              std::to_string(line_no));
    }
    const auto it = std::find(table.identity_names.begin(),
                              table.identity_names.end(), name);
    if (it == table.identity_names.end()) {
      throw eppi::ConfigError("eps file: unknown identity " + name);
    }
    epsilons[static_cast<std::size_t>(it - table.identity_names.begin())] =
        eps;
  }
  return epsilons;
}

eppi::core::PpiIndex load_idx(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw eppi::ConfigError("cannot open " + path);
  return eppi::core::load_index(file);
}

int cmd_build(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string csv_path = args[0];
  const std::string out_path = args[1];
  double eps = 0.6;
  std::string eps_file;
  std::string policy_name = "chernoff";
  double gamma = 0.9;
  double delta = 0.02;
  bool distributed = false;
  bool mixing = true;
  std::size_t c = 3;
  std::uint64_t seed = 1;
  for (std::size_t a = 2; a < args.size(); ++a) {
    const std::string& arg = args[a];
    const auto next = [&]() -> const std::string& {
      if (a + 1 >= args.size()) throw eppi::ConfigError(arg + " needs a value");
      return args[++a];
    };
    if (arg == "--eps") {
      eps = std::stod(next());
    } else if (arg == "--eps-file") {
      eps_file = next();
    } else if (arg == "--policy") {
      policy_name = next();
    } else if (arg == "--gamma") {
      gamma = std::stod(next());
    } else if (arg == "--delta") {
      delta = std::stod(next());
    } else if (arg == "--distributed") {
      distributed = true;
    } else if (arg == "--no-mixing") {
      mixing = false;
    } else if (arg == "--c") {
      c = std::stoul(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else {
      throw eppi::ConfigError("unknown option " + arg);
    }
  }

  eppi::core::BetaPolicy policy;
  if (policy_name == "basic") {
    policy = eppi::core::BetaPolicy::basic();
  } else if (policy_name == "incexp") {
    policy = eppi::core::BetaPolicy::inc_exp(delta);
  } else if (policy_name == "chernoff") {
    policy = eppi::core::BetaPolicy::chernoff(gamma);
  } else {
    throw eppi::ConfigError("unknown policy " + policy_name);
  }

  const auto table = load_csv(csv_path);
  const auto& net = table.network;
  const std::vector<double> epsilons = load_epsilons(table, eps, eps_file);
  std::cerr << "building index over " << net.providers() << " providers / "
            << net.identities() << " identities (" << policy_name
            << ", eps=" << eps << (distributed ? ", distributed" : "")
            << ")\n";

  eppi::core::PpiIndex index;
  if (distributed) {
    eppi::core::DistributedOptions options;
    options.policy = policy;
    options.enable_mixing = mixing;
    options.c = c;
    options.seed = seed;
    auto result = eppi::core::construct_distributed(net.membership,
                                                    epsilons, options);
    std::cerr << "protocol: " << result.report.total_cost.messages
              << " messages, " << result.report.total_cost.rounds
              << " rounds; " << result.report.common_count
              << " common identities, lambda=" << result.report.lambda
              << '\n';
    index = std::move(result.index);
  } else {
    eppi::core::ConstructionOptions options;
    options.policy = policy;
    options.enable_mixing = mixing;
    eppi::Rng rng(seed);
    auto result = eppi::core::construct_centralized(net.membership, epsilons,
                                                    options, rng);
    std::cerr << "lambda=" << result.info.lambda << ", xi=" << result.info.xi
              << '\n';
    index = std::move(result.index);
  }

  // Crash-safe write: a killed build leaves either the previous index or a
  // quarantinable .tmp, never a torn file that later loads half-garbage.
  // Written as compressed v3 with the collection table's identity names as
  // the lexicon, so `stats`/`query` can resolve names from the file alone.
  std::vector<std::pair<std::string, eppi::core::IdentityId>> names;
  for (std::size_t j = 0; j < table.identity_names.size(); ++j) {
    names.emplace_back(table.identity_names[j],
                       static_cast<eppi::core::IdentityId>(j));
  }
  const eppi::core::Lexicon lexicon(std::move(names));
  eppi::storage::PosixVfs vfs;
  eppi::storage::atomic_write_file(
      vfs, out_path,
      eppi::core::save_index_v3_bytes(eppi::core::PostingIndex(index),
                                      &lexicon));
  std::cerr << "wrote " << out_path << '\n';
  return 0;
}

int cmd_fsck(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const std::string& path = args[0];
  eppi::storage::PosixVfs vfs;
  const eppi::core::FsckReport report =
      std::filesystem::is_directory(path)
          ? eppi::core::fsck_store(vfs, path)
          : eppi::core::fsck_index_file(vfs, path);
  for (const auto& note : report.notes) {
    std::cout << "note: " << note << '\n';
  }
  for (const auto& issue : report.issues) {
    std::cout << "CORRUPT " << issue.file << " [" << issue.section
              << "]: " << issue.message << '\n';
  }
  std::cout << (report.ok ? "clean" : "corrupt") << " ("
            << report.files_checked << " file(s) checked, "
            << report.issues.size() << " issue(s))\n";
  return report.ok ? 0 : 1;
}

int cmd_query(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const auto index = load_idx(args[0]);
  const auto table = load_csv(args[1]);
  if (index.providers() != table.network.providers() ||
      index.identities() != table.network.identities()) {
    throw eppi::ConfigError("index and collection table shapes differ");
  }
  const eppi::core::PostingIndex postings(index);
  for (std::size_t a = 2; a < args.size(); ++a) {
    const std::string& name = args[a];
    const auto it = std::find(table.identity_names.begin(),
                              table.identity_names.end(), name);
    if (it == table.identity_names.end()) {
      std::cout << name << ": unknown identity\n";
      continue;
    }
    const auto id = static_cast<eppi::core::IdentityId>(
        it - table.identity_names.begin());
    std::cout << name << ':';
    for (const auto p : postings.query(id)) {
      std::cout << ' ' << table.provider_names[p];
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_audit(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto index = load_idx(args[0]);
  const auto table = load_csv(args[1]);
  double eps = 0.6;
  for (std::size_t a = 2; a < args.size(); ++a) {
    if (args[a] == "--eps" && a + 1 < args.size()) {
      eps = std::stod(args[++a]);
    } else {
      throw eppi::ConfigError("unknown option " + args[a]);
    }
  }
  const auto& net = table.network;
  if (index.providers() != net.providers() ||
      index.identities() != net.identities()) {
    throw eppi::ConfigError("index and collection table shapes differ");
  }
  const std::vector<double> epsilons(net.identities(), eps);
  // Ground-truth common flags under the default policy.
  const auto policy = eppi::core::BetaPolicy::chernoff(0.9);
  const auto thresholds = eppi::core::common_thresholds(
      policy, epsilons, net.providers());
  std::vector<bool> common(net.identities());
  for (std::size_t j = 0; j < net.identities(); ++j) {
    common[j] = net.membership.col_count(j) >= thresholds[j];
  }
  eppi::Rng rng(1);
  const auto report = eppi::attack::audit_index(
      net.membership, index.matrix(), epsilons, common, rng);
  std::cout << "primary attack:\n"
            << "  mean confidence:    " << report.primary_mean_confidence
            << "\n  bound satisfaction: " << report.bound_satisfaction
            << " over " << report.owners_classified << " feasible owners\n"
            << "  degree:             "
            << eppi::attack::to_string(report.primary_degree) << '\n';
  std::cout << "common-identity attack:\n"
            << "  candidates flagged: " << report.common_candidates
            << " (true commons among them: " << report.common_hits << ")\n"
            << "  identification confidence: "
            << report.common_identification_confidence
            << " (xi = " << report.xi << ")\n"
            << "  degree:             "
            << eppi::attack::to_string(report.common_degree) << '\n';
  return 0;
}

// Drains the process trace ring and writes it as JSONL, crash-safe. Shared
// by `party --trace`, `serve --trace`, and the HTTP /trace endpoints (which
// skip the file and return the body). Draining advances the ring watermark,
// so file export and endpoint scrapes see disjoint event batches.
void write_trace_file(const std::string& path) {
  const std::string jsonl =
      eppi::obs::to_jsonl(eppi::obs::default_sink().drain());
  eppi::storage::PosixVfs vfs;
  eppi::storage::atomic_write_file(
      vfs, path,
      std::span(reinterpret_cast<const std::uint8_t*>(jsonl.data()),
                jsonl.size()));
  std::cerr << "wrote trace (" << jsonl.size() << " bytes) to " << path
            << '\n';
}

// SIGTERM/SIGINT request a clean drain: finish the work in flight, tear the
// runtime down in order, exit 0. Handlers only set the flag; drain points
// poll it.
volatile std::sig_atomic_t g_terminate = 0;

void install_terminate_handler() {
  struct sigaction sa{};
  sa.sa_handler = [](int) { g_terminate = 1; };
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

int cmd_party(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string csv_path = args[0];
  std::size_t id = 0;
  bool have_id = false;
  std::uint16_t port_base = 0;
  double eps = 0.6;
  std::string eps_file;
  std::size_t c = 2;
  std::string host_file;
  bool ft = false;
  std::uint64_t seed = 1;
  std::uint16_t listen_port = 0;
  std::uint16_t metrics_port = 0;
  bool have_metrics_port = false;
  int connect_timeout_ms = 10000;
  std::size_t heartbeat_ms = 500;
  std::size_t heartbeat_timeout_ms = 2000;
  std::size_t stage_timeout_ms = 0;
  bool linger = false;
  std::string trace_path;
  for (std::size_t a = 1; a < args.size(); ++a) {
    const std::string& arg = args[a];
    const auto next = [&]() -> const std::string& {
      if (a + 1 >= args.size()) throw eppi::ConfigError(arg + " needs a value");
      return args[++a];
    };
    if (arg == "--id") {
      id = std::stoul(next());
      have_id = true;
    } else if (arg == "--port-base") {
      port_base = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (arg == "--eps") {
      eps = std::stod(next());
    } else if (arg == "--eps-file") {
      eps_file = next();
    } else if (arg == "--c") {
      c = std::stoul(next());
    } else if (arg == "--host-file") {
      host_file = next();
    } else if (arg == "--ft") {
      ft = true;
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--listen-port") {
      listen_port = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (arg == "--metrics-port") {
      metrics_port = static_cast<std::uint16_t>(std::stoul(next()));
      have_metrics_port = true;
    } else if (arg == "--connect-timeout-ms") {
      connect_timeout_ms = static_cast<int>(std::stoul(next()));
    } else if (arg == "--heartbeat-ms") {
      heartbeat_ms = std::stoul(next());
    } else if (arg == "--heartbeat-timeout-ms") {
      heartbeat_timeout_ms = std::stoul(next());
    } else if (arg == "--stage-timeout-ms") {
      stage_timeout_ms = std::stoul(next());
    } else if (arg == "--linger") {
      linger = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else {
      throw eppi::ConfigError("unknown option " + arg);
    }
  }
  if (!have_id || (port_base == 0 && host_file.empty())) return usage();

  const auto table = load_csv(csv_path);
  const auto& net = table.network;
  const std::size_t m = net.providers();
  if (id >= m) throw eppi::ConfigError("--id out of range for this table");

  std::vector<eppi::net::Endpoint> endpoints(m);
  if (!host_file.empty()) {
    std::ifstream hosts(host_file);
    if (!hosts) throw eppi::ConfigError("cannot open " + host_file);
    std::string line;
    std::size_t k = 0;
    while (std::getline(hosts, line) && k < m) {
      const auto colon = line.rfind(':');
      if (colon == std::string::npos) {
        throw eppi::ConfigError("host file line needs host:port");
      }
      endpoints[k].host = line.substr(0, colon);
      endpoints[k].port =
          static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
      ++k;
    }
    if (k != m) throw eppi::ConfigError("host file must list one endpoint per provider");
  } else {
    for (std::size_t k = 0; k < m; ++k) {
      endpoints[k].port = static_cast<std::uint16_t>(port_base + k);
    }
  }

  // My private input: this provider's row only.
  std::vector<std::uint8_t> my_row(net.identities());
  for (std::size_t j = 0; j < net.identities(); ++j) {
    my_row[j] = net.membership.get(id, j) ? 1 : 0;
  }
  const std::vector<double> epsilons = load_epsilons(table, eps, eps_file);

  eppi::core::DistributedOptions options;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.c = c;
  options.seed = seed;
  if (ft) {
    options.fault_tolerance.enabled = true;
    options.fault_tolerance.reliable_delivery = true;
    if (stage_timeout_ms != 0) {
      options.fault_tolerance.stage_timeout =
          std::chrono::milliseconds(stage_timeout_ms);
    }
  }

  install_terminate_handler();

  // The metrics endpoint comes up before the mesh so an operator can watch
  // reconnect/heartbeat counters while the mesh is still forming.
  std::unique_ptr<eppi::net::MiniHttpServer> http;
  if (have_metrics_port) {
    http = std::make_unique<eppi::net::MiniHttpServer>(
        metrics_port, [](const eppi::net::HttpRequest& req) {
          eppi::net::HttpResponse resp;
          if (req.path == "/healthz") {
            resp.body = "ok\n";
          } else if (req.path == "/metrics") {
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
            resp.body = eppi::obs::Registry::global().render_prometheus();
          } else if (req.path == "/trace") {
            resp = eppi::core::trace_response();
          } else {
            resp.status = 404;
            resp.body = "not found\n";
          }
          return resp;
        });
    http->start();
    std::cerr << "party " << id << " metrics on port " << http->port()
              << '\n';
  }

  eppi::net::SocketRuntimeOptions runtime_options;
  runtime_options.rng_seed = seed;
  runtime_options.connect_timeout_ms = connect_timeout_ms;
  runtime_options.listen_port_override = listen_port;
  runtime_options.heartbeat_interval = std::chrono::milliseconds(heartbeat_ms);
  runtime_options.heartbeat_timeout =
      std::chrono::milliseconds(heartbeat_timeout_ms);
  if (ft) {
    runtime_options.reliable = true;
    runtime_options.reliable_options = options.fault_tolerance.reliable;
    // Plain receives must outlast one full FT stage plus its retries.
    runtime_options.recv_timeout =
        options.fault_tolerance.mpc_timeout + std::chrono::seconds(5);
  }
  std::cerr << "party " << id << "/" << m << " ("
            << table.provider_names[id] << ") joining mesh...\n";
  eppi::net::SocketRuntime runtime(static_cast<eppi::net::PartyId>(id),
                                   endpoints, runtime_options);
  const auto result = eppi::core::run_construction_party(
      runtime.context(), my_row, epsilons, options);

  std::cerr << "construction complete; published claims:\n";
  for (std::size_t j = 0; j < net.identities(); ++j) {
    if (result.published_row[j] != 0) {
      std::cout << table.provider_names[id] << ','
                << table.identity_names[j] << '\n';
    }
  }
  if (result.coordinator) {
    std::cerr << "coordinator view: " << result.coordinator->common_count
              << " common identities, lambda="
              << result.coordinator->lambda << '\n';
  }
  std::cout.flush();

  // With --linger the process stays up after construction (metrics stay
  // scrapeable, the mesh keeps heartbeating) until SIGTERM, then drains.
  if (linger) {
    std::cerr << "party " << id << " lingering until SIGTERM\n";
    while (g_terminate == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "party " << id << " draining\n";
  }
  runtime.shutdown();
  // This party's CostMeter ground truth — the protocol-level meter the
  // phase spans snapshot (first-time sends; transport acks/retransmits are
  // framing, not protocol cost). The smoke gate sums these lines across
  // parties and pins the merged trace's replayed totals to them exactly.
  const auto cost = runtime.context().local_meter().snapshot();
  std::cerr << "cost: bytes=" << cost.bytes << " messages=" << cost.messages
            << " rounds=" << cost.rounds << '\n';
  // Export after shutdown: the drain phase can still materialize net.recv
  // spans, and a SIGTERM'd linger run must flush them too.
  if (!trace_path.empty()) write_trace_file(trace_path);
  if (http) http->stop();
  return 0;
}

// Deterministic built-in table for `serve --smoke`: big enough to exercise
// readers, rebuilds and every metric family, small enough for a CI gate.
eppi::dataset::CollectionFacts smoke_facts() {
  std::ostringstream csv;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if ((i + j) % 3 != 0) csv << "prov" << i << ",owner" << j << '\n';
    }
  }
  std::istringstream in(csv.str());
  return eppi::dataset::load_collection_facts(in);
}

int cmd_serve(const std::vector<std::string>& args) {
  // Pin glibc's heap policy. Each /query answer is a buffer of a few hundred
  // KiB from the main arena; with the default dynamic thresholds, whether
  // freeing it trims the heap top (and the next answer faults its pages in
  // again) depends on what set-up left on the heap, so request latency
  // moved with unrelated changes to set-up. Fixed thresholds keep blocks
  // under 4 MiB in the heap and trim only past 64 MiB of free top.
  ::mallopt(M_MMAP_THRESHOLD, 4 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);

  std::string csv_path;
  double eps = 0.6;
  std::size_t threads = 2;
  std::size_t queries = 10000;
  bool queries_set = false;
  std::size_t batch = 1;
  std::size_t rebuilds = 0;
  bool rebuilds_set = false;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool prom = false;
  bool no_delta = false;
  std::string trace_path;
  std::uint16_t listen_port = 0;
  bool listen_set = false;
  for (std::size_t a = 0; a < args.size(); ++a) {
    const std::string& arg = args[a];
    const auto next = [&]() -> const std::string& {
      if (a + 1 >= args.size()) throw eppi::ConfigError(arg + " needs a value");
      return args[++a];
    };
    if (arg == "--eps") {
      eps = std::stod(next());
    } else if (arg == "--listen") {
      listen_port = static_cast<std::uint16_t>(std::stoul(next()));
      listen_set = true;
    } else if (arg == "--threads") {
      threads = std::stoul(next());
    } else if (arg == "--queries") {
      queries = std::stoul(next());
      queries_set = true;
    } else if (arg == "--batch") {
      batch = std::stoul(next());
    } else if (arg == "--rebuilds") {
      rebuilds = std::stoul(next());
      rebuilds_set = true;
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--prom") {
      prom = true;
    } else if (arg == "--no-delta") {
      no_delta = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (!arg.empty() && arg[0] == '-') {
      throw eppi::ConfigError("unknown option " + arg);
    } else if (csv_path.empty()) {
      csv_path = arg;
    } else {
      throw eppi::ConfigError("unexpected argument " + arg);
    }
  }
  if (csv_path.empty() && !smoke) return usage();
  if (threads == 0 || batch == 0) {
    throw eppi::ConfigError("--threads and --batch must be positive");
  }
  if (smoke) {
    // A smoke run must finish in well under a second; still defaults to one
    // rebuild so the swap/publish paths show up in the exposition.
    if (!queries_set) queries = 500;
    if (!rebuilds_set) rebuilds = 1;
  }

  // The facts alone, never the dense m×n table, in file order: they are
  // delegated in bulk, and delegate_facts numbers every id as a row-major
  // walk over the table (providers ascending, then identities) would,
  // whatever order the file lists them in.
  auto table = [&] {
    eppi::obs::Span span("serve.load");
    auto loaded = [&] {
      if (smoke) return smoke_facts();
      std::ifstream file(csv_path);
      if (!file) throw eppi::ConfigError("cannot open " + csv_path);
      return eppi::dataset::load_collection_facts(file);
    }();
    span.attr("facts", loaded.facts.size());
    span.attr("owners", loaded.identity_names.size());
    span.attr("providers", loaded.provider_names.size());
    return loaded;
  }();
  const std::size_t providers = table.provider_names.size();
  const std::size_t identities = table.identity_names.size();
  if (identities == 0) throw eppi::ConfigError("table has no identities");

  eppi::core::LocatorService::Options options;
  options.distributed = false;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.seed = seed;
  // --no-delta is the operational escape hatch: every admin-driven rebuild
  // becomes a full one (delta epochs are otherwise on by default).
  options.enable_delta = !no_delta;
  eppi::core::LocatorService service(options);
  service.delegate_facts(table.identity_names, table.provider_names,
                         table.facts, eps);
  // Delegated: the service keeps the truth. Moving an empty vector in
  // frees the storage (`= {}` would keep the capacity).
  table.facts = decltype(table.facts)();
  // The daemon resolves names through the service's lexicon alone, so it
  // frees the loaded names before the first build, whose peak can then
  // reuse that heap. The benchmark mode below still reads them.
  if (listen_set) table.identity_names = decltype(table.identity_names)();
  service.construct_ppi();

  if (listen_set) {
    // Daemon mode: expose the locator over HTTP until SIGTERM/SIGINT, then
    // drain in-flight requests and exit cleanly. stdout stays quiet so
    // supervisors can reserve it; operational chatter goes to stderr.
    //
    // Besides the read path (/query), the daemon accepts membership churn:
    // POST /delegate, /retire and /rebuild (the next epoch is published
    // incrementally when only a few owners moved, unless --no-delta). The
    // routes live in core/locator_http.h.
    install_terminate_handler();
    eppi::core::LocatorHttp routes(service);
    eppi::net::MiniHttpServer http(
        listen_port,
        [&](const eppi::net::HttpRequest& req) { return routes(req); });
    http.start();
    std::cerr << "eppi_serve: " << identities << " owners across "
              << providers << " providers; HTTP on port " << http.port()
              << " (/healthz /metrics /trace /slowlog /query /delegate "
                 "/retire /rebuild); SIGTERM drains\n";
    while (g_terminate == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "eppi_serve: terminate signal received; draining\n";
    http.stop();
    const auto status = service.serving_status();
    const auto metrics = service.metrics();
    std::cerr << "eppi_serve: final epoch " << status.epoch
              << (status.degraded ? " (degraded)" : "") << "; "
              << metrics.queries << " single + " << metrics.batches
              << " batched queries, " << metrics.owners_resolved
              << " owners resolved\n";
    return 0;
  }

  std::cerr << "serving " << identities << " owners across "
            << providers << " providers; " << threads
            << " reader thread(s) x " << queries << " call(s), batch="
            << batch << ", concurrent rebuilds=" << rebuilds << '\n';

  // Readers hammer the snapshot; one optional writer swaps epochs under
  // them by toggling owner 0's privacy degree (serving never pauses).
  std::atomic<std::size_t> readers_left{threads};
  std::thread writer;
  if (rebuilds > 0) {
    writer = std::thread([&] {
      for (std::size_t k = 0; k < rebuilds; ++k) {
        if (readers_left.load(std::memory_order_acquire) == 0) break;
        service.delegate(table.identity_names[0],
                         (k % 2 == 0) ? 0.9 : 0.1, table.provider_names[0]);
        service.construct_ppi();
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < threads; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::string> owners(batch);
      for (std::size_t q = 0; q < queries; ++q) {
        if (batch == 1) {
          (void)service.query_ppi(
              table.identity_names[(r + q) % identities]);
        } else {
          for (std::size_t b = 0; b < batch; ++b) {
            owners[b] = table.identity_names[(r + q + b) % identities];
          }
          (void)service.query_ppi_many(owners);
        }
      }
      readers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : readers) t.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (writer.joinable()) writer.join();

  const auto status = service.serving_status();
  const auto metrics = service.metrics();
  // With --prom the machine-readable exposition owns stdout; the human
  // summary moves to stderr so `serve --prom | eppi_cli stats` stays clean.
  std::ostream& out = prom ? std::cerr : std::cout;
  out << "epoch:            " << status.epoch
      << (status.degraded ? " (degraded)" : "") << '\n'
      << "queries:          " << metrics.queries << " single, "
      << metrics.batches << " batched\n"
      << "owners resolved:  " << metrics.owners_resolved << " ("
      << static_cast<std::uint64_t>(
             seconds > 0.0
                 ? static_cast<double>(metrics.owners_resolved) / seconds
                 : 0.0)
      << "/s)\n"
      << "latency p50/p99:  " << metrics.latency.quantile(0.5)
      << " / " << metrics.latency.quantile(0.99) << " us per call\n"
      << "epoch swaps:      " << metrics.epoch_swaps << '\n'
      << "degraded serves:  " << metrics.degraded_serves << '\n'
      << "unknown owners:   " << metrics.unknown_owners << '\n';
  if (prom) {
    std::cout << eppi::obs::Registry::global().render_prometheus();
  }
  if (!trace_path.empty()) write_trace_file(trace_path);
  return 0;
}

// --- Prometheus text validation (`eppi_cli stats -`) ---------------------
//
// A deliberately strict reader for the exposition this binary itself emits:
// `# HELP`/`# TYPE` comments plus `name{labels} value` samples. Used as the
// receiving end of `serve --prom | eppi_cli stats -` in CI, so malformed
// output is a hard failure, not a shrug.

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

// Splits `name{labels} value` / `name value`; returns false on any syntax
// violation (unbalanced braces, empty name, non-numeric value...).
bool parse_sample_line(const std::string& line, std::string& name) {
  std::size_t name_end = 0;
  while (name_end < line.size() && line[name_end] != '{' &&
         line[name_end] != ' ') {
    ++name_end;
  }
  name = line.substr(0, name_end);
  if (!valid_metric_name(name)) return false;
  std::size_t pos = name_end;
  if (pos < line.size() && line[pos] == '{') {
    const auto close = line.find('}', pos);
    if (close == std::string::npos) return false;
    // Label pairs must look like key="value": quote parity inside the block.
    std::size_t quotes = 0;
    for (std::size_t k = pos + 1; k < close; ++k) {
      if (line[k] == '"') ++quotes;
    }
    if (quotes % 2 != 0) return false;
    pos = close + 1;
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  const std::string value = line.substr(pos + 1);
  if (value.empty()) return false;
  try {
    std::size_t used = 0;
    (void)std::stod(value, &used);
    // Allow an optional trailing timestamp (integer) after the value.
    while (used < value.size() && value[used] == ' ') ++used;
    for (; used < value.size(); ++used) {
      if (!std::isdigit(static_cast<unsigned char>(value[used]))) return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

int validate_prometheus(std::istream& in) {
  std::map<std::string, std::string> family_type;  // name -> TYPE
  std::map<std::string, std::uint64_t> samples;    // family -> sample count
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name;
      meta >> hash >> kind >> name;
      if (kind == "TYPE") {
        static const char* kKinds[] = {"counter", "gauge", "histogram",
                                       "summary", "untyped"};
        std::string type;
        meta >> type;
        if (!valid_metric_name(name) ||
            std::find_if(std::begin(kKinds), std::end(kKinds),
                         [&](const char* k) { return type == k; }) ==
                std::end(kKinds)) {
          std::cerr << "stats: malformed TYPE line " << line_no << ": "
                    << line << '\n';
          return 1;
        }
        family_type[name] = type;
      } else if (kind == "HELP" && !valid_metric_name(name)) {
        std::cerr << "stats: malformed HELP line " << line_no << ": " << line
                  << '\n';
        return 1;
      }
      continue;
    }
    std::string name;
    if (!parse_sample_line(line, name)) {
      std::cerr << "stats: malformed sample line " << line_no << ": " << line
                << '\n';
      return 1;
    }
    // Histogram series sample under the family name (strip the suffix).
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          family_type.count(name.substr(0, name.size() - s.size())) != 0) {
        family = name.substr(0, name.size() - s.size());
        break;
      }
    }
    ++samples[family];
    ++total;
  }
  if (total == 0) {
    std::cerr << "stats: no samples on stdin\n";
    return 1;
  }
  std::cout << "valid Prometheus exposition: " << family_type.size()
            << " typed families, " << samples.size() << " sampled, " << total
            << " samples\n";
  for (const auto& [family, count] : samples) {
    const auto it = family_type.find(family);
    std::cout << "  " << family << " ("
              << (it == family_type.end() ? "untyped" : it->second) << "): "
              << count << " sample(s)\n";
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.size() > 1) return usage();
  if (args.empty() || args[0] == "-") return validate_prometheus(std::cin);
  eppi::storage::PosixVfs vfs;
  const auto bytes = vfs.read_file(args[0]);
  const auto validation = eppi::core::validate_index(bytes);
  const auto loaded = eppi::core::load_postings_bytes(bytes);
  const auto& postings = loaded.postings;
  const std::size_t m = postings.providers();
  const std::size_t n = postings.identities();

  std::size_t claims = 0;
  std::size_t full = 0;
  std::size_t max_freq = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t f =
        postings.apparent_frequency(static_cast<eppi::core::IdentityId>(j));
    claims += f;
    max_freq = std::max(max_freq, f);
    if (f == m) ++full;
  }
  const std::size_t cells = m * n;
  std::cout << "format:     eppi-index-v" << validation.version << " ("
            << postings.shard_count() << " shard(s), span "
            << postings.shard_span() << ", lexicon: "
            << (loaded.lexicon != nullptr
                    ? std::to_string(loaded.lexicon->size()) + " names"
                    : std::string("none"))
            << ")\n"
            << "providers:  " << m << '\n'
            << "identities: " << n << '\n'
            << "claims:     " << claims << " ("
            << (cells == 0 ? 0.0
                           : 100.0 * static_cast<double>(claims) /
                                 static_cast<double>(cells))
            << "% dense)\n"
            << "max apparent frequency: " << max_freq << '\n'
            << "broadcast (apparent-common) identities: " << full << '\n';

  // Per-codec storage breakdown: the same numbers the serving tier exports
  // as eppi_index_bytes{codec=...} — here for files at rest.
  const auto fp = postings.memory_footprint();
  std::cout << "storage by codec:\n";
  for (std::size_t c = 0; c < eppi::core::kPostingCodecCount; ++c) {
    const auto codec = static_cast<eppi::core::PostingCodec>(c);
    std::cout << "  " << eppi::core::to_string(codec) << ": "
              << fp.by_codec[c].rows << " row(s), "
              << fp.by_codec[c].payload_bytes << " byte(s)\n";
  }
  const std::size_t dense_bytes = (cells + 7) / 8;
  std::cout << "payload: " << fp.payload_bytes << " byte(s), resident: "
            << fp.resident_bytes << " byte(s)\n"
            << "dense-matrix equivalent: " << dense_bytes << " byte(s)";
  if (fp.resident_bytes > 0) {
    std::cout << " (x"
              << static_cast<double>(dense_bytes) /
                     static_cast<double>(fp.resident_bytes)
              << " reduction)";
  }
  std::cout << '\n';
  return 0;
}

std::vector<eppi::obs::TraceEvent> load_trace_events(const std::string& path,
                                                     std::size_t* errors) {
  std::ifstream in(path);
  if (!in) throw eppi::ConfigError("cannot open " + path);
  std::vector<eppi::obs::TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    eppi::obs::TraceEvent ev;
    if (eppi::obs::parse_trace_line(line, &ev)) {
      events.push_back(std::move(ev));
    } else if (errors != nullptr) {
      ++*errors;
    }
  }
  return events;
}

int cmd_trace_merge(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string& out_path = args[0];
  std::vector<std::string> inputs;
  std::uint64_t require_edges = 0;
  std::uint64_t max_violations = 0;
  bool have_max_violations = false;
  for (std::size_t a = 1; a < args.size(); ++a) {
    const std::string& arg = args[a];
    const auto next = [&]() -> const std::string& {
      if (a + 1 >= args.size()) throw eppi::ConfigError(arg + " needs a value");
      return args[++a];
    };
    if (arg == "--require-edges") {
      require_edges = std::stoull(next());
    } else if (arg == "--max-violations") {
      max_violations = std::stoull(next());
      have_max_violations = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw eppi::ConfigError("unknown option " + arg);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  std::vector<eppi::obs::TraceFile> files;
  std::size_t parse_errors = 0;
  for (const std::string& path : inputs) {
    eppi::obs::TraceFile file;
    file.label = path;
    file.events = load_trace_events(path, &parse_errors);
    files.push_back(std::move(file));
  }
  eppi::obs::MergeReport report;
  const auto merged = eppi::obs::merge_traces(std::move(files), &report);

  std::ostringstream out;
  for (const auto& ev : merged) out << eppi::obs::to_json_line(ev);
  const std::string body = out.str();
  eppi::storage::PosixVfs vfs;
  eppi::storage::atomic_write_file(
      vfs, out_path,
      std::span(reinterpret_cast<const std::uint8_t*>(body.data()),
                body.size()));
  std::cout << eppi::obs::render_merge_report(report);
  if (parse_errors != 0) {
    std::cout << "parse errors: " << parse_errors << '\n';
  }
  std::cerr << "wrote merged trace (" << merged.size() << " events) to "
            << out_path << '\n';

  if (report.cross_process_edges < require_edges) {
    std::cerr << "trace merge: " << report.cross_process_edges
              << " cross-process edge(s) < required " << require_edges
              << " — context propagation is broken\n";
    return 1;
  }
  if (have_max_violations && report.causality_violations > max_violations) {
    std::cerr << "trace merge: " << report.causality_violations
              << " causality violation(s) > allowed " << max_violations
              << '\n';
    return 1;
  }
  return 0;
}

int cmd_trace(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  if (args[0] == "merge") {
    return cmd_trace_merge({args.begin() + 1, args.end()});
  }
  const std::string& path = args[0];
  std::uint64_t expect_bytes = 0;
  bool have_expect = false;
  for (std::size_t a = 1; a < args.size(); ++a) {
    if (args[a] == "--expect-bytes" && a + 1 < args.size()) {
      expect_bytes = std::stoull(args[++a]);
      have_expect = true;
    } else {
      throw eppi::ConfigError("unknown option " + args[a]);
    }
  }
  std::ifstream in(path);
  if (!in) throw eppi::ConfigError("cannot open " + path);
  const auto summary = eppi::obs::replay_trace(in);
  std::cout << eppi::obs::render_table(summary);
  if (summary.parse_errors != 0) {
    std::cerr << "trace: " << summary.parse_errors
              << " line(s) failed to parse\n";
    return 1;
  }
  if (have_expect && summary.total_bytes != expect_bytes) {
    std::cerr << "trace: phase bytes " << summary.total_bytes
              << " != expected " << expect_bytes
              << " (CostMeter ground truth)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "build") return cmd_build(args);
    if (command == "query") return cmd_query(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "fsck") return cmd_fsck(args);
    if (command == "party") return cmd_party(args);
    if (command == "audit") return cmd_audit(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "trace") return cmd_trace(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
