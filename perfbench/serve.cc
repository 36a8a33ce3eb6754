// serve_mixed: HTTP serving. An in-process QueryServer on 127.0.0.1:0 with
// its default pool; three closed-loop clients, one session and one
// keep-alive connection each, replay seeded request schedules: mostly
// analytics reads on the host graph (arrangement-cache hits), the rest
// session-private collection writes, runs and result fetches.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common.h"
#include "graph/csv.h"
#include "gvdl/parser.h"
#include "server/query_server.h"
#include "sizes.h"

namespace perfbench {
namespace {

namespace an = gs::analytics;

/// One keep-alive HTTP/1.1 connection to the server.
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// POSTs a JSON body; returns the status code (0 on a transport error)
  /// and fills `body`.
  int Post(const std::string& path, const std::string& json,
           std::string* body) {
    if (fd_ < 0 && !Connect()) return 0;
    const std::string request = "POST " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Content-Type: application/json\r\n"
                                "Content-Length: " +
                                std::to_string(json.size()) + "\r\n\r\n" +
                                json;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) {
        Close();
        return 0;
      }
      sent += static_cast<size_t>(n);
    }
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Receive()) return 0;
    }
    const std::string head = buffer_.substr(0, header_end);
    const size_t cl = head.find("Content-Length: ");
    const size_t length =
        cl == std::string::npos ? 0 : std::strtoull(head.c_str() + cl + 16,
                                                    nullptr, 10);
    while (buffer_.size() < header_end + 4 + length) {
      if (!Receive()) return 0;
    }
    *body = buffer_.substr(header_end + 4, length);
    buffer_.erase(0, header_end + 4 + length);
    const int status = head.rfind("HTTP/1.1 ", 0) == 0
                           ? std::atoi(head.c_str() + 9)
                           : 0;
    if (head.find("Connection: close") != std::string::npos) Close();
    return status;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool Receive() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

enum Kind { kOpen, kClose, kRead, kCreate, kCollectionRun, kResults, kKinds };
constexpr const char* kKindNames[kKinds] = {"open", "close",  "read",
                                            "create", "crun", "results"};

struct Step {
  Kind kind;
  std::string text;
};

std::vector<Step> ReadSchedule(const std::string& path) {
  std::vector<Step> steps;
  for (const std::string& line : ReadLines(path)) {
    const size_t space = line.find(' ');
    const std::string kind = line.substr(0, space);
    Step step{kKinds, line.substr(space + 1)};
    for (int k = 0; k < kKinds; ++k) {
      if (kind == kKindNames[k]) step.kind = static_cast<Kind>(k);
    }
    if (step.kind == kKinds) throw std::runtime_error("bad step: " + line);
    steps.push_back(step);
  }
  return steps;
}

/// The body RenderResults produces for (view name, results) pairs.
std::string Render(const std::string& target,
                   const std::vector<std::pair<std::string, an::ResultMap>>&
                       views) {
  std::string body = "{\"ok\": true, \"target\": \"" + target +
                     "\", \"results\": [";
  for (size_t t = 0; t < views.size(); ++t) {
    if (t != 0) body += ", ";
    body += "{\"view\": \"" + views[t].first + "\", \"values\": {";
    bool first = true;
    for (const auto& [vertex, value] : views[t].second) {
      if (!first) body += ", ";
      first = false;
      body += '"';
      body += std::to_string(vertex);
      body += "\": ";
      body += std::to_string(value);
    }
    body += "}}";
  }
  return body + "]}\n";
}

/// `run <algorithm> on <target>` → the computation (wcc or bfs(src)).
std::unique_ptr<an::Computation> ComputationOf(const std::string& statement) {
  const std::string spec = statement.substr(4, statement.find(" on ") - 4);
  if (spec == "wcc") return std::make_unique<an::Wcc>();
  if (spec.rfind("bfs(", 0) == 0) {
    return std::make_unique<an::Bfs>(std::stoull(spec.substr(4)));
  }
  throw std::runtime_error("unexpected statement: " + statement);
}

std::string Target(const std::string& statement) {
  return statement.substr(statement.find(" on ") + 4);
}

/// Expected bodies, rendered from direct-API runs: per read statement, and
/// per (collection template, analytics) pair as (view, results) pairs.
struct Expected {
  std::map<std::string, std::string> read_bodies;
  std::map<std::string, std::vector<std::pair<std::string, an::ResultMap>>>
      collection_results;  // key: template + "|" + algorithm spec
};

std::string CollectionKey(const std::string& templ, const std::string& run) {
  return templ + "|" + run.substr(4, run.find(" on ") - 4);
}

/// One client's share of the run.
struct ClientLog {
  std::vector<double> latency[kKinds];
  std::vector<double> traced_reads, untraced_reads;
  uint64_t attempted = 0, failed = 0, rejected = 0;
  std::vector<std::string> errors;
};

/// Bodies of statements seen so far, shared by every client: identical
/// statements must read identical bodies in every session.
class BodyLedger {
 public:
  bool Consistent(const std::string& key, const std::string& body) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = bodies_.emplace(key, body);
    return inserted || it->second == body;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> bodies_;
};

std::string QueryJson(const std::string& session, const std::string& text) {
  return "{\"session\": \"" + session + "\", \"statement\": \"" + text +
         "\"}";
}

struct ClientState {
  std::unique_ptr<Connection> connection;
  std::string session;
  std::map<std::string, std::string> templates;  // collection → template
  std::string last_run;       // statement of the last run
  std::string last_template;  // its collection's template, if any
};

/// Executes one schedule step and checks its response; a non-200 status
/// or an unexpected body counts as a failed request in `log`.
void Execute(ClientState* st, const Step& step, const Expected& expected,
            BodyLedger* ledger, ClientLog* log) {
  std::string body;
  int status = 0;
  std::string ledger_key;
  std::string want;
  switch (step.kind) {
    case kOpen:
      st->session = step.text;
      st->templates.clear();
      status = st->connection->Post(
          "/session", "{\"session\": \"" + st->session + "\"}", &body);
      break;
    case kClose:
      status = st->connection->Post(
          "/session/close", "{\"session\": \"" + st->session + "\"}", &body);
      break;
    case kRead:
    case kCollectionRun:
    case kCreate:
      if (step.kind == kCreate) {
        const size_t on = step.text.find(" on G ");
        const std::string name =
            step.text.substr(23, step.text.find(' ', 23) - 23);
        st->templates[name] = step.text.substr(on + 6);
      } else {
        st->last_run = step.text;
        const auto it = st->templates.find(Target(step.text));
        st->last_template = it == st->templates.end() ? "" : it->second;
      }
      ledger_key = step.text;
      status = st->connection->Post("/query",
                                    QueryJson(st->session, step.text), &body);
      break;
    case kResults:
      ledger_key = "results after " + st->last_run + " | " + st->last_template;
      if (st->last_template.empty()) {
        want = expected.read_bodies.at(st->last_run);
      } else {
        want = Render(Target(st->last_run),
                      expected.collection_results.at(
                          CollectionKey(st->last_template, st->last_run)));
      }
      status = st->connection->Post("/query",
                                    QueryJson(st->session, step.text), &body);
      break;
    case kKinds:
      break;
  }
  auto fail = [&](const std::string& why) {
    ++log->failed;
    if (log->errors.size() < 5) {
      log->errors.push_back(std::string(kKindNames[step.kind]) + " '" +
                            step.text + "': " + why);
    }
  };
  if (status == 503) ++log->rejected;
  if (status != 200) {
    fail("HTTP " + std::to_string(status) + " " + body.substr(0, 200));
  } else if (!want.empty() && body != want) {
    fail("body differs from the direct-API render");
  } else if (!ledger_key.empty() && !ledger->Consistent(ledger_key, body)) {
    fail("body differs from another session's for the same statement");
  }
}

struct Inputs {
  std::string nodes;
  std::string edges;
  std::vector<std::string> reads;
  std::vector<std::string> templates;
  std::vector<std::vector<Step>> schedules;
};

Expected ComputeExpected(const Inputs& in, gs::Graphsurge* direct) {
  Expected expected;
  for (const std::string& read : in.reads) {
    auto result = direct->RunOnView(*ComputationOf(read), "G");
    if (!result.ok()) throw std::runtime_error(result.status().ToString());
    expected.read_bodies[read] = Render("G", {{"G", result.value()}});
  }
  for (size_t t = 0; t < in.templates.size(); ++t) {
    std::string name = "T";
    name += std::to_string(t);
    gs::Status s =
        direct->Execute("create view collection " + name + " on G " +
                        in.templates[t]);
    if (!s.ok()) throw std::runtime_error(s.ToString());
    const auto* collection = direct->GetCollection(name).value();
    // Collection runs use the first two reads' analytics (generator).
    for (size_t r = 0; r < 2 && r < in.reads.size(); ++r) {
      gs::views::ExecutionOptions options;
      options.capture_results = true;
      auto run = direct->RunComputation(*ComputationOf(in.reads[r]), name,
                                        options);
      if (!run.ok()) throw std::runtime_error(run.status().ToString());
      auto& views = expected.collection_results[CollectionKey(
          in.templates[t], in.reads[r])];
      for (size_t v = 0; v < collection->num_views(); ++v) {
        views.emplace_back(collection->view_names[v],
                           run.value().results[v]);
      }
    }
  }
  return expected;
}

/// Setup: construct the server, load the host graph, start listening,
/// then open every client's session and give it one warm read.
std::unique_ptr<gs::server::QueryServer> Setup(
    const Inputs& in, std::vector<ClientState>* clients,
    const Expected& expected, BodyLedger* ledger,
    std::vector<ClientLog>* logs) {
  auto server = std::make_unique<gs::server::QueryServer>();
  gs::Status s = server->LoadGraphCsv("G", in.nodes, in.edges);
  if (s.ok()) s = server->Start(0);
  if (!s.ok()) throw std::runtime_error("QueryServer: " + s.ToString());
  const Step warm{kRead, in.reads[0]};
  for (size_t c = 0; c < clients->size(); ++c) {
    ClientState& st = (*clients)[c];
    st.connection = std::make_unique<Connection>(server->port());
    for (const Step& step : {in.schedules[c][0], warm}) {
      ++(*logs)[c].attempted;
      Execute(&st, step, expected, ledger, &(*logs)[c]);
    }
  }
  return server;
}

}  // namespace

void RunServeMixed(const Config& config, Outcome* out) {
  const ServeSizes sizes = ServeSizesFor(config.smoke);
  Inputs in;
  in.nodes = config.dir + "/nodes.csv";
  in.edges = config.dir + "/edges.csv";
  for (const std::string& line : ReadLines(config.dir + "/params.txt")) {
    if (line.rfind("read ", 0) == 0) in.reads.push_back(line.substr(5));
    if (line.rfind("template ", 0) == 0) in.templates.push_back(line.substr(9));
  }
  for (size_t c = 0; c < sizes.clients; ++c) {
    in.schedules.push_back(
        ReadSchedule(config.dir + "/client" + std::to_string(c) + ".txt"));
  }

  // --- Setup, repeated; setup_s is the median. The repetitions but the
  // last run in child processes.
  const Expected none;
  std::vector<double> setup_seconds;
  for (size_t r = 1; r < sizes.setup_reps && !config.trace; ++r) {
    setup_seconds.push_back(TimeSetupInChild([&] {
      std::vector<ClientState> clients(sizes.clients);
      std::vector<ClientLog> logs(sizes.clients);
      BodyLedger ledger;
      // Released, not destroyed: the child exits without destructors.
      Setup(in, &clients, none, &ledger, &logs).release();
      for (ClientState& st : clients) st.connection.release();
      for (const ClientLog& log : logs) {
        if (log.failed != 0) throw std::runtime_error(log.errors.at(0));
      }
    }));
  }
  std::vector<ClientState> clients(sizes.clients);
  std::vector<ClientLog> logs(sizes.clients);
  BodyLedger ledger;
  const double setup_start = Now();
  std::unique_ptr<gs::server::QueryServer> server =
      Setup(in, &clients, none, &ledger, &logs);
  setup_seconds.push_back(Now() - setup_start);

  // Expected bodies come from the direct API, before the timed window.
  gs::Graphsurge direct;
  {
    gs::Status s = direct.LoadGraphCsv("G", in.nodes, in.edges);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }
  const Expected expected = ComputeExpected(in, &direct);

  // --- Timed window: every client replays its schedule in a closed loop
  // (wrapping around) until the window closes.
  // Sessions keep collections and results, so memory grows with requests;
  // peak RSS is read at a fixed request count to keep it independent of
  // how fast this machine runs.
  std::atomic<size_t> completed{0};
  std::atomic<double> peak_rss_mb{0};
  const RegistryCounters before = RegistryCounters::Read(1);
  const double start = Now();
  const double deadline = start + config.seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < sizes.clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Step>& schedule = in.schedules[c];
      ClientLog& log = logs[c];
      for (size_t n = 1; Now() < deadline; ++n) {
        const Step& step = schedule[n % schedule.size()];
        // A traced request also snapshots the engine counters around the
        // call, as traced ops of the other workloads do.
        const bool traced = config.trace && n % 2 == 0;
        const double t0 = Now();
        if (traced) RegistryCounters::Read(1);
        Execute(&clients[c], step, expected, &ledger, &log);
        if (traced) RegistryCounters::Read(1);
        const double seconds = Now() - t0;
        if (++completed == sizes.rss_requests) peak_rss_mb = PeakRssMb();
        ++log.attempted;
        log.latency[step.kind].push_back(seconds);
        if (config.trace && step.kind == kRead && step.text == in.reads[0]) {
          (traced ? log.traced_reads : log.untraced_reads).push_back(seconds);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double window = Now() - start;
  const RegistryCounters delta = RegistryCounters::Read(1).Minus(before);

  std::vector<double> all, by_kind[kKinds], traced_reads, untraced_reads;
  uint64_t rejected = 0;
  for (ClientLog& log : logs) {
    out->attempted += log.attempted;
    out->failed += log.failed;
    rejected += log.rejected;
    for (const std::string& e : log.errors) out->Fail(e);
    if (log.failed > 0 && log.errors.empty()) out->Fail("failed requests");
    for (int k = 0; k < kKinds; ++k) {
      all.insert(all.end(), log.latency[k].begin(), log.latency[k].end());
      by_kind[k].insert(by_kind[k].end(), log.latency[k].begin(),
                        log.latency[k].end());
    }
    traced_reads.insert(traced_reads.end(), log.traced_reads.begin(),
                        log.traced_reads.end());
    untraced_reads.insert(untraced_reads.end(), log.untraced_reads.begin(),
                          log.untraced_reads.end());
  }
  for (ClientState& st : clients) st.connection.reset();
  server->Stop();

  if (!config.trace) {
    ReportOps(all, window, setup_seconds,
              peak_rss_mb > 0 ? peak_rss_mb.load() : PeakRssMb(), out);
    return;
  }
  auto& L = out->layers;
  {
    const double t0 = Now();
    auto graph = gs::LoadGraphFromCsv(in.nodes, in.edges);
    L["graph.csv_load_s"] = Now() - t0;
  }
  {
    std::vector<double> parse;
    for (const std::string& templ : in.templates) {
      const double t0 = Now();
      auto script =
          gs::gvdl::ParseScript("create view collection P on G " + templ);
      parse.push_back(Now() - t0);
    }
    L["gvdl.parse_ms"] = Median(parse) * 1e3;
  }
  // The direct-API cost of the WCC read (its arrangements are cached by the
  // expected-body run above).
  std::vector<double> direct_reads;
  const auto wcc = ComputationOf(in.reads[0]);
  for (int i = 0; i < 7; ++i) {
    const double t0 = Now();
    auto result = direct.RunOnView(*wcc, "G");
    direct_reads.push_back(Now() - t0);
  }
  const double read_ms = Median(by_kind[kRead]) * 1e3;
  std::vector<double> wcc_reads = traced_reads;
  wcc_reads.insert(wcc_reads.end(), untraced_reads.begin(),
                   untraced_reads.end());
  const double wcc_read_ms = Median(wcc_reads) * 1e3;
  L["server.read_ms"] = read_ms;
  L["server.create_ms"] = Median(by_kind[kCreate]) * 1e3;
  L["server.collection_run_ms"] = Median(by_kind[kCollectionRun]) * 1e3;
  L["server.results_ms"] = Median(by_kind[kResults]) * 1e3;
  L["server.overhead_ms"] = wcc_read_ms - Median(direct_reads) * 1e3;
  L["server.rejected"] = static_cast<double>(rejected);
  const uint64_t lookups = delta.arrcache_hits + delta.arrcache_misses;
  L["differential.arrcache_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(delta.arrcache_hits) / lookups;
  L["trace.unattributed_frac"] = L["server.overhead_ms"] / wcc_read_ms;
  L["trace.overhead_frac"] = Median(traced_reads) / Median(untraced_reads) - 1;
}

}  // namespace perfbench
