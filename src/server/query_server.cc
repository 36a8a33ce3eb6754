#include "server/query_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "algorithms/algorithms.h"
#include "common/introspect.h"
#include "differential/arrcache.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "graph/csv.h"
#include "gvdl/parser.h"
#include "views/executor.h"

namespace gs::server {

namespace {

std::atomic<uint64_t> g_next_instance_id{1};

/// Cap on requests served over one keep-alive connection.
constexpr int kMaxRequestsPerConnection = 1000;

/// POST bodies are statements, not data uploads.
constexpr size_t kMaxBodyBytes = 1 << 20;

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

HttpResponse JsonOk(std::string body_fields) {
  HttpResponse r;
  r.content_type = "application/json";
  r.body = "{\"ok\": true" +
           (body_fields.empty() ? std::string() : ", " + body_fields) + "}\n";
  return r;
}

HttpResponse JsonError(int code, const std::string& message) {
  HttpResponse r;
  r.status_code = code;
  r.content_type = "application/json";
  r.body =
      "{\"ok\": false, \"error\": \"" + introspect::JsonEscape(message) +
      "\"}\n";
  return r;
}

/// Minimal JSON parser for the request bodies this server accepts: one
/// flat object with string keys and string values. Anything else —
/// including structurally valid JSON using numbers, arrays, or nesting —
/// is rejected with a message naming the position, and the caller turns
/// that into a 400 with a parseable JSON error body.
bool ParseJsonStringObject(const std::string& text,
                           std::map<std::string, std::string>* out,
                           std::string* error) {
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
            text[i] == '\r')) {
      ++i;
    }
  };
  auto fail = [&](const std::string& what) {
    *error = what + " at byte " + std::to_string(i);
    return false;
  };
  auto parse_string = [&](std::string* s) {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    while (i < text.size() && text[i] != '"') {
      char c = text[i];
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        char e = text[i + 1];
        switch (e) {
          case '"': s->push_back('"'); break;
          case '\\': s->push_back('\\'); break;
          case '/': s->push_back('/'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'n': s->push_back('\n'); break;
          case 'r': s->push_back('\r'); break;
          case 't': s->push_back('\t'); break;
          case 'u': {
            if (i + 5 >= text.size()) return false;
            unsigned code = 0;
            for (int k = 2; k < 6; ++k) {
              char h = text[i + k];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code > 0x7f) return false;  // statements are ASCII
            s->push_back(static_cast<char>(code));
            i += 4;
            break;
          }
          default: return false;
        }
        i += 2;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      } else {
        s->push_back(c);
        ++i;
      }
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return fail("expected string key");
      skip_ws();
      if (i >= text.size() || text[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      std::string value;
      if (!parse_string(&value)) return fail("expected string value");
      (*out)[key] = std::move(value);
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
  }
  skip_ws();
  if (i != text.size()) return fail("trailing content");
  return true;
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
        c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  for (;;) {
    size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      return parts;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
}

/// Builds the computation named by `spec` ("name" or "name(args)").
StatusOr<std::unique_ptr<analytics::Computation>> MakeComputation(
    const std::string& spec) {
  std::string name = spec;
  std::string args;
  size_t paren = spec.find('(');
  if (paren != std::string::npos) {
    if (spec.back() != ')') {
      return Status::InvalidArgument("malformed algorithm spec: " + spec);
    }
    name = spec.substr(0, paren);
    args = spec.substr(paren + 1, spec.size() - paren - 2);
  }
  name = ToLower(name);
  auto need_source = [&]() -> StatusOr<uint64_t> {
    uint64_t source = 0;
    if (!ParseUint(args, &source)) {
      return Status::InvalidArgument(name + " requires a numeric source: " +
                                     spec);
    }
    return source;
  };
  std::unique_ptr<analytics::Computation> c;
  if (name == "wcc") {
    if (!args.empty()) {
      return Status::InvalidArgument("wcc takes no arguments");
    }
    c = std::make_unique<analytics::Wcc>();
  } else if (name == "scc") {
    if (!args.empty()) {
      return Status::InvalidArgument("scc takes no arguments");
    }
    c = std::make_unique<analytics::Scc>();
  } else if (name == "pagerank") {
    uint64_t iters = 10;
    if (!args.empty() && (!ParseUint(args, &iters) || iters == 0)) {
      return Status::InvalidArgument(
          "pagerank takes a positive iteration count");
    }
    c = std::make_unique<analytics::PageRank>(static_cast<uint32_t>(iters));
  } else if (name == "bfs") {
    auto source = need_source();
    GS_RETURN_IF_ERROR(source.status());
    c = std::make_unique<analytics::Bfs>(source.value());
  } else if (name == "bellman-ford" || name == "bellmanford" ||
             name == "sssp") {
    auto source = need_source();
    GS_RETURN_IF_ERROR(source.status());
    c = std::make_unique<analytics::BellmanFord>(source.value());
  } else if (name == "mpsp") {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (const std::string& pair_spec : SplitOn(args, ',')) {
      std::vector<std::string> ends = SplitOn(pair_spec, ':');
      uint64_t src = 0;
      uint64_t dst = 0;
      if (ends.size() != 2 || !ParseUint(ends[0], &src) ||
          !ParseUint(ends[1], &dst)) {
        return Status::InvalidArgument(
            "mpsp takes src:dst pairs, e.g. mpsp(0:5,2:7)");
      }
      pairs.emplace_back(src, dst);
    }
    if (pairs.empty()) {
      return Status::InvalidArgument("mpsp requires at least one src:dst");
    }
    c = std::make_unique<analytics::Mpsp>(std::move(pairs));
  } else {
    return Status::InvalidArgument(
        "unknown algorithm '" + name +
        "' (expected wcc, scc, pagerank, bfs, bellman-ford, or mpsp)");
  }
  return c;
}

metrics::Counter* Requests() {
  static auto* c =
      metrics::Registry::Global().GetCounter("gs_query_server_requests");
  return c;
}
metrics::Counter* Statements() {
  static auto* c =
      metrics::Registry::Global().GetCounter("gs_query_server_statements");
  return c;
}
metrics::Counter* RejectedQueueFull() {
  static auto* c = metrics::Registry::Global().GetCounter(
      "gs_query_server_rejected_queue_full");
  return c;
}
metrics::Counter* RejectedSessionCap() {
  static auto* c = metrics::Registry::Global().GetCounter(
      "gs_query_server_rejected_session_cap");
  return c;
}
metrics::Gauge* SessionsGauge() {
  static auto* g =
      metrics::Registry::Global().GetGauge("gs_query_server_sessions");
  return g;
}

}  // namespace

QueryServer::QueryServer(QueryServerOptions options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1)) {
  status_pages_.Handle("/sessionz", [this] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = SessionzJson();
    return r;
  });
}

QueryServer::~QueryServer() {
  Stop();
  differential::ArrangementCache::Global().InvalidateScopePrefix(
      "qs" + std::to_string(instance_id_) + "/");
}

Status QueryServer::Start(uint16_t port) {
  if (running()) return Status::InvalidArgument("query server already running");

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, static_cast<int>(options_.max_queue)) != 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(fd);
    return Status::Internal("pipe() failed");
  }

  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  GS_LOG(Info) << "query server listening on http://127.0.0.1:" << port_;
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.exchange(false)) return;
  char byte = 'q';
  ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  (void)ignored;
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (int fd : queue_) ::close(fd);
    queue_.clear();
  }
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = -1;
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void QueryServer::AcceptLoop() {
  // Rendered once: the rejection sent when the connection queue is full.
  const std::string overload_wire = http::RenderResponse(
      JsonError(503, "server overloaded: connection queue is full"),
      /*keep_alive=*/false);
  while (running()) {
    pollfd fds[2] = {};
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    timeval timeout = {};
    timeout.tv_sec = options_.read_timeout_ms / 1000;
    timeout.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < options_.max_queue) {
        queue_.push_back(client);
        queue_cv_.notify_one();
        continue;
      }
    }
    // Queue full: shed load with an immediate, deterministic 503 rather
    // than queueing unbounded latency. Sent from the accept thread; the
    // send timeout bounds how long a pathological client can stall it.
    RejectedQueueFull()->Increment();
    http::WriteAll(client, overload_wire);
    ::close(client);
  }
}

void QueryServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || !running(); });
      if (queue_.empty()) return;  // shutting down
      fd = queue_.front();
      queue_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void QueryServer::ServeConnection(int fd) {
  std::string buffer;
  http::Limits limits;
  limits.max_body_bytes = kMaxBodyBytes;
  for (int served = 0; served < kMaxRequestsPerConnection; ++served) {
    http::ReadResult in = http::ReadRequest(fd, &buffer, limits);
    if (in.kind == http::ReadResult::Kind::kClosed) return;
    if (in.kind == http::ReadResult::Kind::kError) {
      http::WriteAll(fd, http::RenderResponse(in.error, /*keep_alive=*/false));
      return;
    }
    const http::Request& request = in.request;
    HttpResponse response = Route(request);
    const bool keep_alive =
        request.keep_alive && served + 1 < kMaxRequestsPerConnection;
    std::string wire = http::RenderResponse(response, keep_alive);
    if (request.method == "HEAD") wire.resize(wire.find("\r\n\r\n") + 4);
    http::WriteAll(fd, wire);
    if (!keep_alive) return;
  }
}

HttpResponse QueryServer::Route(const http::Request& request) {
  Requests()->Increment();
  if (request.method == "GET" || request.method == "HEAD") {
    return status_pages_.Dispatch(request.path);
  }
  if (request.method == "POST") {
    if (request.path == "/query") return HandleQuery(request);
    if (request.path == "/session") return HandleSessionOpen(request);
    if (request.path == "/session/close") return HandleSessionClose(request);
    return JsonError(404, "no POST handler for " + request.path);
  }
  HttpResponse r;
  r.status_code = 405;
  r.body = "only GET and POST are supported\n";
  return r;
}

std::shared_ptr<QueryServer::Session> QueryServer::AdmitSession(
    const std::string& name, HttpResponse* error) {
  if (!ValidSessionName(name)) {
    *error = JsonError(
        400, "invalid session name (alphanumeric, '-', '_', '.'; max 128)");
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) return it->second;
  if (sessions_.size() >= options_.max_sessions) {
    RejectedSessionCap()->Increment();
    *error = JsonError(503, "session limit reached (" +
                                std::to_string(options_.max_sessions) + ")");
    return nullptr;
  }
  auto session = std::make_shared<Session>();
  sessions_[name] = session;
  SessionsGauge()->Set(static_cast<int64_t>(sessions_.size()));
  return session;
}

HttpResponse QueryServer::HandleSessionOpen(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto it = fields.find("session");
  if (it == fields.end()) {
    return JsonError(400, "missing field \"session\"");
  }
  HttpResponse error;
  if (AdmitSession(it->second, &error) == nullptr) return error;
  return JsonOk("\"session\": \"" + introspect::JsonEscape(it->second) +
                "\"");
}

HttpResponse QueryServer::HandleSessionClose(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto it = fields.find("session");
  if (it == fields.end()) {
    return JsonError(400, "missing field \"session\"");
  }
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto found = sessions_.find(it->second);
    if (found == sessions_.end()) {
      return JsonError(404, "no session named '" + it->second + "'");
    }
    session = std::move(found->second);
    sessions_.erase(found);
    SessionsGauge()->Set(static_cast<int64_t>(sessions_.size()));
  }
  // Serialize with any in-flight statement so its state is not destroyed
  // under it; the shared_ptr keeps the storage alive either way.
  std::lock_guard<std::mutex> lock(session->mutex);
  return JsonOk("\"closed\": \"" + introspect::JsonEscape(it->second) + "\"");
}

HttpResponse QueryServer::HandleQuery(const http::Request& request) {
  std::map<std::string, std::string> fields;
  std::string parse_error;
  if (!ParseJsonStringObject(request.body, &fields, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  auto session_field = fields.find("session");
  auto statement_field = fields.find("statement");
  if (session_field == fields.end() || statement_field == fields.end()) {
    return JsonError(400, "required fields: \"session\", \"statement\"");
  }
  HttpResponse error;
  std::shared_ptr<Session> session =
      AdmitSession(session_field->second, &error);
  if (session == nullptr) return error;
  Statements()->Increment();
  std::lock_guard<std::mutex> lock(session->mutex);
  return ExecuteStatement(session.get(), statement_field->second);
}

HttpResponse QueryServer::ExecuteStatement(Session* session,
                                           const std::string& text) {
  std::vector<std::string> tokens = SplitTokens(text);
  if (tokens.empty()) return JsonError(400, "empty statement");
  const std::string head = ToLower(tokens[0]);
  if (head == "create") return ExecuteGvdl(session, text);
  if (head == "run") return ExecuteRun(session, text);
  if (head == "get" && tokens.size() >= 2 &&
      ToLower(tokens[1]) == "results") {
    return RenderResults(session);
  }
  return JsonError(400,
                   "unrecognized statement (expected CREATE VIEW "
                   "[COLLECTION], RUN <algorithm> ON <target>, or GET "
                   "RESULTS): " +
                       text);
}

HttpResponse QueryServer::ExecuteGvdl(Session* session,
                                      const std::string& text) {
  auto parsed = gvdl::ParseScript(text);
  if (!parsed.ok()) {
    return JsonError(400, "GVDL parse error: " + parsed.status().ToString());
  }
  std::vector<std::string> created;
  for (const gvdl::Statement& statement : parsed.value()) {
    // Resolve the `on` graph: the session's filtered views shadow host
    // graphs, mirroring the embedded API's single namespace.
    auto resolve = [&](const std::string& name) -> const PropertyGraph* {
      auto view = session->filtered_views.find(name);
      if (view != session->filtered_views.end()) return &view->second;
      std::lock_guard<std::mutex> lock(graphs_mutex_);
      auto graph = graphs_.find(name);
      return graph == graphs_.end() ? nullptr : &graph->second;
    };
    auto name_taken = [&](const std::string& name) {
      if (session->collections.count(name) != 0 ||
          session->filtered_views.count(name) != 0) {
        return true;
      }
      std::lock_guard<std::mutex> lock(graphs_mutex_);
      return graphs_.count(name) != 0;
    };
    if (const auto* def = std::get_if<gvdl::ViewCollectionDef>(&statement)) {
      if (name_taken(def->name)) {
        return JsonError(400, "name already in use: " + def->name);
      }
      const PropertyGraph* graph = resolve(def->on);
      if (graph == nullptr) {
        return JsonError(400, "unknown graph or view: " + def->on);
      }
      views::MaterializeOptions mopts;
      mopts.use_ordering = options_.order_collections;
      auto mc = views::MaterializeCollection(*graph, *def, mopts);
      if (!mc.ok()) {
        return JsonError(400, "materialization failed: " +
                                  mc.status().ToString());
      }
      session->collections[def->name] = std::move(mc).value();
      created.push_back(def->name);
    } else if (const auto* def =
                   std::get_if<gvdl::FilteredViewDef>(&statement)) {
      if (name_taken(def->name)) {
        return JsonError(400, "name already in use: " + def->name);
      }
      const PropertyGraph* graph = resolve(def->on);
      if (graph == nullptr) {
        return JsonError(400, "unknown graph or view: " + def->on);
      }
      auto view =
          views::MaterializeFilteredView(*graph, def->predicate, nullptr);
      if (!view.ok()) {
        return JsonError(400, "materialization failed: " +
                                  view.status().ToString());
      }
      session->filtered_views[def->name] = std::move(view).value();
      created.push_back(def->name);
    } else if (std::get_if<gvdl::AggregateViewDef>(&statement) != nullptr) {
      return JsonError(400,
                       "aggregate views are not served over HTTP; use the "
                       "embedded api::Graphsurge");
    } else {
      return JsonError(
          400, "explain is not served over HTTP; use the embedded API");
    }
  }
  std::string names;
  for (size_t i = 0; i < created.size(); ++i) {
    if (i != 0) names += ", ";
    names += "\"" + introspect::JsonEscape(created[i]) + "\"";
  }
  return JsonOk("\"created\": [" + names + "]");
}

HttpResponse QueryServer::ExecuteRun(Session* session,
                                     const std::string& text) {
  // run <algorithm> on <target> [weight <column>] — the algorithm spec may
  // contain spaces inside its parentheses ("mpsp(0:5, 2:7)"), so tokens up
  // to the ON keyword are joined with whitespace removed.
  std::vector<std::string> tokens = SplitTokens(text);
  size_t on_index = 0;
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (ToLower(tokens[i]) == "on") {
      on_index = i;
      break;
    }
  }
  if (on_index < 2 || on_index + 1 >= tokens.size()) {
    return JsonError(
        400, "expected: run <algorithm> on <target> [weight <column>]");
  }
  std::string spec;
  for (size_t i = 1; i < on_index; ++i) spec += tokens[i];
  const std::string target = tokens[on_index + 1];
  int weight_column = -1;
  if (on_index + 2 < tokens.size()) {
    if (ToLower(tokens[on_index + 2]) != "weight" ||
        on_index + 3 >= tokens.size()) {
      return JsonError(400, "trailing tokens; expected: weight <column>");
    }
    uint64_t column = 0;
    if (!ParseUint(tokens[on_index + 3], &column)) {
      return JsonError(400, "weight column must be a number");
    }
    weight_column = static_cast<int>(column);
    if (on_index + 4 < tokens.size()) {
      return JsonError(400, "trailing tokens after weight column");
    }
  }

  auto computation = MakeComputation(spec);
  if (!computation.ok()) {
    return JsonError(400, computation.status().ToString());
  }

  views::ExecutionOptions options;
  options.weight_column = weight_column;
  options.dataflow.num_workers = options_.num_workers;
  options.capture_results = true;

  session->last_target.clear();
  session->last_results.clear();

  // Target resolution: session collection → session filtered view → host
  // graph. Only host graphs route through the arrangement cache — they are
  // the shared substrate; session-local views are private by construction.
  auto collection = session->collections.find(target);
  if (collection != session->collections.end()) {
    const views::MaterializedCollection& mc = collection->second;
    const PropertyGraph* base = nullptr;
    auto view = session->filtered_views.find(mc.base_graph);
    if (view != session->filtered_views.end()) {
      base = &view->second;
    } else {
      std::lock_guard<std::mutex> lock(graphs_mutex_);
      auto graph = graphs_.find(mc.base_graph);
      if (graph != graphs_.end()) base = &graph->second;
    }
    if (base == nullptr) {
      return JsonError(400, "collection base graph vanished: " +
                                mc.base_graph);
    }
    auto result =
        views::RunOnCollection(*computation.value(), *base, mc, options);
    if (!result.ok()) {
      return JsonError(500, "execution failed: " +
                                result.status().ToString());
    }
    session->last_target = target;
    for (size_t t = 0; t < mc.num_views(); ++t) {
      session->last_results.emplace_back(
          mc.view_names[t], t < result.value().results.size()
                                ? std::move(result.value().results[t])
                                : analytics::ResultMap());
    }
    return JsonOk("\"algorithm\": \"" +
                  introspect::JsonEscape(computation.value()->name()) +
                  "\", \"target\": \"" + introspect::JsonEscape(target) +
                  "\", \"views\": " + std::to_string(mc.num_views()));
  }

  const PropertyGraph* graph = nullptr;
  bool host_graph = false;
  auto view = session->filtered_views.find(target);
  if (view != session->filtered_views.end()) {
    graph = &view->second;
  } else {
    std::lock_guard<std::mutex> lock(graphs_mutex_);
    auto found = graphs_.find(target);
    if (found != graphs_.end()) {
      graph = &found->second;
      host_graph = true;
    }
  }
  if (graph == nullptr) {
    return JsonError(400, "unknown target '" + target +
                              "' (not a collection, view, or graph)");
  }
  if (host_graph) {
    options.arrangement_cache_scope = ArrangementCacheScope(target);
  }
  auto result = views::RunOnGraph(*computation.value(), *graph, options);
  if (!result.ok()) {
    return JsonError(500,
                     "execution failed: " + result.status().ToString());
  }
  session->last_target = target;
  session->last_results.emplace_back(target, std::move(result).value());
  return JsonOk("\"algorithm\": \"" +
                introspect::JsonEscape(computation.value()->name()) +
                "\", \"target\": \"" + introspect::JsonEscape(target) +
                "\", \"views\": 1");
}

HttpResponse QueryServer::RenderResults(Session* session) const {
  // Deterministic rendering: view order is execution order, vertex order
  // is ResultMap (std::map) order — two sessions that ran the same
  // statement read byte-identical bodies.
  std::string body = "{\"ok\": true, \"target\": \"" +
                     introspect::JsonEscape(session->last_target) +
                     "\", \"results\": [";
  for (size_t t = 0; t < session->last_results.size(); ++t) {
    const auto& [view, values] = session->last_results[t];
    if (t != 0) body += ", ";
    body += "{\"view\": \"" + introspect::JsonEscape(view) +
            "\", \"values\": {";
    bool first = true;
    for (const auto& [vertex, value] : values) {
      if (!first) body += ", ";
      first = false;
      body += '"';
      body += std::to_string(vertex);
      body += "\": ";
      body += std::to_string(value);
    }
    body += "}}";
  }
  body += "]}\n";
  HttpResponse r;
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

Status QueryServer::AddGraph(const std::string& name, PropertyGraph graph) {
  if (name.empty()) return Status::InvalidArgument("graph name is empty");
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  if (graphs_.count(name) != 0) {
    return Status::InvalidArgument("graph already exists: " + name);
  }
  graphs_.emplace(name, std::move(graph));
  return Status::Ok();
}

Status QueryServer::LoadGraphCsv(const std::string& name,
                                 const std::string& nodes_path,
                                 const std::string& edges_path) {
  auto graph = LoadGraphFromCsv(nodes_path, edges_path);
  GS_RETURN_IF_ERROR(graph.status());
  return AddGraph(name, std::move(graph).value());
}

std::string QueryServer::ArrangementCacheScope(
    const std::string& graph_name) const {
  {
    std::lock_guard<std::mutex> lock(graphs_mutex_);
    if (graphs_.count(graph_name) == 0) return std::string();
  }
  // Host graphs are immutable, so the epoch component is always 0; the
  // instance id keeps same-named graphs in other servers (or in
  // api::Graphsurge instances, which use the "gs" prefix) from aliasing.
  return "qs" + std::to_string(instance_id_) + "/" + graph_name + "@0";
}

size_t QueryServer::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::string QueryServer::SessionzJson() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::string s = "{\"max_sessions\": " +
                  std::to_string(options_.max_sessions) +
                  ", \"sessions\": [";
  bool first = true;
  for (const auto& [name, session] : sessions_) {
    if (!first) s += ", ";
    first = false;
    s += "{\"name\": \"" + introspect::JsonEscape(name) + "\"}";
  }
  s += "]}\n";
  return s;
}

}  // namespace gs::server
