#include "tgs/serve/protocol.h"

#include <cmath>

#include "tgs/exec/jsonl.h"

namespace tgs {

const char* serve_error_code(ServeError e) {
  switch (e) {
    case ServeError::kBadJson: return "bad_json";
    case ServeError::kBadRequest: return "bad_request";
    case ServeError::kBadGraph: return "bad_graph";
    case ServeError::kUnknownAlgo: return "unknown_algo";
    case ServeError::kBadTopology: return "bad_topology";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kDeadlineExceeded: return "deadline_exceeded";
    case ServeError::kInternal: return "internal";
  }
  return "internal";
}

namespace {

/// Integer field in [0, max]. The range is checked before the cast: a
/// double outside int's range makes static_cast<int> undefined.
int int_field(const JsonValue& doc, const std::string& key, double max) {
  const double x = doc.get_number(key, 0);
  if (!(x >= 0 && x <= max) || x != std::floor(x))
    throw std::invalid_argument("field '" + key +
                                "' must be an integer >= 0");
  return static_cast<int>(x);
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  JsonValue doc;
  try {
    doc = json_parse(line);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(ServeError::kBadJson, e.what());
  }
  if (!doc.is_object())
    throw ProtocolError(ServeError::kBadJson, "request must be a JSON object");

  ServeRequest req;
  try {
    req.op = doc.get_string("op", "schedule");
    req.id = doc.get_string("id", "");
    req.graph_text = doc.take_string("graph", "");
    req.algo = doc.get_string("algo", "");
    req.topology = doc.get_string("topology", "");
    req.procs = int_field(doc, "procs", 1e6);
    req.want_schedule = doc.get_bool("schedule", false);
    req.use_cache = doc.get_bool("cache", true);
    req.deadline_ms = int_field(doc, "deadline_ms", 1e9);
    const std::string priority = doc.get_string("priority", "high");
    if (priority != "high" && priority != "low")
      throw std::invalid_argument(
          "field 'priority' must be \"high\" or \"low\"");
    req.low_priority = priority == "low";
    req.retry = int_field(doc, "retry", 1e6);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(ServeError::kBadRequest, e.what());
  }

  if (req.op != "schedule" && req.op != "stats" && req.op != "ping" &&
      req.op != "shutdown")
    throw ProtocolError(ServeError::kBadRequest,
                        "unknown op '" + req.op + "'");
  if (req.op == "schedule") {
    if (req.graph_text.empty())
      throw ProtocolError(ServeError::kBadRequest,
                          "op=schedule requires a 'graph' field");
    if (req.algo.empty())
      throw ProtocolError(ServeError::kBadRequest,
                          "op=schedule requires an 'algo' field");
    if (!req.topology.empty() && doc.find("procs") != nullptr)
      throw ProtocolError(ServeError::kBadRequest,
                          "'procs' and 'topology' are mutually exclusive");
  }
  return req;
}

std::string make_cache_key(const std::string& fingerprint_hex,
                           const std::string& algo_class,
                           const std::string& algo,
                           const std::string& topology, int procs) {
  std::string machine =
      topology.empty() ? "procs=" + std::to_string(procs) : topology;
  return fingerprint_hex + "|" + algo_class + "|" + algo + "|" + machine;
}

namespace {

JsonObject base_response(const std::string& id, const char* status) {
  JsonObject o;
  if (!id.empty()) o.add("id", id);
  o.add("status", status);
  return o;
}

}  // namespace

std::string render_error(const std::string& id, ServeError code,
                         const std::string& message) {
  return base_response(id, "error")
      .add("code", serve_error_code(code))
      .add("message", message)
      .str();
}

std::string render_schedule_response(const std::string& id,
                                     const std::string& algo,
                                     const std::string& algo_class,
                                     const CachedSchedule& result, bool cached,
                                     std::uint64_t micros, bool with_schedule,
                                     bool is_apn) {
  JsonObject o = base_response(id, "ok");
  o.add("op", "schedule")
      .add("algo", algo)
      .add("class", algo_class)
      .add_int("makespan", result.makespan)
      .add("nsl", result.nsl)
      .add_int("procs_used", result.procs_used)
      .add("cached", cached)
      .add_uint("micros", micros);
  if (is_apn) o.add_uint("messages", result.num_messages);
  if (with_schedule) o.add("schedule", result.schedule_text);
  return o.str();
}

std::string render_pong(const std::string& id) {
  return base_response(id, "ok").add("op", "ping").str();
}

std::string render_shutdown_ack(const std::string& id) {
  return base_response(id, "ok").add("op", "shutdown").str();
}

}  // namespace tgs
