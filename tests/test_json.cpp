// Differential tests of the JSON reader: the production json_parse, whose
// string decoder moves plain bytes a word at a time, against the frozen
// byte-at-a-time parser in reference_json.h.
//
// A deterministic mutation fuzzer derives inputs from schedule request
// lines as tgs_client writes them (graph text included) and from
// hand-written edge cases of the string grammar. For every input both
// parsers must accept or reject alike with the same exception message,
// offset included, and an accepted input must decode to the same values.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "reference_json.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/graph_io.h"
#include "tgs/serve/json.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

using reference::ReferenceJson;
using Type = ReferenceJson::Type;

std::string value_diff(const JsonValue& got, const ReferenceJson& want);

/// True when `get` throws std::invalid_argument.
template <typename Get>
bool rejects(Get get) {
  try {
    get();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

/// Compares member `key` of `parent` with `want`. The typed getters throw
/// on a member of another type, so a member's type is checked exactly; an
/// array, which keeps no elements, is the non-object member they all
/// reject.
std::string member_diff(const JsonValue& parent, const std::string& key,
                        const ReferenceJson& want) {
  const JsonValue* got = parent.find(key);
  if (got == nullptr) return "missing member " + testing::PrintToString(key);
  const std::string where = "member " + testing::PrintToString(key) + ": ";
  if (want.type_ == Type::kNull)
    return got->is_null() ? "" : where + "not null";
  if (got->is_null()) return where + "null";
  try {
    switch (want.type_) {
      case Type::kBool:
        return parent.get_bool(key, !want.bool_) == want.bool_ ? ""
                                                               : where + "bool";
      case Type::kNumber: {
        const double x = parent.get_number(key, 0);
        return x == want.num_ || (x != x && want.num_ != want.num_)
                   ? ""
                   : where + "number";
      }
      case Type::kString:
        return parent.get_string(key, "") == want.str_ ? "" : where + "string";
      case Type::kArray:
        return !got->is_object() &&
                       rejects([&] { parent.get_bool(key, false); }) &&
                       rejects([&] { parent.get_number(key, 0); }) &&
                       rejects([&] { parent.get_string(key, ""); })
                   ? ""
                   : where + "not an array";
      default: {
        const std::string d = value_diff(*got, want);
        return d.empty() ? "" : where + d;
      }
    }
  } catch (const std::invalid_argument& e) {
    return where + e.what();
  }
}

/// Equal values; returns the first difference, empty when equal. Object
/// members are compared through member_diff; a bare document through
/// as_string/as_number, which tell every type apart but a bool or an
/// array from "" and 0.
std::string value_diff(const JsonValue& got, const ReferenceJson& want) {
  switch (want.type_) {
    case Type::kNull:
      return got.is_null() ? "" : "not null";
    case Type::kObject:
      if (!got.is_object()) return "not an object";
      for (const auto& [key, member] : want.obj_)
        if (std::string d = member_diff(got, key, member); !d.empty())
          return d;
      return "";
    default:
      if (got.is_null() || got.is_object()) return "not a scalar";
      if (got.as_string() != want.str_) return "string";
      if (got.as_number() != want.num_ &&
          !(got.as_number() != got.as_number() && want.num_ != want.num_))
        return "number";
      return "";
  }
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Parses `text` with both parsers and checks they agree.
void expect_same(const std::string& text, Tally* tally) {
  std::string got_error, want_error;
  std::optional<JsonValue> got;
  std::optional<ReferenceJson> want;
  try {
    got = json_parse(text);
  } catch (const std::invalid_argument& e) {
    got_error = e.what();
  }
  try {
    want = reference::json_parse(text);
  } catch (const std::invalid_argument& e) {
    want_error = e.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << "input: " << testing::PrintToString(text) << "\nnew: " << got_error
      << "\nreference: " << want_error;
  if (!got) {
    ASSERT_EQ(got_error, want_error)
        << "input: " << testing::PrintToString(text);
    ++tally->rejected;
    return;
  }
  ASSERT_EQ(value_diff(*got, *want), "")
      << "input: " << testing::PrintToString(text);
  ++tally->accepted;
}

// ----------------------------------------------------------- mutations --

/// Bytes the string decoder treats specially, and JSON structure.
const char kSpecial[] = {'"', '\\', '\\', 'u',  'n',  '/', '\0', '\x01',
                         '\n', '\x1f', '\x7f', '\x80', '\xff', '{', '}', '[',
                         ']',  ':',  ',',  '0',  'e',  '-',  ' ', 'A'};

std::string mutate(const std::string& seed, Rng& rng) {
  std::string text = seed;
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    const auto at = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, text.size()));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // flip one byte
        if (text.empty()) break;
        const std::size_t i = at() % text.size();
        const int bit = static_cast<int>(rng.uniform_int(0, 7));
        text[i] = rng.bernoulli(0.5)
                      ? static_cast<char>(text[i] ^ (1 << bit))
                      : static_cast<char>(rng.uniform_int(0, 255));
        break;
      }
      case 1:  // insert a special byte
        text.insert(at(), 1,
                    kSpecial[rng.uniform_int(0, std::size(kSpecial) - 1)]);
        break;
      case 2:  // truncate
        text.resize(at());
        break;
      case 3: {  // insert a run of backslashes, before a quote or not
        std::string run(static_cast<std::size_t>(rng.uniform_int(1, 5)), '\\');
        if (rng.bernoulli(0.5)) run.push_back('"');
        text.insert(at(), run);
        break;
      }
      case 4: {  // a \u escape with four, fewer or bad hex digits
        static const char* const kU[] = {"\\u0041", "\\u00e9", "\\u20AC",
                                         "\\uffff", "\\u12",   "\\u12\"",
                                         "\\uzz00", "\\u",     "\\u0000"};
        text.insert(at(), kU[rng.uniform_int(0, std::size(kU) - 1)]);
        break;
      }
      case 5: {  // delete a span
        const std::size_t i = at();
        text.erase(i, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      }
    }
  }
  return text;
}

/// A schedule request line as tgs_client writes it.
std::string request_line(const TaskGraph& g, const std::string& algo,
                         const std::string& topology) {
  JsonObject o;
  o.add("id", "req-" + g.name()).add("algo", algo).add("graph",
                                                      graph_to_string(g));
  if (!topology.empty()) o.add("topology", topology);
  o.add("schedule", true).add_int("deadline_ms", 250).add("priority", "low");
  return o.str();
}

std::string nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "1" +
         std::string(static_cast<std::size_t>(depth), ']');
}

std::vector<std::string> seeds() {
  std::vector<std::string> out;
  const std::vector<PsgEntry> psg = peer_set_graphs();
  for (std::size_t i = 0; i < psg.size(); i += 3)
    out.push_back(request_line(psg[i].graph, "MCP", i % 2 ? "ring4" : ""));
  RgnosParams p;
  p.num_nodes = 40;
  p.seed = 3;
  out.push_back(request_line(rgnos_graph(p), "param:cp/static/insert", ""));
  const char* const kHandWritten[] = {
      R"({"s":"a\"b"})",
      R"({"s":"\\"})",
      R"({"s":"\\\""})",
      R"({"s":"\\\\"})",
      R"({"s":"\\\\\"x"})",
      R"({"s":"ends\\\\\\"})",
      R"({"s\\\"k":"v","k\"":1})",
      R"({"u":"\u0041\u00e9\u20ac\uFFFF\u0000"})",
      R"({"u":"\u12"})",
      R"({"u":"\u12G4"})",
      R"({"u":"\u"})",
      R"({"u":"\u004)",
      R"({"u":"\/\b\f\n\r\t"})",
      R"({"e":"\x"})",
      R"({"e":"\'"})",
      "{\"c\":\"tab\there\"}",
      "{\"c\":\"nl\nhere\"}",
      "{\"c\":\"\x1f\"}",
      "{\"c\":\"del\x7f and high \xff\xc3\xa9\"}",
      "{\"s\":\"lone\\",
      "{\"s\":\"lone\\\\",
      "\"unterminated",
      "\"unterminated\\\"",
      "\"",
      "\"\\",
      R"("")",
      R"("exactly 8")",
      R"("sixteen bytes..." )",
      R"({"a":[1,"x",null,true,{"b":"c"}],"n":-1.5e3})",
      R"({"a":1}x)",
      "",
  };
  for (const char* t : kHandWritten) out.emplace_back(t);
  static const char kNul[] = "{\"s\":\"a\0b\"}";
  out.emplace_back(kNul, sizeof(kNul) - 1);
  // Nesting: kMaxDepth (64) levels parse, one more does not.
  out.push_back(nested(64));
  out.push_back(nested(65));
  out.push_back("{\"d\":" + nested(63) + "}");
  out.push_back("{\"d\":" + nested(64) + "}");
  // Every alignment of an escape against the 8-byte words.
  for (int k = 0; k < 17; ++k)
    out.push_back("{\"w\":\"" + std::string(static_cast<std::size_t>(k), 'x') +
                  "\\n" + std::string(static_cast<std::size_t>(16 - k), 'y') +
                  "\"}");
  return out;
}

TEST(JsonDifferential, SeedsMatchReference) {
  Tally tally;
  for (const std::string& s : seeds()) {
    SCOPED_TRACE(testing::PrintToString(s.substr(0, 60)));
    expect_same(s, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.accepted, 20);
  EXPECT_GT(tally.rejected, 15);
}

TEST(JsonDifferential, MutationsMatchReference) {
  const std::vector<std::string> corpus = seeds();
  Rng rng(20261019);
  Tally tally;
  for (const std::string& s : corpus) {
    // Request lines carry whole graphs; fewer mutations keep the run short.
    const int per_seed = s.size() > 4096 ? 60 : 400;
    for (int i = 0; i < per_seed; ++i) {
      expect_same(mutate(s, rng), &tally);
      if (HasFatalFailure()) return;
    }
  }
  // The mutations must explore both sides of the accept/reject line.
  EXPECT_GT(tally.accepted, 2000);
  EXPECT_GT(tally.rejected, 5000);
  RecordProperty("accepted", tally.accepted);
  RecordProperty("rejected", tally.rejected);
}

// The decoded graph text is the text tgs_client encoded, byte for byte.
TEST(JsonDifferential, RequestGraphTextRoundTrips) {
  RgnosParams p;
  p.num_nodes = 300;
  p.seed = 7;
  const TaskGraph g = rgnos_graph(p);
  const JsonValue v = json_parse(request_line(g, "MCP", ""));
  EXPECT_EQ(v.get_string("graph", ""), graph_to_string(g));
}

}  // namespace
}  // namespace tgs
