#include "bdi/serve/protocol.h"

#include <cmath>

namespace bdi::serve {

namespace {

Status BadRequest(const std::string& what) {
  return Status::InvalidArgument("request: " + what);
}

// "'<key>' <what>", built with += rather than a `"'" + std::string(key)`
// chain, which GCC 12 misreads as an overlapping copy (-Wrestrict).
Status BadMember(std::string_view key, std::string_view what) {
  std::string message = "'";
  message += key;
  message += "' ";
  message += what;
  return BadRequest(message);
}

// Reads an optional integer member, range-checked. JSON numbers are
// doubles; anything non-integral is rejected rather than floored.
Status ReadInt(const JsonValue& obj, std::string_view key, long long min,
               long long max, long long* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != JsonValue::Kind::kNumber) {
    return BadMember(key, "must be a number");
  }
  double d = v->number;
  if (d != std::floor(d) || d < static_cast<double>(min) ||
      d > static_cast<double>(max)) {
    std::string range = "must be an integer in [";
    range += std::to_string(min);
    range += ", ";
    range += std::to_string(max);
    range += ']';
    return BadMember(key, range);
  }
  *out = static_cast<long long>(d);
  return Status::OK();
}

// Reads a required non-empty string member.
Status ReadString(const JsonValue& obj, std::string_view key,
                  std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return BadMember(key, "must be a string");
  }
  if (v->string.empty()) {
    return BadMember(key, "must be non-empty");
  }
  *out = v->string;
  return Status::OK();
}

// Rejects members outside the allowed set so typos fail loudly instead of
// being silently ignored.
Status CheckKeys(const JsonValue& obj,
                 std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, unused] : obj.object) {
    bool known = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) return BadRequest("unknown key '" + key + "'");
  }
  return Status::OK();
}

Status ParseUpdateRecords(const JsonValue& root, Request* out) {
  const JsonValue* records = root.Find("records");
  if (records == nullptr || records->kind != JsonValue::Kind::kArray) {
    return BadRequest("'records' must be an array");
  }
  if (records->array.empty()) {
    return BadRequest("'records' must be non-empty");
  }
  if (records->array.size() > kMaxBatchRecords) {
    return BadRequest("'records' exceeds " + std::to_string(kMaxBatchRecords) +
                      " entries");
  }
  out->records.reserve(records->array.size());
  for (size_t i = 0; i < records->array.size(); ++i) {
    const JsonValue& rec = records->array[i];
    const std::string at = " in records[" + std::to_string(i) + "]";
    if (rec.kind != JsonValue::Kind::kObject) {
      return BadRequest("record must be an object" + at);
    }
    Status status = CheckKeys(rec, {"source", "fields"});
    if (!status.ok()) return BadRequest(status.message() + at);
    UpdateRecord parsed;
    status = ReadString(rec, "source", &parsed.source);
    if (!status.ok()) return BadRequest(status.message() + at);
    const JsonValue* fields = rec.Find("fields");
    if (fields == nullptr || fields->kind != JsonValue::Kind::kObject) {
      return BadRequest("'fields' must be an object" + at);
    }
    if (fields->object.empty()) {
      return BadRequest("'fields' must be non-empty" + at);
    }
    parsed.fields.reserve(fields->object.size());
    for (const auto& [attr, value] : fields->object) {
      if (attr.empty()) return BadRequest("empty attribute name" + at);
      if (value.kind != JsonValue::Kind::kString) {
        return BadRequest("field '" + attr + "' must be a string" + at);
      }
      parsed.fields.emplace_back(attr, value.string);
    }
    out->records.push_back(std::move(parsed));
  }
  return Status::OK();
}

}  // namespace

Result<Request> ParseRequest(std::string_view line, long long* id_out) {
  BDI_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (root.kind != JsonValue::Kind::kObject) {
    return BadRequest("must be a JSON object");
  }
  Request out;
  Status status = ReadInt(root, "id", 0, (1LL << 53), &out.id);
  if (!status.ok()) return status;
  // The id is valid from here on: surface it to the caller before any
  // later validation can fail, so error responses echo it (the audit in
  // serve_protocol_test pins this for every error path below).
  if (id_out != nullptr && out.id >= 0) *id_out = out.id;

  const JsonValue* op = root.Find("op");
  if (op == nullptr || op->kind != JsonValue::Kind::kString) {
    return BadRequest("'op' must be a string");
  }
  if (op->string == "ask") {
    out.op = RequestOp::kAsk;
    status = CheckKeys(root, {"op", "id", "entity", "attribute"});
    if (!status.ok()) return status;
    status = ReadString(root, "entity", &out.entity);
    if (!status.ok()) return status;
    status = ReadString(root, "attribute", &out.attribute);
    if (!status.ok()) return status;
  } else if (op->string == "find") {
    out.op = RequestOp::kFind;
    status = CheckKeys(root, {"op", "id", "entity", "k"});
    if (!status.ok()) return status;
    status = ReadString(root, "entity", &out.entity);
    if (!status.ok()) return status;
    long long k = out.k;
    status = ReadInt(root, "k", 1, kMaxFindK, &k);
    if (!status.ok()) return status;
    out.k = static_cast<int>(k);
  } else if (op->string == "stats") {
    out.op = RequestOp::kStats;
    status = CheckKeys(root, {"op", "id"});
    if (!status.ok()) return status;
  } else if (op->string == "update") {
    out.op = RequestOp::kUpdate;
    status = CheckKeys(root, {"op", "id", "records"});
    if (!status.ok()) return status;
    status = ParseUpdateRecords(root, &out);
    if (!status.ok()) return status;
  } else if (op->string == "shutdown") {
    out.op = RequestOp::kShutdown;
    status = CheckKeys(root, {"op", "id"});
    if (!status.ok()) return status;
  } else {
    return BadRequest("unknown op '" + op->string + "'");
  }
  return out;
}

std::string EncodeError(long long id, std::string_view message) {
  std::string out = "{\"ok\":false";
  if (id >= 0) {
    out += ",\"id\":";
    out += std::to_string(id);
  }
  out += ",\"error\":";
  AppendJsonString(&out, message);
  out += "}";
  return out;
}

std::string EncodeOverloaded(long long id, const BatchRejection& rejection) {
  std::string out = "{\"ok\":false";
  if (id >= 0) {
    out += ",\"id\":";
    out += std::to_string(id);
  }
  out += ",\"error\":\"overloaded\",\"retry_after_ms\":";
  AppendJsonNumber(&out, rejection.retry_after_ms);
  out += ",\"pending_batches\":";
  out += std::to_string(rejection.pending_batches);
  out += ",\"pending_records\":";
  out += std::to_string(rejection.pending_records);
  out += "}";
  return out;
}

}  // namespace bdi::serve
