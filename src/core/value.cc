#include "core/value.h"

#include <cassert>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/strings.h"

namespace rdx {
namespace {

// Process-wide interning tables. Guarded by a mutex so generators and tests
// may run concurrently. Allocated on first use and intentionally leaked
// (static-storage objects must be trivially destructible).
struct ValueTables {
  std::mutex mu;
  std::vector<std::string> constant_names;
  std::unordered_map<std::string, uint32_t> constant_ids;
  // Nulls share one id space: named nulls get an entry in null_labels keyed
  // by id; fresh nulls get a synthesized label.
  std::vector<std::string> null_labels;
  std::unordered_map<std::string, uint32_t> null_ids;
};

ValueTables& Tables() {
  static ValueTables& tables = *new ValueTables();
  return tables;
}

}  // namespace

Value Value::MakeConstant(std::string_view name) {
  ValueTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  std::string key(name);
  auto it = t.constant_ids.find(key);
  if (it != t.constant_ids.end()) {
    return Value(Kind::kConstant, it->second);
  }
  uint32_t id = static_cast<uint32_t>(t.constant_names.size());
  t.constant_names.push_back(key);
  t.constant_ids.emplace(std::move(key), id);
  return Value(Kind::kConstant, id);
}

Value Value::MakeInt(int64_t v) { return MakeConstant(StrCat(v)); }

Value Value::MakeNull(std::string_view name) {
  ValueTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  std::string key(name);
  auto it = t.null_ids.find(key);
  if (it != t.null_ids.end()) {
    return Value(Kind::kNull, it->second);
  }
  uint32_t id = static_cast<uint32_t>(t.null_labels.size());
  t.null_labels.push_back(key);
  t.null_ids.emplace(std::move(key), id);
  return Value(Kind::kNull, id);
}

Value Value::FreshNull() {
  ValueTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  uint32_t id = static_cast<uint32_t>(t.null_labels.size());
  std::string label = StrCat("N", id);
  // Synthesized labels can collide with user labels ("N7", "N7_", ...);
  // append underscores until the label is unused. Each retry is a new
  // label, so the loop ends.
  while (t.null_ids.count(label) > 0) {
    label += "_";
  }
  t.null_labels.push_back(label);
  t.null_ids.emplace(std::move(label), id);
  return Value(Kind::kNull, id);
}

std::string Value::name() const {
  ValueTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  if (kind_ == Kind::kConstant) {
    assert(id_ < t.constant_names.size());
    return t.constant_names[id_];
  }
  assert(id_ < t.null_labels.size());
  return t.null_labels[id_];
}

std::string Value::ToString() const {
  if (IsConstant()) return name();
  return StrCat("?", name());
}

}  // namespace rdx
