#include "core/registry.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace mz {

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

InternedId Registry::DefineSplitType(std::string_view name, SplitTypeCtor ctor,
                                     LateCtor late_ctor) {
  InternedId id = InternName(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  SplitTypeDef& def = types_[id];
  def.ctor = std::move(ctor);
  def.late_ctor = std::move(late_ctor);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return id;
}

void Registry::AddSplitter(std::string_view name, std::type_index type,
                           std::shared_ptr<Splitter> splitter) {
  InternedId id = InternName(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(id);
  MZ_CHECK_MSG(it != types_.end(), "AddSplitter: split type '" << name << "' not defined");
  it->second.splitters[type] = std::move(splitter);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

void Registry::SetDefaultSplitType(std::type_index type, std::string_view name) {
  InternedId id = InternName(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  MZ_CHECK_MSG(types_.count(id) == 1, "SetDefaultSplitType: '" << name << "' not defined");
  defaults_[type] = id;
  version_.fetch_add(1, std::memory_order_acq_rel);
}

const Splitter* Registry::FindSplitter(InternedId name, std::type_index type) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end()) {
    return nullptr;
  }
  auto jt = it->second.splitters.find(type);
  if (jt == it->second.splitters.end()) {
    return nullptr;
  }
  return jt->second.get();
}

bool Registry::HasSplitType(InternedId name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return types_.count(name) == 1;
}

bool Registry::SplitTypeIsMergeOnly(InternedId name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end() || it->second.splitters.empty()) {
    return true;  // unsplittable either way — treat as not piecewise-consumable
  }
  for (const auto& [type, splitter] : it->second.splitters) {
    if (!splitter->traits().merge_only) {
      return false;
    }
  }
  return true;
}

bool Registry::SplitTypeSupportsIncrementalMerge(InternedId name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end() || it->second.splitters.empty()) {
    return false;  // nothing registered — refuse to fold rather than double-count
  }
  for (const auto& [type, splitter] : it->second.splitters) {
    if (!splitter->traits().incremental_merge) {
      return false;
    }
  }
  return true;
}

std::int64_t Registry::ElementWidthForSplitType(InternedId name,
                                                std::span<const std::int64_t> params) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end()) {
    return 0;
  }
  std::int64_t width = 0;
  for (const auto& [type, splitter] : it->second.splitters) {
    width = std::max(width, params.empty() ? splitter->traits().element_width
                                           : splitter->WidthForParams(params));
  }
  return width;
}

std::shared_ptr<const Splitter> Registry::FindSplitterShared(InternedId name,
                                                             std::type_index type) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end()) {
    return nullptr;
  }
  auto jt = it->second.splitters.find(type);
  if (jt == it->second.splitters.end()) {
    return nullptr;
  }
  return jt->second;
}

std::optional<RuntimeInfo> Registry::ProbeRuntimeInfo(const Value& value) const {
  if (!value.has_value()) {
    return std::nullopt;
  }
  LateCtor late;
  const Splitter* splitter = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto dit = defaults_.find(value.type());
    if (dit == defaults_.end()) {
      return std::nullopt;
    }
    auto it = types_.find(dit->second);
    if (it == types_.end()) {
      return std::nullopt;
    }
    auto jt = it->second.splitters.find(value.type());
    if (jt == it->second.splitters.end()) {
      return std::nullopt;
    }
    late = it->second.late_ctor;
    splitter = jt->second.get();
  }
  try {
    std::vector<std::int64_t> params = late ? late(value) : std::vector<std::int64_t>{};
    return splitter->Info(value, params);
  } catch (const std::exception&) {
    return std::nullopt;  // a probe is best-effort; unprobeable = unconstrained
  }
}

CtorParams Registry::RunCtor(InternedId name, std::span<const Value> args) const {
  SplitTypeCtor ctor;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = types_.find(name);
    MZ_CHECK_MSG(it != types_.end(), "RunCtor: split type " << InternedName(name) << " undefined");
    ctor = it->second.ctor;
  }
  if (!ctor) {
    return std::vector<std::int64_t>{};  // parameterless split type
  }
  return ctor(args);
}

std::vector<std::int64_t> Registry::RunLateCtor(InternedId name, const Value& value) const {
  LateCtor late;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = types_.find(name);
    MZ_CHECK_MSG(it != types_.end(),
                 "RunLateCtor: split type " << InternedName(name) << " undefined");
    late = it->second.late_ctor;
  }
  if (!late) {
    return {};
  }
  return late(value);
}

std::optional<InternedId> Registry::DefaultSplitTypeFor(std::type_index type) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = defaults_.find(type);
  if (it == defaults_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<std::type_index> Registry::TypesForSplitType(InternedId name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::type_index> out;
  auto it = types_.find(name);
  if (it != types_.end()) {
    for (const auto& [type, splitter] : it->second.splitters) {
      out.push_back(type);
    }
  }
  return out;
}

namespace {

class MergeOnlySplitter final : public Splitter {
 public:
  MergeOnlySplitter(std::string_view name, MergeFunction merge, SplitterTraits traits)
      : name_(name), merge_(merge), traits_(traits) {}
  RuntimeInfo Info(const Value&, std::span<const std::int64_t>) const override {
    MZ_THROW(name_ << " is merge-only; it cannot appear on an argument");
  }
  Value Split(const Value&, std::int64_t, std::int64_t, std::span<const std::int64_t>,
              const SplitContext&) const override {
    MZ_THROW(name_ << " is merge-only; it cannot be split");
  }
  Value Merge(const Value& original, std::vector<Value> pieces,
              std::span<const std::int64_t> params) const override {
    return merge_(original, std::move(pieces), params);
  }
  SplitterTraits traits() const override { return traits_; }

 private:
  std::string name_;
  MergeFunction merge_;
  SplitterTraits traits_;
};

}  // namespace

std::shared_ptr<Splitter> MakeMergeOnlySplitter(std::string_view name, MergeFunction merge,
                                                SplitterTraits traits) {
  traits.merge_only = true;
  return std::make_shared<MergeOnlySplitter>(name, merge, traits);
}

}  // namespace mz
