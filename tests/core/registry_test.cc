// Unit tests for the split-type registry: definition idempotence, ctor /
// late-ctor dispatch, splitter lookup per (split type, C++ type) pair,
// per-type defaults, and the pedantic-mode type inventory.
#include "core/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <typeindex>
#include <vector>

#include "common/check.h"
#include "core/splitter.h"
#include "core/unpack.h"
#include "core/value.h"

namespace mz {
namespace {

RuntimeInfo PtrInfo(double* const&, std::span<const std::int64_t> params) {
  return RuntimeInfo{params.empty() ? 0 : params[0],
                     static_cast<std::int64_t>(sizeof(double))};
}

Value PtrSplit(double* const& base, std::int64_t start, std::int64_t,
               std::span<const std::int64_t>, const SplitContext&) {
  return Value::Make<double*>(base + start);
}

Value PtrMerge(const Value& original, std::vector<Value>, std::span<const std::int64_t>) {
  return original;
}

SplitTypeCtor MakeCtor(std::int64_t param) {
  return [param](std::span<const Value>) -> std::optional<std::vector<std::int64_t>> {
    return std::vector<std::int64_t>{param};
  };
}

TEST(RegistryTest, DefineSplitTypeReturnsStableInternedId) {
  Registry reg;
  InternedId id = reg.DefineSplitType("RT.Array", MakeCtor(1), nullptr);
  EXPECT_TRUE(reg.HasSplitType(id));
  EXPECT_EQ(reg.DefineSplitType("RT.Array", MakeCtor(2), nullptr), id);
  EXPECT_EQ(InternName("RT.Array"), id);
}

TEST(RegistryTest, HasSplitTypeFalseForUnknown) {
  Registry reg;
  EXPECT_FALSE(reg.HasSplitType(InternName("RT.NeverDefined")));
}

TEST(RegistryTest, RedefinitionReplacesCtor) {
  // Idempotent redefinition replaces the ctor (tests rely on this; see
  // registry.h contract).
  Registry reg;
  InternedId id = reg.DefineSplitType("RT.Replace", MakeCtor(10), nullptr);
  reg.DefineSplitType("RT.Replace", MakeCtor(20), nullptr);
  auto params = reg.RunCtor(id, {});
  ASSERT_TRUE(params.has_value());
  ASSERT_EQ(params->size(), 1u);
  EXPECT_EQ((*params)[0], 20);
}

TEST(RegistryTest, RunCtorSeesCapturedArguments) {
  Registry reg;
  InternedId id = reg.DefineSplitType(
      "RT.FromArgs",
      [](std::span<const Value> args) -> std::optional<std::vector<std::int64_t>> {
        return std::vector<std::int64_t>{ValueToInt64(args[0]), ValueToInt64(args[1])};
      },
      nullptr);
  std::vector<Value> args = {Value::Make<long>(7), Value::Make<long>(9)};
  auto params = reg.RunCtor(id, args);
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ(*params, (std::vector<std::int64_t>{7, 9}));
}

TEST(RegistryTest, RunCtorNulloptMeansDeferred) {
  Registry reg;
  InternedId id = reg.DefineSplitType(
      "RT.Deferred",
      [](std::span<const Value>) -> std::optional<std::vector<std::int64_t>> {
        return std::nullopt;  // depends on a pending value
      },
      [](const Value& value) {
        return std::vector<std::int64_t>{ValueToInt64(value)};
      });
  EXPECT_FALSE(reg.RunCtor(id, {}).has_value());
  EXPECT_EQ(reg.RunLateCtor(id, Value::Make<long>(33)),
            (std::vector<std::int64_t>{33}));
}

TEST(RegistryTest, FindSplitterKeyedBySplitTypeAndCppType) {
  Registry reg;
  reg.DefineSplitType("RT.Lookup", MakeCtor(0), nullptr);
  RegisterTypedSplitter<double*>(reg, "RT.Lookup", PtrInfo, PtrSplit, PtrMerge);
  InternedId id = InternName("RT.Lookup");
  EXPECT_NE(reg.FindSplitter(id, std::type_index(typeid(double*))), nullptr);
  EXPECT_EQ(reg.FindSplitter(id, std::type_index(typeid(float*))), nullptr);
  EXPECT_EQ(reg.FindSplitter(InternName("RT.Other"), std::type_index(typeid(double*))),
            nullptr);
}

TEST(RegistryTest, RegisteredSplitterRoundTripsThroughVirtuals) {
  Registry reg;
  reg.DefineSplitType("RT.Virt", MakeCtor(0), nullptr);
  RegisterTypedSplitter<double*>(reg, "RT.Virt", PtrInfo, PtrSplit, PtrMerge);
  const Splitter* splitter =
      reg.FindSplitter(InternName("RT.Virt"), std::type_index(typeid(double*)));
  ASSERT_NE(splitter, nullptr);

  std::vector<double> data(100, 0.0);
  Value whole = Value::Make<double*>(data.data());
  std::vector<std::int64_t> params = {100};
  RuntimeInfo info = splitter->Info(whole, params);
  EXPECT_EQ(info.total_elements, 100);
  EXPECT_EQ(info.bytes_per_element, 8);

  SplitContext ctx{0, 2};
  Value piece = splitter->Split(whole, 50, 100, params, ctx);
  EXPECT_EQ(piece.As<double*>(), data.data() + 50);

  Value merged = splitter->Merge(whole, {piece}, params);
  EXPECT_EQ(merged.As<double*>(), data.data());
}

TEST(RegistryTest, DefaultSplitTypePerCppType) {
  Registry reg;
  reg.DefineSplitType("RT.DefaultArray", MakeCtor(0), nullptr);
  EXPECT_FALSE(reg.DefaultSplitTypeFor(std::type_index(typeid(double*))).has_value());
  reg.SetDefaultSplitType(std::type_index(typeid(double*)), "RT.DefaultArray");
  auto def = reg.DefaultSplitTypeFor(std::type_index(typeid(double*)));
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(*def, InternName("RT.DefaultArray"));
  EXPECT_FALSE(reg.DefaultSplitTypeFor(std::type_index(typeid(int*))).has_value());
}

TEST(RegistryTest, TypesForSplitTypeListsRegisteredCppTypes) {
  Registry reg;
  reg.DefineSplitType("RT.Inventory", MakeCtor(0), nullptr);
  EXPECT_TRUE(reg.TypesForSplitType(InternName("RT.Inventory")).empty());
  RegisterTypedSplitter<double*>(reg, "RT.Inventory", PtrInfo, PtrSplit, PtrMerge);
  auto types = reg.TypesForSplitType(InternName("RT.Inventory"));
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(types[0], std::type_index(typeid(double*)));
}

Value SumMerge(const Value&, std::vector<Value> pieces, std::span<const std::int64_t>) {
  double acc = 0;
  for (const Value& p : pieces) {
    acc += p.As<double>();
  }
  return Value::Make<double>(acc);
}

TEST(RegistryTest, MergeOnlySplitterThrowsNamingTheSplitType) {
  Registry reg;
  InternedId id = reg.DefineSplitType("RT.MergeOnly", nullptr, nullptr);
  RegisterMergeOnlySplitter<double>(reg, "RT.MergeOnly", SumMerge,
                                    SplitterTraits{.incremental_merge = true});
  const Splitter* sp = reg.FindSplitter(id, std::type_index(typeid(double)));
  ASSERT_NE(sp, nullptr);
  EXPECT_TRUE(sp->traits().merge_only);
  EXPECT_TRUE(sp->traits().incremental_merge);
  EXPECT_TRUE(reg.SplitTypeIsMergeOnly(id));

  const Value v = Value::Make<double>(1.0);
  const std::vector<std::int64_t> params;
  auto expect_throw_naming_type = [](auto&& call) {
    try {
      call();
      ADD_FAILURE() << "merge-only splitter did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("RT.MergeOnly"), std::string::npos) << e.what();
    }
  };
  expect_throw_naming_type([&] { sp->Info(v, params); });
  expect_throw_naming_type([&] { sp->Split(v, 0, 1, params, SplitContext{}); });
  Value merged = sp->Merge(Value(), {Value::Make<double>(1.5), Value::Make<double>(2.0)}, params);
  EXPECT_DOUBLE_EQ(merged.As<double>(), 3.5);
}

TEST(RegistryTest, GlobalRegistryIsASingleton) {
  Registry& a = Registry::Global();
  Registry& b = Registry::Global();
  EXPECT_EQ(&a, &b);
  InternedId id = a.DefineSplitType("RT.GlobalProbe", MakeCtor(0), nullptr);
  EXPECT_TRUE(b.HasSplitType(id));
}

}  // namespace
}  // namespace mz
