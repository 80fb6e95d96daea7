#include "core/annotation.h"

#include <algorithm>

#include "common/check.h"

namespace mz {

SplitExpr Split(std::string_view split_type, std::vector<std::string> ctor_args) {
  SplitExpr e;
  e.kind = SplitExpr::Kind::kConcrete;
  e.split_name = InternName(split_type);
  e.ctor_arg_names = std::move(ctor_args);
  return e;
}

SplitExpr Generic(std::string_view name) {
  SplitExpr e;
  e.kind = SplitExpr::Kind::kGeneric;
  e.generic = std::string(name);
  return e;
}

SplitExpr NoSplit() {
  SplitExpr e;
  e.kind = SplitExpr::Kind::kMissing;
  return e;
}

SplitExpr Halo() {
  SplitExpr e;
  e.kind = SplitExpr::Kind::kHalo;
  return e;
}

SplitExpr Unknown() {
  SplitExpr e;
  e.kind = SplitExpr::Kind::kUnknown;
  return e;
}

bool Annotation::IsSerial() const {
  return std::none_of(args_.begin(), args_.end(), [](const ArgSpec& a) {
    return a.expr.kind == SplitExpr::Kind::kConcrete || a.expr.kind == SplitExpr::Kind::kGeneric;
  });
}

AnnotationBuilder::AnnotationBuilder(std::string_view func_name) {
  ann_.func_name_ = std::string(func_name);
  ann_.ret_.kind = SplitExpr::Kind::kNone;
}

AnnotationBuilder& AnnotationBuilder::Arg(std::string_view name, SplitExpr expr) {
  MZ_THROW_IF(expr.kind == SplitExpr::Kind::kUnknown,
              "annotation '" << ann_.func_name_ << "': `unknown` is only valid as a return type");
  ArgSpec spec;
  spec.name = std::string(name);
  spec.expr = std::move(expr);
  ann_.args_.push_back(std::move(spec));
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MutArg(std::string_view name, SplitExpr expr) {
  Arg(name, std::move(expr));
  ann_.args_.back().is_mut = true;
  return *this;
}

AnnotationBuilder& AnnotationBuilder::Returns(SplitExpr expr) {
  MZ_THROW_IF(has_ret_, "annotation '" << ann_.func_name_ << "': Returns() specified twice");
  MZ_THROW_IF(expr.kind == SplitExpr::Kind::kHalo,
              "annotation '" << ann_.func_name_ << "': a halo is only valid on an argument");
  has_ret_ = true;
  ann_.ret_ = std::move(expr);
  return *this;
}

Annotation AnnotationBuilder::Build() {
  // Resolve constructor argument names to argument indices.
  auto resolve = [this](SplitExpr& expr, std::string_view where) {
    if (expr.kind != SplitExpr::Kind::kConcrete) {
      return;
    }
    expr.ctor_arg_indices.clear();
    for (const std::string& ctor_arg : expr.ctor_arg_names) {
      auto it = std::find_if(ann_.args_.begin(), ann_.args_.end(),
                             [&](const ArgSpec& a) { return a.name == ctor_arg; });
      MZ_THROW_IF(it == ann_.args_.end(), "annotation '" << ann_.func_name_ << "': " << where
                                                         << " constructor references unknown "
                                                         << "argument '" << ctor_arg << "'");
      expr.ctor_arg_indices.push_back(static_cast<int>(it - ann_.args_.begin()));
    }
  };
  for (ArgSpec& arg : ann_.args_) {
    // Duplicate names would make ctor references ambiguous.
    int count = static_cast<int>(std::count_if(ann_.args_.begin(), ann_.args_.end(),
                                               [&](const ArgSpec& a) { return a.name == arg.name; }));
    MZ_THROW_IF(count > 1,
                "annotation '" << ann_.func_name_ << "': duplicate argument name '" << arg.name << "'");
    resolve(arg.expr, arg.name);
  }
  resolve(ann_.ret_, "return");

  // A generic on the return must be bound by some argument, otherwise it can
  // never be inferred locally or through edges.
  if (ann_.ret_.kind == SplitExpr::Kind::kGeneric) {
    bool bound = std::any_of(ann_.args_.begin(), ann_.args_.end(), [&](const ArgSpec& a) {
      return a.expr.kind == SplitExpr::Kind::kGeneric && a.expr.generic == ann_.ret_.generic;
    });
    MZ_THROW_IF(!bound, "annotation '" << ann_.func_name_ << "': return generic '"
                                       << ann_.ret_.generic << "' not bound by any argument");
  }
  return ann_;
}

}  // namespace mz
