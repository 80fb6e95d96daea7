// Split annotations (§3.2, Listing 3 of the paper).
//
// The paper's surface syntax
//
//   @splittable(size: SizeSplit(size), a: ArraySplit(size),
//               mut out: ArraySplit(size))
//   void vdAdd(long size, double *a, double *b, double *out);
//
// is expressed here with a builder:
//
//   Annotation ann = AnnotationBuilder("vdAdd")
//                        .Arg("size", Split("SizeSplit", {"size"}))
//                        .Arg("a", Split("ArraySplit", {"size"}))
//                        .Arg("b", Split("ArraySplit", {"size"}))
//                        .MutArg("out", Split("ArraySplit", {"size"}))
//                        .Build();
//
// Generics ("S"), the missing type ("_"), and `unknown` map to Generic(...),
// NoSplit(), and Unknown() respectively; the return value's split type is set
// with Returns(...). Halo() is a "_" for stencil sources: every batch still
// reads the whole value, but a batch touches only the rows around its own
// band, so the footprint model charges it per element rather than whole.
#ifndef MOZART_CORE_ANNOTATION_H_
#define MOZART_CORE_ANNOTATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"

namespace mz {

// The split-type expression assigned to one argument (or the return value).
struct SplitExpr {
  enum class Kind {
    kNone,      // no return value (void) — only valid for `ret`
    kMissing,   // "_": argument is not split; broadcast to every pipeline
    kConcrete,  // Name(arg, ...): concrete split type with a constructor
    kGeneric,   // "S": resolved by type inference
    kUnknown,   // `unknown`: unique type — only valid for `ret`
    kHalo,      // planned and executed as "_"; charged per element (stencils)
  };

  Kind kind = Kind::kMissing;
  // kConcrete:
  InternedId split_name = 0;
  std::vector<std::string> ctor_arg_names;  // resolved to indices in Build()
  std::vector<int> ctor_arg_indices;
  // kGeneric:
  std::string generic;
};

// Helpers producing SplitExpr values for the builder.
SplitExpr Split(std::string_view split_type, std::vector<std::string> ctor_args = {});
SplitExpr Generic(std::string_view name);
SplitExpr NoSplit();
SplitExpr Unknown();
SplitExpr Halo();

struct ArgSpec {
  std::string name;
  bool is_mut = false;
  SplitExpr expr;
};

// An immutable split annotation over one function.
class Annotation {
 public:
  const std::string& func_name() const { return func_name_; }
  const std::vector<ArgSpec>& args() const { return args_; }
  const SplitExpr& ret() const { return ret_; }
  int num_args() const { return static_cast<int>(args_.size()); }

  // True if no argument is split (the node executes serially, unsplit).
  bool IsSerial() const;

 private:
  friend class AnnotationBuilder;
  std::string func_name_;
  std::vector<ArgSpec> args_;
  SplitExpr ret_;
};

class AnnotationBuilder {
 public:
  explicit AnnotationBuilder(std::string_view func_name);

  AnnotationBuilder& Arg(std::string_view name, SplitExpr expr);
  AnnotationBuilder& MutArg(std::string_view name, SplitExpr expr);
  AnnotationBuilder& Returns(SplitExpr expr);

  // Validates the annotation (ctor-argument names resolve, generics are used
  // consistently, `unknown` only on the return) and resolves names → indices.
  // Throws mz::Error on invalid annotations.
  Annotation Build();

 private:
  Annotation ann_;
  bool has_ret_ = false;
};

}  // namespace mz

#endif  // MOZART_CORE_ANNOTATION_H_
