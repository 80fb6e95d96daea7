// Unit tests for the SA builder, its validation rules, and split-type
// equality (§3.2).
#include "core/annotation.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/split_type.h"

namespace mz {
namespace {

TEST(SplitTypeTest, ConcreteEqualityIsNameAndParams) {
  SplitType a = SplitType::Concrete("ArraySplit", {10});
  SplitType b = SplitType::Concrete("ArraySplit", {10});
  SplitType c = SplitType::Concrete("ArraySplit", {5});
  SplitType d = SplitType::Concrete("MatrixSplit", {10});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // same name, different params (the paper's 10/2 vs 10/5)
  EXPECT_NE(a, d);
}

TEST(SplitTypeTest, UnknownIsUniquePerInstance) {
  SplitType u1 = SplitType::Unknown(1);
  SplitType u2 = SplitType::Unknown(2);
  SplitType u1_again = SplitType::Unknown(1);
  EXPECT_NE(u1, u2);
  EXPECT_EQ(u1, u1_again);
  EXPECT_NE(u1, SplitType::Concrete("ArraySplit", {}));
}

TEST(SplitTypeTest, ToStringIsReadable) {
  EXPECT_EQ(SplitType::Concrete("MatrixSplit", {3, 4, 0}).ToString(), "MatrixSplit<3,4,0>");
  EXPECT_EQ(SplitType::Unknown(7).ToString(), "unknown#7");
}

TEST(AnnotationTest, BuildsAndResolvesCtorArgs) {
  Annotation ann = AnnotationBuilder("vdAdd")
                       .Arg("size", Split("SizeSplit", {"size"}))
                       .Arg("a", Split("ArraySplit", {"size"}))
                       .MutArg("out", Split("ArraySplit", {"size"}))
                       .Build();
  EXPECT_EQ(ann.func_name(), "vdAdd");
  EXPECT_EQ(ann.num_args(), 3);
  EXPECT_FALSE(ann.args()[0].is_mut);
  EXPECT_TRUE(ann.args()[2].is_mut);
  ASSERT_EQ(ann.args()[1].expr.ctor_arg_indices.size(), 1u);
  EXPECT_EQ(ann.args()[1].expr.ctor_arg_indices[0], 0);
  EXPECT_FALSE(ann.IsSerial());
}

TEST(AnnotationTest, UnknownCtorArgNameThrows) {
  EXPECT_THROW(AnnotationBuilder("f")
                   .Arg("a", Split("ArraySplit", {"missing_arg"}))
                   .Build(),
               Error);
}

TEST(AnnotationTest, DuplicateArgNameThrows) {
  EXPECT_THROW(AnnotationBuilder("f")
                   .Arg("a", NoSplit())
                   .Arg("a", NoSplit())
                   .Build(),
               Error);
}

TEST(AnnotationTest, UnknownOnArgumentThrows) {
  EXPECT_THROW(AnnotationBuilder("f").Arg("a", Unknown()), Error);
}

TEST(AnnotationTest, UnboundReturnGenericThrows) {
  // `-> S` with no argument bound to S can never be inferred.
  EXPECT_THROW(AnnotationBuilder("f")
                   .Arg("a", NoSplit())
                   .Returns(Generic("S"))
                   .Build(),
               Error);
}

TEST(AnnotationTest, ReturnGenericBoundByArgIsFine) {
  Annotation ann = AnnotationBuilder("scale")
                       .Arg("m", Generic("S"))
                       .Arg("c", NoSplit())
                       .Returns(Generic("S"))
                       .Build();
  EXPECT_EQ(ann.ret().kind, SplitExpr::Kind::kGeneric);
}

TEST(AnnotationTest, AllMissingIsSerial) {
  Annotation ann = AnnotationBuilder("roll")
                       .Arg("a", NoSplit())
                       .MutArg("out", NoSplit())
                       .Build();
  EXPECT_TRUE(ann.IsSerial());
}

TEST(AnnotationTest, HaloIsAnUnsplitArgumentOnly) {
  // A halo splits nothing: with no split argument beside it the call is
  // serial, like "_".
  EXPECT_TRUE(AnnotationBuilder("f").Arg("a", Halo()).Arg("n", NoSplit()).Build().IsSerial());
  Annotation ann = AnnotationBuilder("roll")
                       .Arg("a", Halo())
                       .MutArg("out", Split("ArraySplit", {}))
                       .Build();
  EXPECT_FALSE(ann.IsSerial());
  EXPECT_EQ(ann.args()[0].expr.kind, SplitExpr::Kind::kHalo);
  EXPECT_THROW(AnnotationBuilder("f").Arg("a", Generic("S")).Returns(Halo()), Error);
}

TEST(AnnotationTest, DoubleReturnsThrows) {
  AnnotationBuilder b("f");
  b.Arg("a", Generic("S"));
  b.Returns(Generic("S"));
  EXPECT_THROW(b.Returns(Unknown()), Error);
}

}  // namespace
}  // namespace mz
