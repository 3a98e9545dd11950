#include "common/status.h"

#include <string>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveDistinctNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists),
               "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string value = std::move(result).ValueOrDie();
  EXPECT_EQ(value, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

Status FailingFunction() { return Status::IoError("disk"); }

Status PropagatingFunction() {
  FC_RETURN_IF_ERROR(FailingFunction());
  return Status::OK();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  Status status = PropagatingFunction();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

Result<int> ProduceValue(bool fail) {
  if (fail) return Status::InvalidArgument("no");
  return 7;
}

Result<int> ConsumeValue(bool fail) {
  FC_ASSIGN_OR_RETURN(int value, ProduceValue(fail));
  return value * 2;
}

TEST(StatusMacroTest, AssignOrReturnSuccess) {
  Result<int> result = ConsumeValue(false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 14);
}

TEST(StatusMacroTest, AssignOrReturnPropagatesError) {
  Result<int> result = ConsumeValue(true);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairclean
