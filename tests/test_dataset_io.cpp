#include "dataset/dataset_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace fastbns {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "fastbns_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, RoundTripPreservesValuesAndNames) {
  DiscreteDataset data(3, 5, {2, 3, 4}, DataLayout::kBoth);
  for (Count s = 0; s < 5; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, static_cast<DataValue>((s * 2 + v) % data.cardinality(v)));
    }
  }
  const std::vector<std::string> names = {"A", "B", "C"};
  ASSERT_TRUE(save_csv(data, names, path("roundtrip.csv")));

  const NamedDataset loaded = load_csv(path("roundtrip.csv"));
  EXPECT_EQ(loaded.names, names);
  ASSERT_EQ(loaded.data.num_vars(), 3);
  ASSERT_EQ(loaded.data.num_samples(), 5);
  for (Count s = 0; s < 5; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      EXPECT_EQ(loaded.data.value(s, v), data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, MissingNamesBecomeVPrefixed) {
  DiscreteDataset data(2, 1, {2, 2}, DataLayout::kColumnMajor);
  ASSERT_TRUE(save_csv(data, {}, path("unnamed.csv")));
  const NamedDataset loaded = load_csv(path("unnamed.csv"));
  EXPECT_EQ(loaded.names, (std::vector<std::string>{"V0", "V1"}));
}

TEST_F(DatasetIoTest, CardinalityInferredAsMaxPlusOne) {
  std::ofstream out(path("infer.csv"));
  out << "x,y\n0,2\n1,0\n0,1\n";
  out.close();
  const NamedDataset loaded = load_csv(path("infer.csv"));
  EXPECT_EQ(loaded.data.cardinality(0), 2);
  EXPECT_EQ(loaded.data.cardinality(1), 3);
}

TEST_F(DatasetIoTest, ExplicitCardinalitiesOverrideInference) {
  std::ofstream out(path("explicit.csv"));
  out << "x,y\n0,1\n";
  out.close();
  const NamedDataset loaded =
      load_csv(path("explicit.csv"), DataLayout::kColumnMajor, {4, 4});
  EXPECT_EQ(loaded.data.cardinality(0), 4);
}

TEST_F(DatasetIoTest, RaggedRowsFail) {
  std::ofstream out(path("ragged.csv"));
  out << "x,y\n0,1\n0\n";
  out.close();
  EXPECT_THROW(load_csv(path("ragged.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, ValueBeyondDeclaredCardinalityFails) {
  std::ofstream out(path("overflow.csv"));
  out << "x\n7\n";
  out.close();
  EXPECT_THROW(load_csv(path("overflow.csv"), DataLayout::kColumnMajor, {2}),
               std::runtime_error);
}

TEST_F(DatasetIoTest, MissingFileFails) {
  EXPECT_THROW(load_csv(path("does_not_exist.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, WindowsLineEndingsHandled) {
  std::ofstream out(path("crlf.csv"), std::ios::binary);
  out << "x,y\r\n1,0\r\n";
  out.close();
  const NamedDataset loaded = load_csv(path("crlf.csv"));
  EXPECT_EQ(loaded.data.value(0, 0), 1);
  EXPECT_EQ(loaded.data.value(0, 1), 0);
}

TEST_F(DatasetIoTest, AutoLoaderDetectsIntegerFileAsDiscrete) {
  std::ofstream out(path("auto_discrete.csv"));
  out << "a,b\n0,2\n1,0\n1,1\n";
  out.close();
  const NamedData loaded = load_csv_auto(path("auto_discrete.csv"));
  ASSERT_TRUE(loaded.data.is_discrete());
  const DiscreteDataset& data = loaded.data.discrete();
  EXPECT_EQ(data.cardinality(0), 2);
  EXPECT_EQ(data.cardinality(1), 3);
  EXPECT_EQ(data.value(0, 1), 2);
  // Same file through the classic loader: identical dataset.
  const NamedDataset classic = load_csv(path("auto_discrete.csv"));
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      EXPECT_EQ(data.value(s, v), classic.data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, AutoLoaderSwitchesToContinuousOnFractionalCell) {
  std::ofstream out(path("auto_cont.csv"));
  // The first row is all byte-range integers; the 2.5 in row two flips
  // the whole file (earlier rows included) to continuous.
  out << "a,b\n1,3\n2.5,-1\n0,1e2\n";
  out.close();
  const NamedData loaded = load_csv_auto(path("auto_cont.csv"));
  ASSERT_TRUE(loaded.data.is_continuous());
  const ContinuousDataset& data = loaded.data.continuous();
  EXPECT_EQ(data.value(0, 0), 1.0);
  EXPECT_EQ(data.value(1, 0), 2.5);
  EXPECT_EQ(data.value(1, 1), -1.0);
  EXPECT_EQ(data.value(2, 1), 100.0);
}

TEST_F(DatasetIoTest, ContinuousRoundTripIsExact) {
  ContinuousDataset data(2, 3);
  data.set(0, 0, 1.0 / 3.0);
  data.set(1, 0, -2.718281828459045);
  data.set(2, 0, 1e-17);
  data.set(0, 1, 0.0);
  data.set(1, 1, 1234567.89);
  data.set(2, 1, -0.1);
  const std::vector<std::string> names = {"u", "v"};
  ASSERT_TRUE(save_csv(data, names, path("cont_roundtrip.csv")));
  const NamedData loaded = load_csv_auto(path("cont_roundtrip.csv"));
  EXPECT_EQ(loaded.names, names);
  ASSERT_TRUE(loaded.data.is_continuous());
  for (Count s = 0; s < 3; ++s) {
    for (VarId v = 0; v < 2; ++v) {
      // %.17g round-trips doubles bit-exactly.
      EXPECT_EQ(loaded.data.continuous().value(s, v), data.value(s, v));
    }
  }
}

TEST_F(DatasetIoTest, AutoLoaderNamesTheOffendingCell) {
  std::ofstream out(path("auto_bad.csv"));
  out << "a,b\n1,2\n1,oops\n";
  out.close();
  try {
    (void)load_csv_auto(path("auto_bad.csv"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("oops"), std::string::npos) << message;
    EXPECT_NE(message.find("row 2"), std::string::npos) << message;
    EXPECT_NE(message.find("column b"), std::string::npos) << message;
  }
}

TEST_F(DatasetIoTest, IntegerLoaderRejectsNonIntegerCellsByName) {
  // A fractional cell must not truncate ("3.9" is not 3) and a word must
  // not escape as a bare std::invalid_argument from the integer parse:
  // both are runtime_errors naming the cell, row, column and file.
  struct Case {
    const char* file;
    const char* body;
    const char* cell;
    const char* row;
    const char* column;
  };
  for (const Case& c : {Case{"fraction.csv", "a,b\n1,3.9\n", "\"3.9\"",
                             "row 1", "column b"},
                        Case{"word.csv", "a,b\n0,1\nx,1\n", "\"x\"",
                             "row 2", "column a"},
                        Case{"big.csv", "a,b\n300,1\n", "\"300\"", "row 1",
                             "column a"}}) {
    std::ofstream out(path(c.file));
    out << c.body;
    out.close();
    try {
      (void)load_csv(path(c.file));
      FAIL() << "expected std::runtime_error for " << c.file;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(c.cell), std::string::npos) << message;
      EXPECT_NE(message.find(c.row), std::string::npos) << message;
      EXPECT_NE(message.find(c.column), std::string::npos) << message;
      EXPECT_NE(message.find(path(c.file)), std::string::npos) << message;
    }
  }
}

TEST_F(DatasetIoTest, AutoLoaderRejectsNonFiniteCells) {
  // "nan" and "inf" parse as doubles but would feed NaN into the Fisher-z
  // covariance; they fail like any other non-numeric cell.
  for (const char* cell : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    std::ofstream out(path("non_finite.csv"));
    out << "a,b\n0.5,1.25\n" << cell << ",2.5\n";
    out.close();
    try {
      (void)load_csv_auto(path("non_finite.csv"));
      FAIL() << "expected std::runtime_error for " << cell;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(std::string("\"") + cell + "\""),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("row 2"), std::string::npos) << message;
      EXPECT_NE(message.find("column a"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace fastbns
