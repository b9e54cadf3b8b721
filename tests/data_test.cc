// Unit tests for src/data: synthetic model generation (the knobs that
// drive solver regimes), the 23 dataset presets, matrix I/O round trips,
// and the SGD MF trainer.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>

#include "catalog/segment.h"
#include "data/datasets.h"
#include "data/io.h"
#include "data/mf_trainer.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "test_util.h"

namespace mips {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------ Synthetic

TEST(SyntheticTest, ShapesAndDeterminism) {
  SyntheticModelConfig config;
  config.num_users = 100;
  config.num_items = 50;
  config.num_factors = 8;
  config.seed = 42;
  auto a = GenerateSyntheticModel(config);
  auto b = GenerateSyntheticModel(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_users(), 100);
  EXPECT_EQ(a->num_items(), 50);
  EXPECT_EQ(a->num_factors(), 8);
  EXPECT_TRUE(a->users == b->users);
  EXPECT_TRUE(a->items == b->items);
  config.seed = 43;
  auto c = GenerateSyntheticModel(config);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->users == c->users);
}

TEST(SyntheticTest, RejectsBadDimensions) {
  SyntheticModelConfig config;
  config.num_users = 0;
  EXPECT_FALSE(GenerateSyntheticModel(config).ok());
  config.num_users = 10;
  config.num_factors = -1;
  EXPECT_FALSE(GenerateSyntheticModel(config).ok());
  config.num_factors = 4;
  config.user_modes = 0;
  EXPECT_FALSE(GenerateSyntheticModel(config).ok());
}

TEST(SyntheticTest, NonNegativeOption) {
  SyntheticModelConfig config;
  config.num_users = 50;
  config.num_items = 50;
  config.num_factors = 6;
  config.non_negative = true;
  auto model = GenerateSyntheticModel(config);
  ASSERT_TRUE(model.ok());
  for (std::size_t i = 0; i < model->users.size(); ++i) {
    EXPECT_GE(model->users.data()[i], 0.0);
  }
  for (std::size_t i = 0; i < model->items.size(); ++i) {
    EXPECT_GE(model->items.data()[i], 0.0);
  }
}

TEST(SyntheticTest, NormSigmaControlsItemNormSpread) {
  SyntheticModelConfig flat;
  flat.num_users = 10;
  flat.num_items = 3000;
  flat.num_factors = 16;
  flat.item_norm_sigma = 0.0;
  SyntheticModelConfig skewed = flat;
  skewed.item_norm_sigma = 1.0;

  auto flat_model = GenerateSyntheticModel(flat);
  auto skewed_model = GenerateSyntheticModel(skewed);
  ASSERT_TRUE(flat_model.ok());
  ASSERT_TRUE(skewed_model.ok());
  const auto flat_stats =
      ComputeVectorSetStats(ConstRowBlock(flat_model->items));
  const auto skewed_stats =
      ComputeVectorSetStats(ConstRowBlock(skewed_model->items));
  EXPECT_NEAR(flat_stats.norm_cv, 0.0, 1e-9);  // sigma=0: all norms equal
  EXPECT_GT(skewed_stats.norm_cv, 0.5);
  EXPECT_GT(skewed_stats.max_norm / skewed_stats.min_norm, 10.0);
}

TEST(SyntheticTest, DispersionControlsUserClustering) {
  // With zero dispersion, every user is exactly on one of the mode
  // directions -> at most user_modes distinct directions.
  SyntheticModelConfig config;
  config.num_users = 500;
  config.num_items = 10;
  config.num_factors = 12;
  config.user_modes = 4;
  config.user_dispersion = 0.0;
  auto model = GenerateSyntheticModel(config);
  ASSERT_TRUE(model.ok());
  std::unordered_set<unsigned long long> directions;
  for (Index u = 0; u < 500; ++u) {
    const Real* row = model->users.Row(u);
    const Real norm = Nrm2(row, 12);
    ASSERT_GT(norm, 0.0);
    // Hash the rounded unit direction.  Unsigned accumulation: the
    // polynomial hash overflows by design, and unsigned wraparound is
    // defined where the old signed form was UB (caught by UBSan).
    unsigned long long h = 0;
    for (Index d = 0; d < 12; ++d) {
      h = h * 1000003ull +
          static_cast<unsigned long long>(llround(row[d] / norm * 1e6));
    }
    directions.insert(h);
  }
  EXPECT_LE(directions.size(), 4u);
}

TEST(SyntheticTest, StatsOnEmptyBlock) {
  Matrix empty;
  const auto stats = ComputeVectorSetStats(ConstRowBlock(empty));
  EXPECT_EQ(stats.mean_norm, 0.0);
  EXPECT_EQ(stats.norm_cv, 0.0);
}

// -------------------------------------------------------------- Presets

TEST(DatasetsTest, TableOneNumbers) {
  const auto& infos = AllDatasetInfos();
  ASSERT_EQ(infos.size(), 4u);
  EXPECT_EQ(infos[0].num_users, 480189);
  EXPECT_EQ(infos[0].num_items, 17770);
  EXPECT_EQ(infos[0].num_ratings, 100480507);
  EXPECT_EQ(infos[1].num_users, 1000990);
  EXPECT_EQ(infos[1].num_items, 624961);
  EXPECT_EQ(infos[2].num_users, 1823179);
  EXPECT_EQ(infos[2].num_ratings, 699640226);
  EXPECT_EQ(infos[3].num_items, 1093514);
  EXPECT_EQ(infos[3].num_ratings, 0);  // GloVe has no ratings
}

TEST(DatasetsTest, TwentyThreePresets) {
  const auto& presets = AllModelPresets();
  EXPECT_EQ(presets.size(), 23u);
  std::unordered_set<std::string> ids;
  for (const auto& p : presets) {
    EXPECT_TRUE(ids.insert(p.id).second) << "duplicate id " << p.id;
    EXPECT_GT(p.factors, 0);
    EXPECT_GT(p.full_users, 0);
    EXPECT_GT(p.full_items, 0);
    EXPECT_GT(p.default_scale, 0.0);
    EXPECT_EQ(p.generator.num_factors, p.factors);
  }
}

TEST(DatasetsTest, FindPreset) {
  auto p = FindModelPreset("netflix-nomad-50");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->dataset, "Netflix");
  EXPECT_EQ(p->factors, 50);
  EXPECT_EQ(p->full_users, 480189);
  EXPECT_FALSE(FindModelPreset("nope-17").ok());
}

TEST(DatasetsTest, KddRefExists) {
  auto p = FindModelPreset("kdd-ref-51");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->factors, 51);
}

TEST(DatasetsTest, ScaledDimsLinearWithFloors) {
  auto p = FindModelPreset("netflix-nomad-50");
  ASSERT_TRUE(p.ok());
  const ScaledDims d1 = ComputeScaledDims(*p, 1.0);
  EXPECT_EQ(d1.users, static_cast<Index>(std::llround(480189 * 0.02)));
  EXPECT_GE(d1.items, 800);  // 17770 * 0.02 = 355 hits the floor
  const ScaledDims d2 = ComputeScaledDims(*p, 2.0);
  EXPECT_GT(d2.users, d1.users);
  // Full scale: multiplier 1/default_scale reproduces paper dimensions.
  const ScaledDims full = ComputeScaledDims(*p, 1.0 / p->default_scale);
  EXPECT_EQ(full.users, 480189);
  EXPECT_EQ(full.items, 17770);
  // Scale cannot exceed the full dimensions.
  const ScaledDims capped = ComputeScaledDims(*p, 1e9);
  EXPECT_EQ(capped.users, 480189);
}

TEST(DatasetsTest, MakeModelProducesScaledModel) {
  auto p = FindModelPreset("r2-nomad-10");
  ASSERT_TRUE(p.ok());
  auto model = MakeModel(*p, 0.05);  // tiny instance for the test
  ASSERT_TRUE(model.ok());
  const ScaledDims dims = ComputeScaledDims(*p, 0.05);
  EXPECT_EQ(model->num_users(), dims.users);
  EXPECT_EQ(model->num_items(), dims.items);
  EXPECT_EQ(model->num_factors(), 10);
  EXPECT_FALSE(MakeModel(*p, 0.0).ok());
}

TEST(DatasetsTest, RegimeCalibration) {
  // Netflix presets must have much flatter item norms than R2 presets —
  // that is the property the whole Figure 2/5 reproduction rests on.
  auto netflix = FindModelPreset("netflix-nomad-50");
  auto r2 = FindModelPreset("r2-nomad-50");
  ASSERT_TRUE(netflix.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(netflix->generator.item_norm_sigma + 0.3,
            r2->generator.item_norm_sigma);
  EXPECT_LT(r2->generator.user_dispersion,
            netflix->generator.user_dispersion);
}

// ------------------------------------------------------------------ I/O

TEST(IoTest, BinaryRoundTrip) {
  const Matrix m = testing::RandomMatrix(17, 9, 55);
  const std::string path = TempPath("m.bin");
  ASSERT_TRUE(SaveMatrixBinary(m, path).ok());
  auto loaded = LoadMatrixBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == m);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsBadMagic) {
  const std::string path = TempPath("bad.bin");
  FILE* f = fopen(path.c_str(), "w");
  fputs("NOTAMATRIX", f);
  fclose(f);
  EXPECT_FALSE(LoadMatrixBinary(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryMissingFile) {
  EXPECT_EQ(LoadMatrixBinary("/nonexistent/file.bin").status().code(),
            StatusCode::kIOError);
}

TEST(IoTest, CsvRoundTrip) {
  const Matrix m = testing::RandomMatrix(5, 3, 66);
  const std::string path = TempPath("m.csv");
  ASSERT_TRUE(SaveMatrixCsv(m, path).ok());
  auto loaded = LoadMatrixCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 5);
  ASSERT_EQ(loaded->cols(), 3);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->data()[i], m.data()[i]);  // %.17g round-trips
  }
  std::remove(path.c_str());
}

TEST(IoTest, CsvRejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  FILE* f = fopen(path.c_str(), "w");
  fputs("1,2,3\n4,5\n", f);
  fclose(f);
  EXPECT_FALSE(LoadMatrixCsv(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, CsvRejectsGarbage) {
  const std::string path = TempPath("garbage.csv");
  FILE* f = fopen(path.c_str(), "w");
  fputs("1,two,3\n", f);
  fclose(f);
  EXPECT_FALSE(LoadMatrixCsv(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, CsvEmptyFileGivesEmptyMatrix) {
  const std::string path = TempPath("empty.csv");
  FILE* f = fopen(path.c_str(), "w");
  fclose(f);
  auto loaded = LoadMatrixCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

// Writes `bytes` to a temporary file and returns its path.
std::string WriteFile(const std::string& name, const std::string& bytes) {
  const std::string path = TempPath(name);
  FILE* f = fopen(path.c_str(), "wb");
  fwrite(bytes.data(), 1, bytes.size(), f);
  fclose(f);
  return path;
}

// A MIPSMAT1 header claiming rows x cols.
std::string BinaryHeader(int64_t rows, int64_t cols) {
  std::string bytes = "MIPSMAT1";
  bytes.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  bytes.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  return bytes;
}

TEST(IoTest, CsvRejectsTrailingCharacters) {
  const std::string path = WriteFile("trailing.csv", "1,2\n3,1.5abc\n");
  const auto loaded = LoadMatrixCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("row 1, column 1"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, CsvRejectsNonFiniteValues) {
  for (const char* cell : {"nan", "inf", "-inf", "NaN", "1e999"}) {
    const std::string path =
        WriteFile("nonfinite.csv", std::string("1,2,3\n4,") + cell + ",6\n");
    const auto loaded = LoadMatrixCsv(path);
    ASSERT_FALSE(loaded.ok()) << cell;
    EXPECT_NE(loaded.status().message().find("row 1, column 1"),
              std::string::npos)
        << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(IoTest, CsvAcceptsSurroundingWhitespace) {
  const std::string path = WriteFile("spaced.csv", " 1, 2.5 \r\n3,4\n");
  const auto loaded = LoadMatrixCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)(0, 1), 2.5);
  EXPECT_EQ((*loaded)(1, 0), 3.0);
  std::remove(path.c_str());
}

TEST(IoTest, CsvRoundTripsSubnormals) {
  // SaveMatrixCsv writes the smallest subnormal as 4.9406564584124654e-324;
  // it is finite, so it loads back even though strtod reports underflow.
  Matrix m(1, 2);
  m(0, 0) = std::numeric_limits<Real>::denorm_min();
  m(0, 1) = -1e-310;
  const std::string path = TempPath("subnormal.csv");
  ASSERT_TRUE(SaveMatrixCsv(m, path).ok());
  const auto loaded = LoadMatrixCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == m);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsHeaderLargerThanFile) {
  // 2^20 x 2^20 doubles would be 8 TiB: refused before any allocation.
  const std::string path =
      WriteFile("huge.bin", BinaryHeader(int64_t{1} << 20, int64_t{1} << 20));
  const auto loaded = LoadMatrixBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsTruncatedPayload) {
  std::string bytes = BinaryHeader(2, 3);
  bytes.append(5 * sizeof(Real), '\0');  // one double short
  const std::string path = WriteFile("short.bin", bytes);
  EXPECT_FALSE(LoadMatrixBinary(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsNonFiniteValues) {
  Matrix m = testing::RandomMatrix(3, 4, 77);
  m(2, 1) = std::numeric_limits<Real>::quiet_NaN();
  const std::string path = TempPath("nan.bin");
  ASSERT_TRUE(SaveMatrixBinary(m, path).ok());
  const auto loaded = LoadMatrixBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("row 2, column 1"),
            std::string::npos)
      << loaded.status().ToString();
  m(2, 1) = std::numeric_limits<Real>::infinity();
  ASSERT_TRUE(SaveMatrixBinary(m, path).ok());
  EXPECT_FALSE(LoadMatrixBinary(path).ok());
  std::remove(path.c_str());
}

// Loads `bytes` as a MIPSMAT1 file through a named pipe, which cannot be
// sized or seeked: a writer thread feeds the pipe while LoadMatrixBinary
// reads it.
StatusOr<Matrix> LoadBinaryThroughPipe(const std::string& name,
                                       const std::string& bytes) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  if (mkfifo(path.c_str(), 0600) != 0) {
    return Status::IOError("mkfifo failed: " + path);
  }
  // A reader that stops early must not end the process with SIGPIPE.
  const auto old_handler = std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&path, &bytes] {
    FILE* f = fopen(path.c_str(), "wb");  // waits for the reader to open
    if (f == nullptr) return;
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
  });
  StatusOr<Matrix> loaded = LoadMatrixBinary(path);
  writer.join();
  std::signal(SIGPIPE, old_handler);
  std::remove(path.c_str());
  return loaded;
}

TEST(IoTest, BinaryLoadsFromAPipe) {
  // 300 x 500 doubles (1.2 MB) arrive in two of the 1 MiB pieces.
  const Matrix m = testing::RandomMatrix(300, 500, 31);
  std::string bytes = BinaryHeader(m.rows(), m.cols());
  bytes.append(reinterpret_cast<const char*>(m.data()),
               m.size() * sizeof(Real));
  const auto loaded = LoadBinaryThroughPipe("pipe.bin", bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == m);
}

TEST(IoTest, BinaryPipeShorterThanItsHeaderIsAShortRead) {
  // The header claims 2^20 x 2^20 doubles (8 TiB); three arrive.
  std::string bytes = BinaryHeader(int64_t{1} << 20, int64_t{1} << 20);
  bytes.append(3 * sizeof(Real), '\0');
  const auto loaded = LoadBinaryThroughPipe("short_pipe.bin", bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(IoTest, SegmentDurabilityRoundTrip) {
  // The persistence path a restart takes: train/save a model matrix in
  // the classic binary format, persist the item catalog as a
  // CatalogSegment, and reopen both — the mmapped segment must hand back
  // byte-identical rows an engine can Open() over directly.
  const Matrix items = testing::RandomMatrix(23, 7, 91);
  const std::string matrix_path = TempPath("catalog.bin");
  const std::string segment_path = TempPath("catalog.seg");
  ASSERT_TRUE(SaveMatrixBinary(items, matrix_path).ok());
  ASSERT_TRUE(CatalogSegment::Write(ConstRowBlock(items), segment_path).ok());

  auto reloaded = LoadMatrixBinary(matrix_path);
  ASSERT_TRUE(reloaded.ok());
  auto segment = CatalogSegment::Open(segment_path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_EQ(segment->rows(), reloaded->rows());
  ASSERT_EQ(segment->cols(), reloaded->cols());
  EXPECT_EQ(std::memcmp(segment->items().Row(0), reloaded->data(),
                        sizeof(Real) * reloaded->size()),
            0);
  std::remove(matrix_path.c_str());
  std::remove(segment_path.c_str());
}

// ----------------------------------------------------------- MF trainer

TEST(MFTrainerTest, LearnsLowRankStructure) {
  const Index users = 80;
  const Index items = 60;
  const auto ratings =
      GenerateSyntheticRatings(users, items, 6000, /*true_rank=*/4,
                               /*noise=*/0.05, /*seed=*/77);
  MFTrainConfig config;
  config.num_factors = 6;
  config.epochs = 30;
  auto model = TrainMF(ratings, users, items, config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Real rmse = ComputeRMSE(*model, ratings);
  // Untrained RMSE is roughly the rating stddev (~1.6 for rank-4 N(0,0.8)
  // factors); training must cut it drastically.
  EXPECT_LT(rmse, 0.5);
}

TEST(MFTrainerTest, RmseDecreasesWithEpochs) {
  const auto ratings = GenerateSyntheticRatings(50, 40, 3000, 3, 0.05, 88);
  MFTrainConfig short_run;
  short_run.num_factors = 5;
  short_run.epochs = 1;
  MFTrainConfig long_run = short_run;
  long_run.epochs = 25;
  auto a = TrainMF(ratings, 50, 40, short_run);
  auto b = TrainMF(ratings, 50, 40, long_run);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(ComputeRMSE(*b, ratings), ComputeRMSE(*a, ratings));
}

TEST(MFTrainerTest, RejectsOutOfRangeRatings) {
  std::vector<Rating> ratings = {{5, 100, 1.0}};
  MFTrainConfig config;
  EXPECT_EQ(TrainMF(ratings, 10, 10, config).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MFTrainerTest, RejectsBadConfig) {
  std::vector<Rating> ratings;
  MFTrainConfig config;
  config.num_factors = 0;
  EXPECT_FALSE(TrainMF(ratings, 10, 10, config).ok());
  config.num_factors = 4;
  config.epochs = 0;
  EXPECT_FALSE(TrainMF(ratings, 10, 10, config).ok());
}

TEST(MFTrainerTest, SyntheticRatingsDeterministic) {
  const auto a = GenerateSyntheticRatings(20, 20, 100, 3, 0.1, 5);
  const auto b = GenerateSyntheticRatings(20, 20, 100, 3, 0.1, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(MFTrainerTest, EmptyRatingsRmseZero) {
  MFModel model;
  model.users = testing::RandomMatrix(3, 2, 1);
  model.items = testing::RandomMatrix(3, 2, 2);
  EXPECT_EQ(ComputeRMSE(model, {}), 0.0);
}

}  // namespace
}  // namespace mips
