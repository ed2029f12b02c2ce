// Versioned checkpoint container (src/io/checkpoint.h) and model-level
// save/load (OpenImaModel::SaveCheckpoint / LoadCheckpoint): byte-level
// round trips, the full corruption matrix (every broken file must surface a
// descriptive Status, never a crash), and stop-save-resume bit-identity
// against an uninterrupted run for the serial, sampled, and data-parallel
// trainers. The telemetry-byte-equality half of the resume contract runs as
// the checkpoint_resume_* fixtures in examples/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/openima.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/io/checkpoint.h"

namespace openima {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- container level ------------------------------------------------------

TEST(ByteCodecTest, ScalarsRoundTrip) {
  io::ByteSink sink;
  sink.PutU8(0xab);
  sink.PutU32(0xdeadbeefu);
  sink.PutU64(0x0123456789abcdefULL);
  sink.PutI32(-7);
  sink.PutI64(-1234567890123LL);
  sink.PutF32(3.25f);
  sink.PutF64(-2.718281828459045);
  sink.PutString("hello checkpoint");

  io::ByteSource src(sink.bytes().data(), sink.bytes().size(), "test");
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
  std::string s;
  ASSERT_TRUE(src.ReadU8(&u8).ok());
  ASSERT_TRUE(src.ReadU32(&u32).ok());
  ASSERT_TRUE(src.ReadU64(&u64).ok());
  ASSERT_TRUE(src.ReadI32(&i32).ok());
  ASSERT_TRUE(src.ReadI64(&i64).ok());
  ASSERT_TRUE(src.ReadF32(&f32).ok());
  ASSERT_TRUE(src.ReadF64(&f64).ok());
  ASSERT_TRUE(src.ReadString(&s).ok());
  EXPECT_TRUE(src.ExpectEnd().ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(f32, 3.25f);
  EXPECT_EQ(f64, -2.718281828459045);
  EXPECT_EQ(s, "hello checkpoint");
}

TEST(ByteCodecTest, LittleEndianByConstruction) {
  io::ByteSink sink;
  sink.PutU32(0x01020304u);
  const std::string& b = sink.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(b[1]), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(b[2]), 0x02);
  EXPECT_EQ(static_cast<uint8_t>(b[3]), 0x01);
}

TEST(ByteCodecTest, MatrixAndVectorRoundTripBitIdentical) {
  la::Matrix m(3, 4);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.37f - 1.0f;
  }
  io::ByteSink sink;
  io::WriteMatrix(&sink, m);
  io::WriteI32Vector(&sink, {5, -1, 0, 1 << 30});

  io::ByteSource src(sink.bytes().data(), sink.bytes().size(), "test");
  la::Matrix back;
  std::vector<int> v;
  ASSERT_TRUE(io::ReadMatrix(&src, &back).ok());
  ASSERT_TRUE(io::ReadI32Vector(&src, &v).ok());
  EXPECT_TRUE(src.ExpectEnd().ok());
  ASSERT_EQ(back.rows(), 3);
  ASSERT_EQ(back.cols(), 4);
  EXPECT_EQ(std::memcmp(back.data(), m.data(), sizeof(float) * m.size()), 0);
  EXPECT_EQ(v, (std::vector<int>{5, -1, 0, 1 << 30}));
}

TEST(ByteCodecTest, TruncatedReadReturnsStatus) {
  io::ByteSink sink;
  sink.PutU32(7);
  io::ByteSource src(sink.bytes().data(), 2, "short-section");
  uint32_t out;
  Status s = src.ReadU32(&out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("short-section"), std::string::npos);
}

TEST(ByteCodecTest, TrailingBytesAreCorruption) {
  io::ByteSink sink;
  sink.PutU32(7);
  sink.PutU32(9);
  io::ByteSource src(sink.bytes().data(), sink.bytes().size(), "sec");
  uint32_t out;
  ASSERT_TRUE(src.ReadU32(&out).ok());
  Status s = src.ExpectEnd();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("section-length mismatch"), std::string::npos);
}

TEST(ByteCodecTest, DtypeMismatchIsDescriptive) {
  io::ByteSink sink;
  io::WriteI32Vector(&sink, {1, 2, 3});
  io::ByteSource src(sink.bytes().data(), sink.bytes().size(), "sec");
  la::Matrix m;
  Status s = io::ReadMatrix(&src, &m);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dtype mismatch"), std::string::npos);
}

std::string WriteTwoSectionFile(const char* name) {
  io::ByteSink a;
  a.PutU64(42);
  a.PutString("alpha payload");
  io::ByteSink b;
  la::Matrix m(2, 2, 1.5f);
  io::WriteMatrix(&b, m);
  io::CheckpointWriter writer;
  EXPECT_TRUE(writer.AddSection("alpha", a).ok());
  EXPECT_TRUE(writer.AddSection("beta", b).ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE(writer.Finish(path).ok());
  return path;
}

TEST(CheckpointContainerTest, RoundTrip) {
  const std::string path = WriteTwoSectionFile("container_roundtrip.ckpt");
  auto reader = io::CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->HasSection("alpha"));
  EXPECT_TRUE(reader->HasSection("beta"));
  EXPECT_FALSE(reader->HasSection("gamma"));
  EXPECT_EQ(reader->SectionNames(),
            (std::vector<std::string>{"alpha", "beta"}));

  auto src = reader->Section("alpha");
  ASSERT_TRUE(src.ok());
  uint64_t u;
  std::string s;
  ASSERT_TRUE(src->ReadU64(&u).ok());
  ASSERT_TRUE(src->ReadString(&s).ok());
  EXPECT_TRUE(src->ExpectEnd().ok());
  EXPECT_EQ(u, 42u);
  EXPECT_EQ(s, "alpha payload");

  auto bsrc = reader->Section("beta");
  ASSERT_TRUE(bsrc.ok());
  la::Matrix m;
  ASSERT_TRUE(io::ReadMatrix(&*bsrc, &m).ok());
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m(1, 1), 1.5f);
}

TEST(CheckpointContainerTest, DuplicateAndBadSectionNamesRejected) {
  io::CheckpointWriter writer;
  io::ByteSink payload;
  payload.PutU8(1);
  ASSERT_TRUE(writer.AddSection("meta", payload).ok());
  EXPECT_FALSE(writer.AddSection("meta", payload).ok());
  EXPECT_FALSE(writer.AddSection("", payload).ok());
  EXPECT_FALSE(writer.AddSection(std::string(65, 'x'), payload).ok());
}

TEST(CheckpointContainerTest, MissingFileFails) {
  auto reader = io::CheckpointReader::Open("/nonexistent/nope.ckpt");
  EXPECT_FALSE(reader.ok());
}

TEST(CheckpointContainerTest, RejectsWrongMagic) {
  const std::string path = WriteTwoSectionFile("bad_magic.ckpt");
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto reader = io::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsWrongVersion) {
  const std::string path = WriteTwoSectionFile("bad_version.ckpt");
  std::string bytes = ReadFileBytes(path);
  bytes[8] = static_cast<char>(99);  // u32 version little-endian low byte
  WriteFileBytes(path, bytes);
  auto reader = io::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsEveryTruncationLength) {
  const std::string path = WriteTwoSectionFile("trunc_base.ckpt");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 24u);
  // Cut in the header, in the section table, and inside each payload: every
  // prefix must load as an error, never crash or succeed.
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    const std::string trunc_path = TempPath("truncated.ckpt");
    WriteFileBytes(trunc_path, bytes.substr(0, cut));
    auto reader = io::CheckpointReader::Open(trunc_path);
    EXPECT_FALSE(reader.ok()) << "truncation at " << cut << " bytes loaded";
  }
}

TEST(CheckpointContainerTest, RejectsPayloadByteFlip) {
  const std::string path = WriteTwoSectionFile("flip_base.ckpt");
  std::string bytes = ReadFileBytes(path);
  // Flip the last byte (inside the final section's payload).
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  WriteFileBytes(path, bytes);
  auto reader = io::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("checksum"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsSectionEscapingFile) {
  const std::string path = WriteTwoSectionFile("escape_base.ckpt");
  std::string bytes = ReadFileBytes(path);
  // The first table entry starts at offset 24: u32 name_len, name, then
  // u64 offset / u64 length / u64 checksum. Corrupt the length field.
  const size_t len_pos = 24 + 4 + 5 /* "alpha" */ + 8;
  bytes[len_pos + 3] = static_cast<char>(0x7f);  // blow up the u64 length
  WriteFileBytes(path, bytes);
  auto reader = io::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("escapes"), std::string::npos)
      << reader.status().ToString();
}

// ---- model level ----------------------------------------------------------

struct Fixture {
  graph::Dataset dataset;
  graph::OpenWorldSplit split;
};

Fixture SmallProblem() {
  graph::SbmConfig c;
  c.num_nodes = 120;
  c.num_classes = 4;
  c.feature_dim = 8;
  c.avg_degree = 8.0;
  c.homophily = 0.8;
  auto ds = graph::GenerateSbm(c, /*seed=*/5, "checkpoint_test");
  EXPECT_TRUE(ds.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 8;
  so.val_per_class = 4;
  auto split = graph::MakeOpenWorldSplit(*ds, so, /*seed=*/3);
  EXPECT_TRUE(split.ok());
  return Fixture{std::move(*ds), std::move(*split)};
}

core::OpenImaConfig SmallConfig(const Fixture& fx, int epochs) {
  core::OpenImaConfig config;
  config.encoder.in_dim = fx.dataset.feature_dim();
  config.encoder.hidden_dim = 8;
  config.encoder.embedding_dim = 8;
  config.encoder.num_heads = 2;
  config.num_seen = fx.split.num_seen;
  config.num_novel = fx.split.num_novel;
  config.epochs = epochs;
  config.pseudo_warmup_epochs = 2;
  return config;
}

void ExpectModelsBitIdentical(const core::OpenImaModel& a,
                              const core::OpenImaModel& b) {
  const auto& pa = a.model().parameters();
  const auto& pb = b.model().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t t = 0; t < pa.size(); ++t) {
    ASSERT_EQ(pa[t].rows(), pb[t].rows());
    ASSERT_EQ(pa[t].cols(), pb[t].cols());
    EXPECT_EQ(std::memcmp(pa[t].value().data(), pb[t].value().data(),
                          sizeof(float) * pa[t].value().size()),
              0)
        << "parameter " << t << " differs";
  }
}

// Stop at `stop`, save, load into a fresh model, train the rest — the
// result must be bit-identical (parameters AND predictions) to training
// without the interruption.
void CheckResumeBitIdentity(core::OpenImaConfig config, const char* ckpt_name,
                            int stop) {
  Fixture fx = SmallProblem();
  const int epochs = config.epochs;

  core::OpenImaModel uninterrupted(config, fx.dataset.feature_dim(),
                                   /*seed=*/11);
  ASSERT_TRUE(uninterrupted.Train(fx.dataset, fx.split).ok());

  const std::string path = TempPath(ckpt_name);
  {
    core::OpenImaConfig partial = config;
    partial.stop_after_epochs = stop;
    core::OpenImaModel first_half(partial, fx.dataset.feature_dim(),
                                  /*seed=*/11);
    ASSERT_TRUE(first_half.Train(fx.dataset, fx.split).ok());
    EXPECT_EQ(first_half.epochs_done(), stop);
    ASSERT_TRUE(first_half.SaveCheckpoint(path).ok());
  }

  core::OpenImaModel resumed(config, fx.dataset.feature_dim(), /*seed=*/11);
  Status loaded = resumed.LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(resumed.epochs_done(), stop);
  ASSERT_TRUE(resumed.Train(fx.dataset, fx.split).ok());
  EXPECT_EQ(resumed.epochs_done(), epochs);

  ExpectModelsBitIdentical(uninterrupted, resumed);
  auto preds_a = uninterrupted.Predict(fx.dataset, fx.split);
  auto preds_b = resumed.Predict(fx.dataset, fx.split);
  ASSERT_TRUE(preds_a.ok());
  ASSERT_TRUE(preds_b.ok());
  EXPECT_EQ(*preds_a, *preds_b);
}

TEST(ModelCheckpointTest, SaveLoadRestoresParametersBitIdentically) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 4);
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath("model_roundtrip.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());

  core::OpenImaModel loaded(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(loaded.LoadCheckpoint(path).ok());
  EXPECT_EQ(loaded.epochs_done(), 4);
  ExpectModelsBitIdentical(model, loaded);
}

TEST(ModelCheckpointTest, ResumeMatchesUninterruptedSerial) {
  Fixture fx = SmallProblem();
  CheckResumeBitIdentity(SmallConfig(fx, 6), "resume_serial.ckpt",
                         /*stop=*/3);
}

TEST(ModelCheckpointTest, ResumeMatchesUninterruptedSampled) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 6);
  config.sampled_training = true;
  config.batch_nodes = 48;
  CheckResumeBitIdentity(config, "resume_sampled.ckpt", /*stop=*/3);
}

TEST(ModelCheckpointTest, ResumeMatchesUninterruptedWorkers2) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 6);
  config.sampled_training = true;
  config.batch_nodes = 48;
  config.workers = 2;
  CheckResumeBitIdentity(config, "resume_w2.ckpt", /*stop=*/3);
}

TEST(ModelCheckpointTest, ResumeMatchesUninterruptedWorkers4) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 6);
  config.sampled_training = true;
  config.batch_nodes = 32;
  config.workers = 4;
  CheckResumeBitIdentity(config, "resume_w4.ckpt", /*stop=*/5);
}

TEST(ModelCheckpointTest, LoadRejectsGeometryMismatch) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 3);
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath("geometry.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());

  core::OpenImaConfig wider = config;
  wider.encoder.hidden_dim = 16;
  core::OpenImaModel wrong_geometry(wider, fx.dataset.feature_dim(),
                                    /*seed=*/11);
  Status s = wrong_geometry.LoadCheckpoint(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("hidden_dim"), std::string::npos);

  core::OpenImaModel wrong_seed(config, fx.dataset.feature_dim(),
                                /*seed=*/12);
  s = wrong_seed.LoadCheckpoint(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("seed"), std::string::npos);

  core::OpenImaConfig dp = config;
  dp.workers = 2;
  dp.sampled_training = true;
  core::OpenImaModel wrong_workers(dp, fx.dataset.feature_dim(), /*seed=*/11);
  s = wrong_workers.LoadCheckpoint(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("workers"), std::string::npos);
}

/// Only W >= 2 pipelines the pseudo-label refresh, so only its checkpoints
/// carry a `dp` section. A `dp` section under `workers` <= 1 (here a W=2
/// checkpoint whose meta says W=1) would never be installed: the load
/// refuses it instead of resuming on the synchronous schedule.
TEST(ModelCheckpointTest, LoadRejectsRefreshPipelineWithoutReplicas) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 3);
  config.sampled_training = true;
  config.batch_nodes = 48;
  config.workers = 2;
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string trained = TempPath("dp_w2.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(trained).ok());
  auto reader = io::CheckpointReader::Open(trained);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->HasSection("dp"));

  io::CheckpointWriter writer;
  for (const std::string& name : reader->SectionNames()) {
    auto src = reader->Section(name);
    ASSERT_TRUE(src.ok()) << src.status().ToString();
    io::ByteSink sink;
    if (name == "meta") {
      // u64 seed; u8 arch; i32 in_dim, hidden_dim, embedding_dim,
      // num_heads, num_seen, num_novel, workers, epochs_done.
      uint64_t seed = 0;
      uint8_t arch = 0;
      int32_t fields[8];
      ASSERT_TRUE(src->ReadU64(&seed).ok());
      ASSERT_TRUE(src->ReadU8(&arch).ok());
      for (int32_t& v : fields) ASSERT_TRUE(src->ReadI32(&v).ok());
      ASSERT_EQ(fields[6], 2);
      fields[6] = 1;
      sink.PutU64(seed);
      sink.PutU8(arch);
      for (int32_t v : fields) sink.PutI32(v);
    } else {
      std::string bytes(src->remaining(), '\0');
      ASSERT_TRUE(src->ReadBytes(bytes.data(), bytes.size()).ok());
      sink.PutBytes(bytes.data(), bytes.size());
    }
    ASSERT_TRUE(writer.AddSection(name, sink).ok());
  }
  const std::string path = TempPath("dp_as_w1.ckpt");
  ASSERT_TRUE(writer.Finish(path).ok());

  core::OpenImaConfig single = config;
  single.workers = 1;
  core::OpenImaModel w1(single, fx.dataset.feature_dim(), /*seed=*/11);
  const Status s = w1.LoadCheckpoint(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("\"dp\""), std::string::npos) << s.ToString();
  EXPECT_EQ(w1.epochs_done(), 0);
}

TEST(ModelCheckpointTest, LoadRequiresFreshModel) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 3);
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath("fresh_only.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  Status s = model.LoadCheckpoint(path);  // already trained
  EXPECT_FALSE(s.ok());
}

TEST(ModelCheckpointTest, CorruptModelCheckpointsNeverCrash) {
  Fixture fx = SmallProblem();
  core::OpenImaConfig config = SmallConfig(fx, 4);
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath("corrupt_model.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  const std::string bytes = ReadFileBytes(path);

  // Truncations across the whole file.
  const std::string bad_path = TempPath("corrupt_model_bad.ckpt");
  for (size_t cut : {size_t{0}, size_t{10}, size_t{23}, size_t{24},
                     bytes.size() / 3, bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(bad_path, bytes.substr(0, cut));
    core::OpenImaModel fresh(config, fx.dataset.feature_dim(), /*seed=*/11);
    Status s = fresh.LoadCheckpoint(bad_path);
    EXPECT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_FALSE(s.message().empty());
  }
  // Byte flips sprinkled over header, table, and payloads.
  for (size_t pos = 0; pos < bytes.size(); pos += bytes.size() / 17 + 1) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5a);
    WriteFileBytes(bad_path, flipped);
    core::OpenImaModel fresh(config, fx.dataset.feature_dim(), /*seed=*/11);
    Status s = fresh.LoadCheckpoint(bad_path);
    EXPECT_FALSE(s.ok()) << "flip at " << pos;
  }
}

}  // namespace
}  // namespace openima
