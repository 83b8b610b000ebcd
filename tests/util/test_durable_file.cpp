// publishFileDurably: the tmp+rename writer behind store records and work
// manifests. What a reader can see is either nothing or the whole text, a
// leftover tmp file of the same name is overwritten, a declined publish
// leaves nothing behind, and failures name the caller and the step.
#include "util/durable_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ides {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ides_durable_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DurableFile, PublishesOverALeftoverTmpAndAnOldFile) {
  const std::string dir = freshDir("publish");
  const std::string finalPath = dir + "/record.json";
  const std::string tmpPath = finalPath + ".tmp.1";
  // A crashed writer's longer tmp file of the same name, and an older file
  // at the final path: the text replaces both, byte for byte.
  std::ofstream(tmpPath) << std::string(4096, 'x');
  std::ofstream(finalPath) << "old";
  EXPECT_TRUE(publishFileDurably(tmpPath, finalPath, "{\"v\": 1}\n", "T"));
  EXPECT_EQ(slurp(finalPath), "{\"v\": 1}\n");
  EXPECT_FALSE(fs::exists(tmpPath));
  const std::string big(1 << 20, 'b');  // more than one write(2) may take
  EXPECT_TRUE(publishFileDurably(tmpPath, finalPath, big, "T"));
  EXPECT_EQ(slurp(finalPath), big);
}

TEST(DurableFile, DeclinedPublishLeavesNothing) {
  const std::string dir = freshDir("declined");
  const std::string finalPath = dir + "/record.json";
  const std::string tmpPath = finalPath + ".tmp.1";
  bool asked = false;
  EXPECT_FALSE(publishFileDurably(tmpPath, finalPath, "text", "T", [&] {
    asked = true;
    EXPECT_TRUE(fs::exists(tmpPath));  // written before the question
    return false;
  }));
  EXPECT_TRUE(asked);
  EXPECT_FALSE(fs::exists(tmpPath));
  EXPECT_FALSE(fs::exists(finalPath));
}

TEST(DurableFile, FailuresNameTheCallerAndTheStep) {
  const std::string dir = freshDir("fail");
  const auto message = [](const std::string& tmp, const std::string& final) {
    try {
      publishFileDurably(tmp, final, "text", "SweepStore");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string missing = dir + "/no/such/dir";
  EXPECT_EQ(message(missing + "/a.tmp", dir + "/a.json")
                .rfind("SweepStore: cannot write " + missing + "/a.tmp", 0),
            0u);
  // The tmp file is written, the rename target's directory is missing:
  // the tmp file goes, nothing is published.
  const std::string tmp = dir + "/b.json.tmp.1";
  EXPECT_EQ(message(tmp, missing + "/b.json")
                .rfind("SweepStore: cannot publish " + missing + "/b.json", 0),
            0u);
  EXPECT_FALSE(fs::exists(tmp));
}

}  // namespace
}  // namespace ides
