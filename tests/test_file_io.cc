/**
 * @file
 * The shared file primitives (util/file_io): the atomic whole-file
 * replace leaves either the old or the new file and never a
 * temporary, reads are short only at end of file, and every failure
 * is a std::system_error carrying the errno.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/file_io.hh"

namespace {

namespace fs = std::filesystem;
using namespace ppm;
using Bytes = std::vector<std::uint8_t>;

class FileIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("ppm_file_io_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** Names in the test directory (temporaries included). */
    std::vector<std::string>
    entries() const
    {
        std::vector<std::string> names;
        for (const auto &e : fs::directory_iterator(dir_))
            names.push_back(e.path().filename().string());
        return names;
    }

    fs::path dir_;
};

Bytes
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
}

TEST_F(FileIoTest, ReplaceFileWritesAndReplacesWithoutTemporaries)
{
    const fs::path path = dir_ / "state.bin";
    util::replaceFile(path.string(), {1, 2, 3});
    EXPECT_EQ(slurp(path), (Bytes{1, 2, 3}));
    util::replaceFile(path.string(), {9});
    EXPECT_EQ(slurp(path), (Bytes{9}));
    EXPECT_EQ(entries(), (std::vector<std::string>{"state.bin"}));

    const mode_t mask = ::umask(0);
    ::umask(mask);
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777u, 0644u & ~mask);
}

TEST_F(FileIoTest, ReplaceFileFailureKeepsTheOldFileAndNoTemporary)
{
    const fs::path path = dir_ / "model.ppmm";
    util::replaceFile(path.string(), {4, 5});
    // A directory in the way makes the final rename fail.
    const fs::path blocked = dir_ / "blocked";
    fs::create_directories(blocked / "child");
    try {
        util::replaceFile(blocked.string(), {6});
        ADD_FAILURE() << "rename over a non-empty directory succeeded";
    } catch (const std::system_error &e) {
        EXPECT_NE(e.code().value(), 0);
        EXPECT_NE(std::string(e.what()).find(blocked.string()),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(slurp(path), (Bytes{4, 5}));
    std::vector<std::string> names = entries();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names,
              (std::vector<std::string>{"blocked", "model.ppmm"}));

    EXPECT_THROW(util::replaceFile((dir_ / "no/such/dir/f").string(),
                                   {1}),
                 std::system_error);
}

TEST_F(FileIoTest, ReadAtIsShortOnlyAtEndOfFile)
{
    const fs::path path = dir_ / "a.ppma";
    util::replaceFile(path.string(), {10, 11, 12, 13, 14});
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(util::fileSize(fd, path.string()), 5u);
    EXPECT_EQ(util::readAt(fd, path.string(), 1, 3),
              (Bytes{11, 12, 13}));
    EXPECT_EQ(util::readAt(fd, path.string(), 3, 100), (Bytes{13, 14}));
    EXPECT_TRUE(util::readAt(fd, path.string(), 9, 4).empty());
    ::close(fd);
}

TEST_F(FileIoTest, ReadFileChecksTheSizeCapBeforeReading)
{
    const fs::path path = dir_ / "big.bin";
    util::replaceFile(path.string(), Bytes(64, 7));
    EXPECT_EQ(util::readFile(path.string(), 64), Bytes(64, 7));
    try {
        (void)util::readFile(path.string(), 63);
        ADD_FAILURE() << "oversized file was read";
    } catch (const std::system_error &e) {
        EXPECT_EQ(e.code(), std::errc::file_too_large);
    }
    try {
        (void)util::readFile((dir_ / "absent").string());
        ADD_FAILURE() << "absent file was read";
    } catch (const std::system_error &e) {
        EXPECT_EQ(e.code(), std::errc::no_such_file_or_directory);
    }
}

} // namespace
