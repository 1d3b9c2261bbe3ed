/**
 * @file
 * Span-name lint: every `OBS_SPAN("…")` literal in src/ and tools/
 * names one histogram. A name used at two sites mixes two durations
 * in one histogram, and a `span.` prefix doubles the one SpanSite
 * already adds (`span.span.x`). Comments are skipped: doc comments
 * quote example span sites.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct SpanSite
{
    std::string name;
    int line = 0;
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * The literal arguments of OBS_SPAN(...) calls in C++ source @p text,
 * outside comments, string literals and character literals.
 */
std::vector<SpanSite>
spanLiterals(const std::string &text)
{
    static const std::string kMacro = "OBS_SPAN";
    std::vector<SpanSite> sites;
    int line = 1;
    std::size_t i = 0;
    // Advance past a quoted literal starting at text[i], counting
    // lines; returns its unescaped-as-written body.
    const auto quoted = [&](char quote) {
        std::string body;
        for (++i; i < text.size() && text[i] != quote; ++i) {
            if (text[i] == '\\' && i + 1 < text.size())
                body += text[i++];
            if (text[i] == '\n')
                ++line;
            body += text[i];
        }
        ++i;
        return body;
    };
    while (i < text.size()) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (text.compare(i, 2, "//") == 0) {
            i = text.find('\n', i);
            if (i == std::string::npos)
                break;
        } else if (text.compare(i, 2, "/*") == 0) {
            const std::size_t end = text.find("*/", i + 2);
            const std::size_t stop =
                end == std::string::npos ? text.size() : end + 2;
            for (; i < stop; ++i)
                line += text[i] == '\n';
        } else if (c == '"' || c == '\'') {
            quoted(c);
        } else if (text.compare(i, kMacro.size(), kMacro) == 0 &&
                   (i == 0 || !identChar(text[i - 1])) &&
                   !identChar(text[i + kMacro.size()])) {
            const int at = line;
            i += kMacro.size();
            while (i < text.size() && std::isspace(static_cast<
                                          unsigned char>(text[i])))
                line += text[i++] == '\n';
            if (i < text.size() && text[i] == '(') {
                ++i;
                while (i < text.size() && std::isspace(static_cast<
                                              unsigned char>(text[i])))
                    line += text[i++] == '\n';
                if (i < text.size() && text[i] == '"')
                    sites.push_back({quoted('"'), at});
            }
        } else {
            ++i;
        }
    }
    return sites;
}

TEST(SpanNames, ScannerSkipsCommentsAndStrings)
{
    const std::string text =
        "// OBS_SPAN(\"in.line_comment\")\n"
        "/* OBS_SPAN(\"in.block\")\n OBS_SPAN(\"in.block2\") */\n"
        "const char *s = \"OBS_SPAN(\\\"in.string\\\")\";\n"
        "#define OBS_SPAN(name) x\n"
        "char q = '\"'; MY_OBS_SPAN(\"other.macro\");\n"
        "void f() { OBS_SPAN( \"real.one\" ); }\n"
        "void g() {\n  OBS_SPAN(\"real.two\");\n}\n";
    const std::vector<SpanSite> sites = spanLiterals(text);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0].name, "real.one");
    EXPECT_EQ(sites[0].line, 7);
    EXPECT_EQ(sites[1].name, "real.two");
    EXPECT_EQ(sites[1].line, 9);
}

TEST(SpanNames, UniqueAndUnprefixedAcrossSources)
{
    const fs::path root = PPM_SOURCE_DIR;
    std::map<std::string, std::vector<std::string>> sites_by_name;
    std::size_t files = 0;
    for (const char *dir : {"src", "tools"}) {
        for (const auto &entry :
             fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".cc" && ext != ".hh"))
                continue;
            ++files;
            std::ifstream in(entry.path());
            std::stringstream text;
            text << in.rdbuf();
            for (const SpanSite &site : spanLiterals(text.str()))
                sites_by_name[site.name].push_back(
                    fs::relative(entry.path(), root).string() + ":" +
                    std::to_string(site.line));
        }
    }
    ASSERT_GT(files, 0u) << "no sources under " << root;
    ASSERT_FALSE(sites_by_name.empty()) << "no OBS_SPAN sites found";
    for (const auto &[name, sites] : sites_by_name) {
        std::string where;
        for (const std::string &site : sites)
            where += " " + site;
        EXPECT_EQ(sites.size(), 1u)
            << "span \"" << name << "\" opened at several sites:"
            << where;
        EXPECT_NE(name.rfind("span.", 0), 0u)
            << "span \"" << name << "\" repeats the span. prefix "
            << "SpanSite adds:" << where;
    }
}

} // namespace
