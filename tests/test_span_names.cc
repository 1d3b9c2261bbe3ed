/**
 * @file
 * Span-name lint: every `OBS_SPAN("…")` and `TraceRoot x("…")` literal
 * in src/ and tools/ is a distinct name. A span name used at two sites
 * mixes two durations in one histogram, and `ppm_trace` output cannot
 * tell a root from a span of the same name. A `span.` prefix on an
 * OBS_SPAN doubles the one SpanSite already adds (`span.span.x`).
 * Comments are skipped: doc comments quote example span sites.
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
    bool root = false; ///< a TraceRoot, not an OBS_SPAN
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * The literal names of OBS_SPAN("…") calls and TraceRoot var("…")
 * declarations in C++ source @p text, outside comments, string
 * literals and character literals.
 */
std::vector<SpanSite>
spanLiterals(const std::string &text)
{
    static const std::string kMacro = "OBS_SPAN";
    static const std::string kRoot = "TraceRoot";
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
    const auto skipSpace = [&] {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            line += text[i++] == '\n';
    };
    const auto wordAt = [&](const std::string &word) {
        return text.compare(i, word.size(), word) == 0 &&
               (i == 0 || !identChar(text[i - 1])) &&
               !identChar(text[i + word.size()]);
    };
    // At an opening '(' or '{': record a literal first argument.
    const auto literalArgument = [&](int at, bool root) {
        if (i >= text.size() || (text[i] != '(' && text[i] != '{'))
            return;
        ++i;
        skipSpace();
        if (i < text.size() && text[i] == '"')
            sites.push_back({quoted('"'), at, root});
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
        } else if (wordAt(kMacro)) {
            const int at = line;
            i += kMacro.size();
            skipSpace();
            literalArgument(at, false);
        } else if (wordAt(kRoot)) {
            // `TraceRoot name("…")`: skip the variable name.
            const int at = line;
            i += kRoot.size();
            skipSpace();
            while (i < text.size() && identChar(text[i]))
                ++i;
            skipSpace();
            literalArgument(at, true);
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
        "void g() {\n  OBS_SPAN(\"real.two\");\n}\n"
        "// obs::TraceRoot r(\"in.comment\");\n"
        "TraceRoot::TraceRoot(const char *name) {}\n"
        "MyTraceRoot r(\"other.class\");\n"
        "void h() { obs::TraceRoot trace_root(\"real.root\"); }\n";
    const std::vector<SpanSite> sites = spanLiterals(text);
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0].name, "real.one");
    EXPECT_EQ(sites[0].line, 7);
    EXPECT_FALSE(sites[0].root);
    EXPECT_EQ(sites[1].name, "real.two");
    EXPECT_EQ(sites[1].line, 9);
    EXPECT_EQ(sites[2].name, "real.root");
    EXPECT_EQ(sites[2].line, 14);
    EXPECT_TRUE(sites[2].root);
}

TEST(SpanNames, UniqueAndUnprefixedAcrossSources)
{
    const fs::path root = PPM_SOURCE_DIR;
    std::map<std::string, std::vector<std::string>> sites_by_name;
    std::map<std::string, bool> is_root;
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
            for (const SpanSite &site : spanLiterals(text.str())) {
                sites_by_name[site.name].push_back(
                    fs::relative(entry.path(), root).string() + ":" +
                    std::to_string(site.line));
                is_root[site.name] = site.root;
            }
        }
    }
    ASSERT_GT(files, 0u) << "no sources under " << root;
    ASSERT_FALSE(sites_by_name.empty()) << "no OBS_SPAN sites found";
    ASSERT_TRUE(is_root["core.build"]) << "no TraceRoot sites found";
    for (const auto &[name, sites] : sites_by_name) {
        std::string where;
        for (const std::string &site : sites)
            where += " " + site;
        EXPECT_EQ(sites.size(), 1u)
            << "span \"" << name << "\" opened at several sites:"
            << where;
        if (!is_root[name]) {
            EXPECT_NE(name.rfind("span.", 0), 0u)
                << "span \"" << name << "\" repeats the span. prefix "
                << "SpanSite adds:" << where;
        }
    }
}

} // namespace
