// topobench_server wire-protocol test: drives the real daemon binary
// (TOPOBENCH_SERVER_BIN, injected by CMake) over a shell pipe and pins the
// protocol — hello handshake fields, deterministic response transcripts
// across replays, the store-hit answer path across daemon restarts, and
// in-band error handling with the documented exit codes.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/topobench.h"
#include "store/result_store.h"
#include "util/json.h"

namespace tb {
namespace {

std::string work_path(const std::string& name, const std::string& ext) {
  return testing::TempDir() + "topobench_server_test_" + name + "_" +
         std::to_string(::getpid()) + ext;
}

/// Run the daemon with `requests` on stdin; returns stdout and stores the
/// exit code. Requests and responses are line-delimited, so the transcript
/// comparison is plain string equality.
std::string run_server(const std::string& name,
                       const std::vector<std::string>& requests,
                       int* exit_code, const std::string& extra_args = "") {
  const std::string in_path = work_path(name, ".in");
  const std::string out_path = work_path(name, ".out");
  {
    std::ofstream in(in_path);
    for (const std::string& r : requests) in << r << '\n';
  }
  const std::string cmd = std::string(TOPOBENCH_SERVER_BIN) + " " +
                          extra_args + " < " + in_path + " > " + out_path;
  const int status = std::system(cmd.c_str());
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream out(out_path);
  std::stringstream ss;
  ss << out.rdbuf();
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return ss.str();
}

TEST(ServerProtocolTest, HelloReportsVersionsAndStoreState) {
  int rc = -1;
  const std::string out = run_server("hello", {R"({"op": "hello"})"}, &rc);
  EXPECT_EQ(rc, 0);
  const json::Value v = json::parse(out);
  EXPECT_TRUE(v.find("ok")->as_bool("ok"));
  EXPECT_EQ(v.find("server")->as_string("server"), "topobench_server");
  EXPECT_EQ(v.find("protocol")->as_int("protocol", 0, 100),
            api::kProtocolVersion);
  EXPECT_EQ(v.find("api_version")->as_string("api_version"), api::kApiVersion);
  EXPECT_EQ(v.find("store_format")->as_int("store_format", 0, 100),
            store::kStoreFormatVersion);
  EXPECT_EQ(v.find("store")->kind, json::Kind::Null);  // none attached
}

TEST(ServerProtocolTest, ReplayedScriptYieldsByteIdenticalTranscript) {
  const std::vector<std::string> script = {
      R"({"op": "hello", "id": 1})",
      R"({"op": "query", "id": 2, "topology": {"family": "hypercube", "servers": 16}, "tm": "a2a", "epsilon": 0.1})",
      R"x({"op": "query", "id": 3, "topology": {"family": "hypercube", "servers": 16}, "tm": "rm(2)", "epsilon": 0.1, "seed": 5})x",
      R"({"op": "stats", "id": 4})",
      R"({"op": "shutdown", "id": 5})",
  };
  int rc1 = -1;
  int rc2 = -1;
  const std::string first = run_server("replay", script, &rc1);
  const std::string second = run_server("replay", script, &rc2);
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(first, second);  // the whole transcript is deterministic
  EXPECT_NE(first.find("\"source\": \"solved\""), std::string::npos);
}

TEST(ServerProtocolTest, SecondDaemonAnswersFromStoreWithIdenticalBytes) {
  const std::string store = work_path("storehit", ".store");
  std::remove(store.c_str());
  const std::vector<std::string> script = {
      R"({"op": "query", "topology": {"family": "fattree", "servers": 16}, "tm": "a2a", "epsilon": 0.1})",
      R"({"op": "stats"})",
  };
  int rc1 = -1;
  int rc2 = -1;
  const std::string first =
      run_server("storehit", script, &rc1, "--store " + store);
  const std::string second =
      run_server("storehit", script, &rc2, "--store " + store);
  std::remove(store.c_str());
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(first.find("\"source\": \"solved\""), std::string::npos);
  EXPECT_NE(second.find("\"source\": \"store\""), std::string::npos);
  // Everything except the answering tier is byte-identical.
  std::string normalized_first = first;
  std::string normalized_second = second;
  const auto strip = [](std::string* s, const std::string& from) {
    const std::size_t pos = s->find(from);
    ASSERT_NE(pos, std::string::npos);
    s->erase(pos, from.size());
  };
  strip(&normalized_first, "\"source\": \"solved\", ");
  strip(&normalized_second, "\"source\": \"store\", ");
  // The stats lines differ by design (misses vs disk_hits): drop them.
  normalized_first = normalized_first.substr(0, normalized_first.find('\n'));
  normalized_second = normalized_second.substr(0, normalized_second.find('\n'));
  EXPECT_EQ(normalized_first, normalized_second);
  // And the second daemon's stats pin the acceptance shape: all disk hits.
  const std::size_t stats_pos = second.find('\n');
  const json::Value stats = json::parse(second.substr(stats_pos + 1));
  EXPECT_EQ(stats.find("disk_hits")->as_int("disk_hits", 0, 1 << 20), 1);
  EXPECT_EQ(stats.find("misses")->as_int("misses", 0, 1 << 20), 0);
}

TEST(ServerProtocolTest, SweepBatchesAndCountsTiers) {
  // The repeat carries "warm_start", a member the sweep op ignores: it is
  // the same grid and is answered from memory.
  const std::vector<std::string> script = {
      R"({"op": "sweep", "topologies": [{"family": "hypercube", "servers": 16}], "tms": ["a2a", "lm"], "epsilon": 0.1})",
      R"({"op": "sweep", "topologies": [{"family": "hypercube", "servers": 16}], "tms": ["a2a", "lm"], "epsilon": 0.1, "warm_start": true})",
  };
  int rc = -1;
  const std::string out = run_server("sweep", script, &rc);
  EXPECT_EQ(rc, 0);
  std::stringstream lines(out);
  std::string first_line;
  std::string second_line;
  ASSERT_TRUE(std::getline(lines, first_line));
  ASSERT_TRUE(std::getline(lines, second_line));
  const json::Value first = json::parse(first_line);
  const json::Value second = json::parse(second_line);
  EXPECT_EQ(first.find("cells")->as_int("cells", 0, 100), 2);
  EXPECT_EQ(first.find("solved")->as_int("solved", 0, 100), 2);
  EXPECT_EQ(second.find("solved")->as_int("solved", 0, 100), 0);
  EXPECT_EQ(second.find("memory_hits")->as_int("memory_hits", 0, 100), 2);
  EXPECT_EQ(json::dump(*first.find("results")),
            json::dump(*second.find("results")));
}

TEST(ServerProtocolTest, MalformedRequestsAnswerInBandAndExitNonzero) {
  const std::vector<std::string> script = {
      "this is not json",
      R"({"op": "no-such-op"})",
      R"({"op": "query", "id": "q7"})",
      R"({"op": "hello"})",
  };
  int rc = -1;
  const std::string out = run_server("errors", script, &rc);
  EXPECT_EQ(rc, 1);  // served everything, but some requests failed
  std::stringstream lines(out);
  std::string line;
  int ok_count = 0;
  int err_count = 0;
  while (std::getline(lines, line)) {
    const json::Value v = json::parse(line);
    if (v.find("ok")->as_bool("ok")) {
      ++ok_count;
    } else {
      ++err_count;
      EXPECT_NE(v.find("error"), nullptr);
    }
  }
  EXPECT_EQ(ok_count, 1);  // the trailing hello still answered
  EXPECT_EQ(err_count, 3);
  // The id of a failed request is echoed for correlation.
  EXPECT_NE(out.find("\"id\": \"q7\""), std::string::npos);
}

TEST(ServerProtocolTest, EpsilonOutsideTheHonouredRangeAnswersInBand) {
  // GK honours epsilon in [mcf::kMinEpsilon, mcf::kMaxEpsilon]; a value
  // outside it is an error, not a silent clamp that files the same bits
  // under a second label.
  const std::string cell =
      R"("topology": {"family": "hypercube", "servers": 16}, "tm": "a2a")";
  const std::vector<std::string> script = {
      R"({"op": "query", "id": 1, )" + cell + R"(, "epsilon": 0.3})",
      R"({"op": "query", "id": 2, )" + cell + R"(, "epsilon": 0.5})",
      R"({"op": "query", "id": 3, )" + cell + R"(, "epsilon": 0.00009})",
      R"({"op": "sweep", "id": 4, "topologies": [{"family": "hypercube", )"
      R"("servers": 16}], "tms": ["a2a"], "epsilon": 1})",
  };
  int rc = -1;
  const std::string out = run_server("epsilon", script, &rc);
  EXPECT_EQ(rc, 1);
  std::stringstream lines(out);
  std::string line;
  std::vector<json::Value> responses;
  while (std::getline(lines, line)) responses.push_back(json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].find("ok")->as_bool("ok"));
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_FALSE(responses[i].find("ok")->as_bool("ok")) << i;
    EXPECT_EQ(responses[i].find("error")->as_string("error"),
              "epsilon must be in [0.0001, 0.3]")
        << i;
  }
}

}  // namespace
}  // namespace tb
