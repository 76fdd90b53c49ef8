/**
 * @file
 * End-to-end smoke tests of the `ratsim` CLI binary: run the real
 * executable (path injected by CMake as RATSIM_CLI_PATH), and check
 * exit status plus the key output lines a user relies on.
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#ifndef RATSIM_CLI_PATH
#error "RATSIM_CLI_PATH must point at the ratsim binary"
#endif

namespace {

struct CliResult {
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved
};

CliResult
runCli(const std::string &args)
{
    // Quote the binary path; merge stderr so fatal() text is captured.
    const std::string cmd =
        "\"" RATSIM_CLI_PATH "\" " + args + " 2>&1";
    CliResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        r.output.append(buf, n);
    const int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

TEST(CliSmoke, ListProgramsPrintsSpec2000Names)
{
    const CliResult r = runCli("--list-programs");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("art\n"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("mcf\n"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("gzip\n"), std::string::npos) << r.output;
}

TEST(CliSmoke, RatWorkloadRunReportsPerThreadAndThroughputLines)
{
    const CliResult r =
        runCli("--workload art,mcf --policy RaT --measure 20000");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("workload art,mcf under RaT"),
              std::string::npos)
        << r.output;
    // Per-thread stats table header and both thread rows.
    EXPECT_NE(r.output.find("RA epis."), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("art"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("mcf"), std::string::npos) << r.output;
    // Headline metrics line.
    EXPECT_NE(r.output.find("throughput (Eq.1):"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("total IPC:"), std::string::npos) << r.output;
}

TEST(CliSmoke, HelpExitsZero)
{
    const CliResult r = runCli("--help");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage: ratsim"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, UnknownPolicyFailsWithDiagnostic)
{
    const CliResult r = runCli("--workload art,mcf --policy BOGUS");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown policy"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, UnknownProgramFailsWithDiagnostic)
{
    const CliResult r = runCli("--workload art,notaprogram");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown program"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, GarbageNumericOptionFailsWithDiagnostic)
{
    // strtoull would silently turn "abc" into 0 measured cycles; the
    // checked parser must reject it instead.
    const CliResult r = runCli("--workload art,mcf --measure abc");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("expected an unsigned integer"),
              std::string::npos)
        << r.output;

    const CliResult trailing = runCli("--workload art,mcf --seed 12x");
    EXPECT_NE(trailing.exitCode, 0);
    EXPECT_NE(trailing.output.find("expected an unsigned integer"),
              std::string::npos)
        << trailing.output;
}

TEST(CliSmoke, RunSubcommandMatchesLegacyInvocation)
{
    const char *args =
        "--workload art,mcf --policy RaT --measure 2000 --warmup 500 "
        "--prewarm 20000";
    const CliResult legacy = runCli(args);
    const CliResult sub = runCli(std::string("run ") + args);
    ASSERT_EQ(legacy.exitCode, 0) << legacy.output;
    ASSERT_EQ(sub.exitCode, 0) << sub.output;
    EXPECT_EQ(legacy.output, sub.output);
}

TEST(CliSmoke, NoCycleSkipFlagIsAcceptedAndBitIdentical)
{
    // STALL on a memory-bound pair skips most cycles, so identical
    // output across the toggle is an end-to-end pin of the
    // quiescence fast-forward's bit-identical contract.
    const char *args =
        "report --workload art,mcf --policy STALL --measure 2000 "
        "--warmup 500 --prewarm 20000 --json -";
    const CliResult skip = runCli(args);
    const CliResult tick = runCli(std::string(args) + " --no-cycle-skip");
    ASSERT_EQ(skip.exitCode, 0) << skip.output;
    ASSERT_EQ(tick.exitCode, 0) << tick.output;
    EXPECT_EQ(skip.output, tick.output);
}

TEST(CliSmoke, ReportSubcommandEmitsJsonToStdout)
{
    const CliResult r = runCli(
        "report --workload art,mcf --policy RaT --measure 2000 "
        "--warmup 500 --prewarm 20000 --json -");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("\"schema\": \"ratsim-run-v1\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"workload\": \"art,mcf\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"committedInsts\""), std::string::npos)
        << r.output;
}

TEST(CliSmoke, ReportSubcommandEmitsCsvToStdout)
{
    const CliResult r = runCli(
        "report --workload art,mcf --policy ICOUNT --measure 2000 "
        "--warmup 500 --prewarm 20000 --csv -");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("thread,program,ipc"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("art"), std::string::npos) << r.output;
}

TEST(CliSmoke, SweepSubcommandRunsGrid)
{
    const CliResult r = runCli(
        "sweep --policies ICOUNT --workloads art,mcf --measure 1000 "
        "--warmup 200 --prewarm 5000");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("sweep: 1 cells"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("ICOUNT"), std::string::npos) << r.output;
}

TEST(CliSmoke, DiscoveryFlagInValuePositionIsNotHijacked)
{
    // "--list-programs" here is the (missing) value of --workload; it
    // must parse as a bad program name, not short-circuit into the
    // program listing with exit 0.
    const CliResult r = runCli("run --workload --list-programs");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown program"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, EmptySweepListsFailWithDiagnostic)
{
    const CliResult w = runCli("sweep --workloads \";\"");
    EXPECT_NE(w.exitCode, 0);
    EXPECT_NE(w.output.find("--workloads"), std::string::npos)
        << w.output;

    const CliResult g = runCli("sweep --groups \"\"");
    EXPECT_NE(g.exitCode, 0);
    EXPECT_NE(g.output.find("--groups"), std::string::npos) << g.output;
}

TEST(CliSmoke, RaVariantFlagReachesReportedConfig)
{
    const CliResult r = runCli(
        "report --workload art,mcf --policy RaT --measure 2000 "
        "--warmup 500 --prewarm 20000 --ra-variant capped --ra-cap 64 "
        "--json -");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("\"variant\": \"capped\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"cappedMaxCycles\": 64"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, UnknownRaVariantFailsWithDiagnostic)
{
    const CliResult r =
        runCli("run --workload art,mcf --ra-variant bogus");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown runahead variant"),
              std::string::npos)
        << r.output;
}

TEST(CliSmoke, RaCacheLinesFlagIsAccepted)
{
    const CliResult r = runCli(
        "run --workload art,mcf --policy RaT --measure 1000 "
        "--warmup 200 --prewarm 5000 --runahead-cache "
        "--ra-cache-lines 16");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("throughput (Eq.1):"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, SweepGridsOverRaVariants)
{
    // Three variants expand to three cells; all must be listed.
    const CliResult r = runCli(
        "sweep --policies RaT --workloads art,mcf "
        "--ra-variant classic,capped,useless-filter --measure 1000 "
        "--warmup 200 --prewarm 5000");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("sweep: 3 cells"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("classic"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("capped"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("useless-filter"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, FarmSubcommandRunsGridAcrossWorkerProcesses)
{
    const CliResult r = runCli(
        "farm --policies ICOUNT,RaT --workloads art,mcf --seeds 1,2 "
        "--measure 1000 --warmup 200 --prewarm 5000 --workers 2");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("farm: 4 cells"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("workers"), std::string::npos) << r.output;
}

TEST(CliSmoke, FarmWorkersFlagRejectedOutsideFarmMode)
{
    const CliResult r = runCli("sweep --workloads art,mcf --workers 2");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("--workers"), std::string::npos) << r.output;
}

TEST(CliSmoke, FarmRejectsNoCycleSkip)
{
    // A job ships only the serialized model config, so a worker would
    // silently skip cycles anyway: the flag is refused up front.
    const CliResult r = runCli(
        "farm --workloads art,mcf --measure 1000 --warmup 200 "
        "--prewarm 5000 --workers 1 --no-cycle-skip");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("--no-cycle-skip"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, FarmWorkerModeRequiresItsPrivateProtocol)
{
    // The worker entry point speaks length-prefixed frames on stdin;
    // invoked from a terminal-style empty stdin it must exit cleanly
    // without simulating anything.
    const CliResult r = runCli("--farm-worker < /dev/null");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(CliSmoke, FairnessBaselinesLeaveTheTraceToTheMeasuredRun)
{
    // The Eq. 2 baselines are single-thread runs; none of them may
    // write the --trace-out file, which must hold the two-thread run.
    const std::string trace =
        testing::TempDir() + "ratsim_fairness_trace.json";
    std::remove(trace.c_str());
    const CliResult r = runCli(
        "run --workload art,mcf --policy RaT --fairness --trace-out " +
        trace + " --measure 2000 --warmup 500 --prewarm 20000");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("fairness (Eq.2):"), std::string::npos)
        << r.output;
    std::ifstream in(trace);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"name\":\"hw thread 1\""), std::string::npos)
        << "trace holds no second hw thread";
    std::remove(trace.c_str());
}

TEST(CliSmoke, GroupRefusesTraceOut)
{
    // Every workload of the group would write the one trace file.
    const std::string trace =
        testing::TempDir() + "ratsim_group_trace.json";
    const CliResult r = runCli(
        "run --group MIX2 --policy RaT --measure 2000 --warmup 500 "
        "--prewarm 20000 --trace-out " + trace);
    std::remove(trace.c_str());
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("--trace-out"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("--group"), std::string::npos) << r.output;
}

TEST(CliSmoke, UnknownSubcommandFailsWithDiagnostic)
{
    const CliResult r = runCli("frobnicate");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos)
        << r.output;
}

TEST(CliSmoke, VerifyRefusesFlagsItIgnores)
{
    // Every leg overrides the skip mode and the variant, the verdict
    // ignores fairness and telemetry, and each leg would rewrite the
    // trace file: verify takes none of these flags.
    const std::string trace =
        testing::TempDir() + "ratsim_verify_trace.json";
    const struct {
        std::string args;
        const char *flag;
    } cases[] = {
        {"--fairness", "--fairness"},
        {"--no-cycle-skip", "--no-cycle-skip"},
        {"--sample-window 500", "--sample-window"},
        {"--ra-variant capped", "--ra-variant"},
        {"--trace-out " + trace, "--trace-out"},
        {"--trace-categories mem", "--trace-categories"},
    };
    for (const auto &c : cases) {
        const CliResult r = runCli(
            "verify --workload art,mcf --policy RaT --measure 1000 "
            "--warmup 200 --prewarm 5000 " + c.args);
        EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find(c.flag), std::string::npos)
            << c.args << "\n" << r.output;
    }
    std::remove(trace.c_str());
}

TEST(CliSmoke, ZeroSizedStructuresAreRefused)
{
    // A zero-entry ROB or register file builds a core that never
    // dispatches: it would print IPC 0 for every thread and exit 0.
    const std::string windows = " --measure 200 --warmup 10 --prewarm 100";
    const struct {
        const char *args;
        const char *flag;
    } cases[] = {
        {"run --workload art,mcf --rob 0", "--rob: "},
        {"run --workload art,mcf --regs 0", "--regs: "},
        {"sweep --workloads art,mcf --rob 256,0", "--rob: "},
        {"sweep --workloads art,mcf --regs 0,128", "--regs: "},
    };
    for (const auto &c : cases) {
        const CliResult r = runCli(c.args + windows);
        EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find(c.flag), std::string::npos)
            << c.args << "\n" << r.output;
    }
    // One entry is enough to run.
    const CliResult one =
        runCli("run --workload art,mcf --rob 1 --regs 1" + windows);
    EXPECT_EQ(one.exitCode, 0) << one.output;
}

TEST(CliSmoke, OversizedPhaseSpanIsRefused)
{
    // The profiler's signature matrix grows with the span: 4e9 windows
    // used to end in an uncaught std::bad_alloc (exit 134, and under
    // ASan an abort). The span is refused before anything is allocated.
    for (const char *args :
         {"run --sampled --phase-span 4000000000 --workload mcf,eon",
          "run --sampled --phase-span 65537 --workload mcf,eon",
          "sweep --sampled --phase-span 4000000000 --workloads mcf,eon"}) {
        const CliResult r = runCli(args);
        EXPECT_EQ(r.exitCode, 1) << args << "\n" << r.output;
        EXPECT_NE(r.output.find("fatal: --phase-span"), std::string::npos)
            << args << "\n" << r.output;
        EXPECT_NE(r.output.find("limit of 65536 windows"),
                  std::string::npos)
            << args << "\n" << r.output;
    }
}

TEST(CliSmoke, OversizedStructuresAreRefused)
{
    // A 4e9-entry ROB or register axis used to end in an uncaught
    // std::bad_alloc (exit 134), and a 4e9-line runahead cache sized
    // its table in a loop that wrapped to 0 and never returned. Sizes
    // above the limit are refused before anything is allocated.
    const std::string windows = " --measure 200 --warmup 10 --prewarm 100";
    const struct {
        const char *args;
        const char *fatal;
    } cases[] = {
        {"run --workload art,mcf --rob 4000000000", "fatal: --rob: "},
        {"run --workload art,mcf --rob 65533", "fatal: --rob: "},
        {"sweep --workloads art,mcf --regs 64,4000000000",
         "fatal: --regs: "},
        {"sweep --workloads art,mcf --regs 64,65533", "fatal: --regs: "},
        {"run --workload art,mcf --policy ICOUNT "
         "--ra-cache-lines 4000000000",
         "fatal: --ra-cache-lines: "},
        {"run --workload art,mcf --policy ICOUNT --ra-cache-lines 65533",
         "fatal: --ra-cache-lines: "},
    };
    for (const auto &c : cases) {
        const CliResult r = runCli(c.args + windows);
        EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find(c.fatal), std::string::npos)
            << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find("limit of 65532 entries"), std::string::npos)
            << c.args << "\n" << r.output;
    }
    // The limit itself still runs.
    for (const char *args :
         {"run --workload art,mcf --rob 65532 --regs 65532 "
          "--runahead-cache --ra-cache-lines 65532",
          "sweep --workloads art,mcf --regs 64,65532"}) {
        const CliResult r = runCli(args + windows);
        EXPECT_EQ(r.exitCode, 0) << args << "\n" << r.output;
    }
}

TEST(CliSmoke, RunsPastTheClockLimitAreRefused)
{
    // prewarm + warmup + measure past 2^62 cycles used to wrap the
    // 64-bit clock: --measure 2^64-1 simulated zero cycles and printed
    // IPC 0.000 with exit 0, and --warmup 2^64-1 ran as --warmup 0.
    const std::string max = " 18446744073709551615";
    const std::string json = "clock-limit.json";
    const std::string csv = "clock-limit.csv";
    const std::string out = " --json " + json + " --csv " + csv;
    const struct {
        std::string args;
        const char *fatal;
    } cases[] = {
        {"run --workload art,mcf --measure" + max,
         "fatal: measureCycles: 18446744073709551615 "},
        {"report --workload art,mcf --warmup" + max + out,
         "fatal: warmupCycles: 18446744073709551615 "},
        {"sweep --workloads art,mcf --measure 2000," + max.substr(1) + out,
         "fatal: measureCycles: 18446744073709551615 "},
    };
    for (const auto &c : cases) {
        const CliResult r = runCli(c.args);
        EXPECT_EQ(r.exitCode, 1) << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find(c.fatal), std::string::npos)
            << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find("past the limit of 4611686018427387904 "
                                "cycles"),
                  std::string::npos)
            << c.args << "\n" << r.output;
        EXPECT_FALSE(std::ifstream(json).good()) << c.args;
        EXPECT_FALSE(std::ifstream(csv).good()) << c.args;
    }
}

TEST(CliSmoke, SubcommandHelpListsItsFlags)
{
    for (const char *sub : {"run", "report", "verify", "sweep", "farm"}) {
        const CliResult r = runCli(std::string(sub) + " --help");
        EXPECT_EQ(r.exitCode, 0) << sub << "\n" << r.output;
        EXPECT_NE(r.output.find("usage: ratsim"), std::string::npos)
            << sub << "\n" << r.output;
    }
    const auto lists = [](const CliResult &r, const char *flag) {
        return r.output.find(std::string(flag) + " ") != std::string::npos;
    };
    const CliResult sweep = runCli("sweep --help");
    EXPECT_TRUE(lists(sweep, "--ra-cap")) << sweep.output;
    EXPECT_TRUE(lists(sweep, "--no-prefetch")) << sweep.output;
    EXPECT_TRUE(lists(sweep, "--no-ra-fetch")) << sweep.output;
    const CliResult verify = runCli("verify --help");
    EXPECT_TRUE(lists(verify, "--mutate-at")) << verify.output;
    EXPECT_FALSE(lists(verify, "--fairness")) << verify.output;
    const CliResult farm = runCli("farm --help");
    EXPECT_TRUE(lists(farm, "--workers")) << farm.output;
    EXPECT_FALSE(lists(farm, "--no-cycle-skip")) << farm.output;
    const CliResult run = runCli("run --help");
    EXPECT_FALSE(lists(run, "--policies")) << run.output;
}

} // namespace
