/**
 * @file
 * End-to-end smoke tests of the `ratsim` CLI binary: run the real
 * executable (path injected by CMake as RATSIM_CLI_PATH), and check
 * exit status plus the key output lines a user relies on.
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
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

TEST(CliSmoke, UnknownSubcommandFailsWithDiagnostic)
{
    const CliResult r = runCli("frobnicate");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos)
        << r.output;
}

} // namespace
