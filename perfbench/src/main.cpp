// arpsec-perfbench — the process-level runners behind perfbench/run.py.
//
//   gen        render a seeded trace (pcap + labels)
//   reference  the serve gates' offline alerts over that trace
//   replay     arpsec-replay's call sequence over that trace
//   served     arpsec-served's call sequence: one Unix-socket client, then exit
//   client     streaming client: writer + reader threads on one connection
//   stages     single-threaded serve stage costs and the transport ceiling
//   info       build stamp as JSON
//
// Every subcommand writes its result as one JSON object to --result; the
// traced build (arpsec-perfbench-traced) also writes Chrome trace spans to
// --trace-out. run.py owns process spawning, repetition and statistics.

#include <cstdio>
#include <string>

#include "subcommands.hpp"

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s gen|reference|replay|served|client|stages|info [--options]\n",
                     argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    const perfbench::Args args{argc, argv, 2};
    if (args.has("trace-out")) perfbench::Tracer::instance().enable(cmd);

    int rc = 2;
    if (cmd == "gen") {
        rc = perfbench::cmd_gen(args);
    } else if (cmd == "reference") {
        rc = perfbench::cmd_reference(args);
    } else if (cmd == "replay") {
        rc = perfbench::cmd_replay(args);
    } else if (cmd == "served") {
        rc = perfbench::cmd_served(args);
    } else if (cmd == "client") {
        rc = perfbench::cmd_client(args);
    } else if (cmd == "stages") {
        rc = perfbench::cmd_stages(args);
    } else if (cmd == "info") {
        std::puts(perfbench::build_info().dump().c_str());
        return 0;
    } else {
        std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
        return 2;
    }
    if (perfbench::Tracer::instance().enabled() &&
        !perfbench::Tracer::instance().write_chrome(args.str("trace-out"))) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.str("trace-out").c_str());
        return rc == 0 ? 1 : rc;
    }
    return rc;
}
