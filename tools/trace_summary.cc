/**
 * @file
 * trace_summary: per-track event/byte summary of a pfsim trace.
 *
 *   trace_summary FILE [--min-tracks=N] [--json]
 *
 * Reads a Chrome trace-event JSON file written by `pfsim --trace` and
 * prints one row per track — a (pid, tid) pair, so tracks of traces
 * from other writers with several processes stay distinct — with its
 * name and event counts by phase, plus a
 * min/mean/max aggregation of every counter series on the track.
 * Flow events (ph s/f/t) are counted separately so CI can assert a
 * trace contains cross-MC handoff arrows. With --json the same
 * summary is a machine-readable object on stdout. Exits nonzero when
 * the file has no events, or fewer tracks with events than
 * --min-tracks — the CI smoke check that a trace is not silently
 * empty.
 *
 * The parser is a deliberately small string-aware brace scanner over
 * the traceEvents array, not a general JSON library: pfsim's writer
 * emits one object per line with flat fields, and this tool must stay
 * dependency-free.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

namespace
{

/** Running min/mean/max of one counter series on one track. */
struct CounterAgg
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;

    void
    sample(double v)
    {
        if (count == 0) {
            min = max = v;
        } else {
            if (v < min)
                min = v;
            if (v > max)
                max = v;
        }
        sum += v;
        ++count;
    }

    double mean() const { return count ? sum / count : 0.0; }
};

struct TrackStats
{
    std::string name;
    std::uint64_t spans = 0;
    std::uint64_t instants = 0;
    std::uint64_t counters = 0;
    std::uint64_t flows = 0;
    std::uint64_t other = 0;
    std::uint64_t bytes = 0;
    std::map<std::string, CounterAgg> series;

    std::uint64_t
    events() const
    {
        return spans + instants + counters + flows + other;
    }
};

/** Value of "key":"..." or "key":123 inside one flat object. */
std::string
fieldValue(const std::string &obj, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = obj.find(needle);
    if (pos == std::string::npos)
        return "";
    pos += needle.size();
    if (pos >= obj.size())
        return "";
    if (obj[pos] == '"') {
        std::size_t end = obj.find('"', pos + 1);
        if (end == std::string::npos)
            return "";
        return obj.substr(pos + 1, end - pos - 1);
    }
    std::size_t end = pos;
    while (end < obj.size() && obj[end] != ',' && obj[end] != '}')
        ++end;
    return obj.substr(pos, end - pos);
}

void
jsonEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) >= 0x20)
            os << c;
    }
    os << '"';
}

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: trace_summary FILE [--min-tracks=N] [--json]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    unsigned min_tracks = 1;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--min-tracks=", 0) == 0)
            min_tracks = static_cast<unsigned>(
                std::atoi(arg.c_str() + std::strlen("--min-tracks=")));
        else if (arg == "--json")
            json = true;
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (path.empty())
            path = arg;
        else
            usage();
    }
    if (path.empty())
        usage();

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "trace_summary: cannot open " << path << "\n";
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    std::size_t events_pos = text.find("\"traceEvents\"");
    if (events_pos == std::string::npos) {
        std::cerr << "trace_summary: " << path
                  << " has no traceEvents array\n";
        return 1;
    }

    // Walk the array object by object. Depth counts '{'/'}' outside
    // strings; each depth-0->1 transition starts an event object.
    std::map<std::pair<unsigned, unsigned>, TrackStats> tracks;
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    std::size_t obj_start = 0;
    for (std::size_t i = text.find('[', events_pos);
         i != std::string::npos && i < text.size(); ++i) {
        char c = text[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (depth == 0)
                obj_start = i;
            ++depth;
        } else if (c == '}') {
            --depth;
            if (depth < 0)
                break; // closed the enclosing document: array done
            if (depth == 0) {
                std::string obj =
                    text.substr(obj_start, i - obj_start + 1);
                std::string ph = fieldValue(obj, "ph");
                unsigned pid = static_cast<unsigned>(
                    std::atoi(fieldValue(obj, "pid").c_str()));
                unsigned tid = static_cast<unsigned>(
                    std::atoi(fieldValue(obj, "tid").c_str()));
                TrackStats &track = tracks[{pid, tid}];
                if (ph == "M") {
                    if (fieldValue(obj, "name") == "thread_name") {
                        // Track name lives in args.name; with flat
                        // objects the last "name": wins the search
                        // from the args substring.
                        std::size_t args = obj.find("\"args\"");
                        if (args != std::string::npos)
                            track.name =
                                fieldValue(obj.substr(args), "name");
                    }
                    continue;
                }
                track.bytes += obj.size();
                if (ph == "X") {
                    ++track.spans;
                } else if (ph == "i" || ph == "I") {
                    ++track.instants;
                } else if (ph == "C") {
                    ++track.counters;
                    // Aggregate by series name; the value is
                    // args.value, the only numeric "value": field of
                    // a counter object.
                    std::string series = fieldValue(obj, "name");
                    std::string value = fieldValue(obj, "value");
                    if (!series.empty() && !value.empty())
                        track.series[series].sample(
                            std::atof(value.c_str()));
                } else if (ph == "s" || ph == "f" || ph == "t") {
                    ++track.flows;
                } else {
                    ++track.other;
                }
            }
        }
    }

    std::uint64_t total_events = 0;
    std::uint64_t total_flows = 0;
    unsigned tracks_with_events = 0;
    for (const auto &[key, track] : tracks) {
        total_events += track.events();
        total_flows += track.flows;
        if (track.events() > 0)
            ++tracks_with_events;
    }

    if (json) {
        std::ostream &os = std::cout;
        os << "{\"tracks\":[";
        bool first = true;
        for (const auto &[key, track] : tracks) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"pid\":" << key.first
               << ",\"tid\":" << key.second << ",\"name\":";
            jsonEscaped(os, track.name);
            os << ",\"spans\":" << track.spans
               << ",\"instants\":" << track.instants
               << ",\"counters\":" << track.counters
               << ",\"flows\":" << track.flows
               << ",\"other\":" << track.other
               << ",\"bytes\":" << track.bytes;
            os << ",\"counter_series\":[";
            bool first_series = true;
            for (const auto &[series, agg] : track.series) {
                if (!first_series)
                    os << ",";
                first_series = false;
                char num[96];
                std::snprintf(num, sizeof(num),
                              "\"min\":%.17g,\"mean\":%.17g,"
                              "\"max\":%.17g",
                              agg.min, agg.mean(), agg.max);
                os << "{\"name\":";
                jsonEscaped(os, series);
                os << ",\"count\":" << agg.count << "," << num << "}";
            }
            os << "]}";
        }
        os << "],\"total_events\":" << total_events
           << ",\"flow_events\":" << total_flows
           << ",\"active_tracks\":" << tracks_with_events << "}\n";
    } else {
        std::printf("%-4s %-12s %8s %8s %8s %8s %8s %10s\n", "pid",
                    "track", "spans", "instants", "counters", "flows",
                    "events", "bytes");
        for (const auto &[key, track] : tracks) {
            std::string label = track.name.empty()
                                    ? "tid-" + std::to_string(key.second)
                                    : track.name;
            std::printf(
                "%-4u %-12s %8llu %8llu %8llu %8llu %8llu %10llu\n",
                key.first, label.c_str(),
                static_cast<unsigned long long>(track.spans),
                static_cast<unsigned long long>(track.instants),
                static_cast<unsigned long long>(track.counters),
                static_cast<unsigned long long>(track.flows),
                static_cast<unsigned long long>(track.events()),
                static_cast<unsigned long long>(track.bytes));
            for (const auto &[series, agg] : track.series)
                std::printf("       %-12s  count=%llu min=%g mean=%g "
                            "max=%g\n",
                            series.c_str(),
                            static_cast<unsigned long long>(agg.count),
                            agg.min, agg.mean(), agg.max);
        }
        std::printf("total: %llu events across %u active track(s), "
                    "%llu flow event(s)\n",
                    static_cast<unsigned long long>(total_events),
                    tracks_with_events,
                    static_cast<unsigned long long>(total_flows));
    }

    if (total_events == 0) {
        std::cerr << "trace_summary: trace has no events\n";
        return 1;
    }
    if (tracks_with_events < min_tracks) {
        std::cerr << "trace_summary: only " << tracks_with_events
                  << " active track(s), need " << min_tracks << "\n";
        return 1;
    }
    return 0;
}
