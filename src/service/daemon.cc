#include "service/daemon.hh"

#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "harness/parallel_sweep.hh"
#include "service/config_codec.hh"
#include "service/json.hh"
#include "service/shard_planner.hh"

namespace wisync::service {

namespace {

/**
 * Read one line into @p line, buffering at most @p max_bytes. Longer
 * lines set @p overflowed and are drained to the newline without
 * being stored — the caller answers an error without ever holding
 * (or parsing) the oversized text.
 * @return false at EOF with nothing consumed.
 */
bool
readBoundedLine(std::istream &in, std::string &line,
                std::size_t max_bytes, bool &overflowed)
{
    line.clear();
    overflowed = false;
    int c = in.get();
    if (c == std::istream::traits_type::eof())
        return false;
    for (; c != std::istream::traits_type::eof(); c = in.get()) {
        if (c == '\n')
            break;
        if (line.size() >= max_bytes) {
            overflowed = true;
            line.clear();
            continue; // keep draining to the newline
        }
        line.push_back(static_cast<char>(c));
    }
    return true;
}

std::string
buildResponse(const DaemonOptions &opt, std::size_t total_points,
              const std::vector<std::size_t> &indices,
              const std::vector<ServiceOutcome> &outcomes,
              const SweepService &svc)
{
    const BatchStats &stats = svc.lastBatch();
    const ResultCache::Stats &cs = svc.cache().stats();
    std::string out = "{";
    out += "\"points\":" + jsonNumber(std::uint64_t(total_points));
    out += ",\"shard\":{\"index\":" + jsonNumber(std::uint64_t(opt.shard)) +
           ",\"shards\":" + jsonNumber(std::uint64_t(opt.numShards)) +
           "}";
    out += ",\"stats\":{\"simulated\":" +
           jsonNumber(std::uint64_t(stats.simulated)) +
           ",\"cacheHits\":" + jsonNumber(std::uint64_t(stats.cacheHits)) +
           ",\"errors\":" + jsonNumber(std::uint64_t(stats.errors)) + "}";
    out += ",\"cache\":{\"hits\":" + jsonNumber(cs.hits) +
           ",\"misses\":" + jsonNumber(cs.misses) +
           ",\"insertions\":" + jsonNumber(cs.insertions) +
           ",\"evictions\":" + jsonNumber(cs.evictions) +
           ",\"collisions\":" + jsonNumber(cs.collisions) + "}";
    out += ",\"results\":[";
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
        const ServiceOutcome &o = outcomes[j];
        if (j)
            out += ",";
        out += "{\"index\":";
        appendJsonNumber(out, std::uint64_t(indices[j]));
        out += ",\"fingerprint\":";
        appendJsonNumber(out, o.fingerprint);
        out += o.ok ? ",\"ok\":true" : ",\"ok\":false";
        out += o.cacheHit ? ",\"cacheHit\":true" : ",\"cacheHit\":false";
        if (o.ok) {
            out += ",\"result\":";
            ConfigCodec::serializeResult(o.result, out);
        } else {
            out += ",\"error\":";
            appendJsonQuote(out, o.error);
        }
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace

std::string
errorResponseJson(const ParseError &e)
{
    std::string out = "{\"error\":{";
    out += "\"message\":" + jsonQuote(e.what());
    out += ",\"field\":" + jsonQuote(e.field());
    if (e.pointIndex() != ParseError::kNoPoint)
        out += ",\"point\":" +
               jsonNumber(std::uint64_t(e.pointIndex()));
    out += "}}";
    return out;
}

Daemon::Daemon(DaemonOptions opt)
    : opt_(std::move(opt)),
      svc_(opt_.cacheCapacity, opt_.hasherOverride)
{
    if (opt_.threads == 0)
        opt_.threads = harness::ParallelSweep::threads();
    warn_ = [](const std::string &message) {
        std::fprintf(stderr, "wisync_sweepd: %s\n", message.c_str());
    };
}

CacheStore::LoadStats
Daemon::start(std::string *error)
{
    CacheStore::LoadStats stats;
    if (opt_.cacheFile.empty())
        return stats;
    stats = CacheStore::load(svc_.cache(), opt_.cacheFile);
    // Compact: rewrite only the salvageable records (atomically),
    // which heals corrupt tails / bad records and bounds the growth
    // the append stream accumulated across past daemon lifetimes.
    // A version-mismatched or unsalvageable file is simply replaced.
    std::string save_error;
    if (!CacheStore::save(svc_.cache(), opt_.cacheFile, &save_error)) {
        if (error != nullptr)
            *error = save_error;
        return stats;
    }
    std::string open_error;
    if (!appender_.open(opt_.cacheFile, &open_error)) {
        if (error != nullptr)
            *error = open_error;
        return stats;
    }
    svc_.cache().setSpillHook(
        [this](const RequestPoint &point,
               const workloads::KernelResult &result) {
            appender_.append(point, result);
        });
    return stats;
}

void
Daemon::warnIfCollisions()
{
    const std::uint64_t collisions = svc_.cache().stats().collisions;
    if (collisions > reportedCollisions_) {
        warn_("result-cache fingerprint collision detected (" +
              std::to_string(collisions) +
              " total); colliding lookups degrade to misses");
        reportedCollisions_ = collisions;
    }
}

std::string
Daemon::handleRequest(const std::string &text, bool *ok_out)
{
    if (ok_out != nullptr)
        *ok_out = false;
    try {
        const SweepRequest request = ConfigCodec::parseRequest(text);
        const std::vector<std::size_t> indices =
            ShardPlanner::planByCost(request, opt_.shard, opt_.numShards);
        const SweepRequest slice =
            ShardPlanner::subRequest(request, indices);
        const auto outcomes = svc_.runBatch(slice, opt_.threads);
        warnIfCollisions();
        if (ok_out != nullptr)
            *ok_out = true;
        return buildResponse(opt_, request.points.size(), indices,
                             outcomes, svc_);
    } catch (const ParseError &e) {
        return errorResponseJson(e);
    } catch (const JsonError &e) {
        return errorResponseJson(
            ParseError("<request>", ParseError::kNoPoint, e.what()));
    } catch (const std::exception &e) {
        // Belt and braces: nothing below should throw anything else,
        // but the serve loop must survive even if it does.
        return errorResponseJson(
            ParseError("<internal>", ParseError::kNoPoint, e.what()));
    }
}

std::size_t
Daemon::serve(std::istream &in, std::ostream &out)
{
    std::size_t served = 0;
    std::string line;
    bool overflowed = false;
    while (readBoundedLine(in, line, opt_.maxRequestBytes, overflowed)) {
        if (overflowed) {
            out << errorResponseJson(ParseError(
                       "<request>", ParseError::kNoPoint,
                       "request line exceeds " +
                           std::to_string(opt_.maxRequestBytes) +
                           " bytes"))
                << "\n";
            out.flush();
            ++served;
            continue;
        }
        if (line.empty())
            continue;
        out << handleRequest(line) << "\n";
        out.flush();
        ++served;
    }
    return served;
}

} // namespace wisync::service
