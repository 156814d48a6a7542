/**
 * @file
 * ims-serve: scheduling-as-a-service over stdin/stdout. Runs a
 * ScheduleService (machine registry + content-addressed schedule cache +
 * bounded worker queue) and speaks a line-delimited request/response
 * protocol — no sockets, so it composes with pipes, CI scripts and
 * editor integrations alike.
 *
 * Usage: ims-serve [options]
 *   --threads <n>         worker threads (0 = hardware concurrency)
 *   --cache-capacity <n>  cached schedules before LRU eviction (4096)
 *   --max-queue <n>       queued requests before admission control
 *                         rejects with service.overloaded (1024)
 *   --machine <name>      default machine for schedule requests (cydra5)
 *   --scheduler iterative|slack|exact    default backend
 *   --budget-ratio <r>    default BudgetRatio (2.0)
 *   --load-cache <path>   re-materialize a saved cache before serving
 *   --save-cache <path>   save the cache on quit/EOF
 *   A malformed or out-of-range number for any numeric option is a
 *   usage error: the option is named on stderr, exit status 2.
 *
 * Protocol (one request per line; multi-line payloads are byte-counted,
 * the count in plain decimal digits):
 *   schedule <bytes> [client=<name>] [machine=<name>]
 *   <bytes of loop text in the mini-IR format>
 *       -> result <loop> ok ii=<n> mii=<n> length=<n> fingerprint=<hex>
 *        | result <loop> failed code=<diagnostic code>
 *       then: meta hit=<0|1> key=<hex> queue_ms=<t> service_ms=<t>
 *   register <name> <bytes>      (machine_io text payload)
 *   machines                     -> ok <name>...
 *   stats                        -> one ims.service_stats.v1 JSON line
 *   save <path> | load <path>    cache persistence
 *   quit
 *   Failures answer: error <code> <message>
 *
 * Each answer is printed as soon as it and every earlier answer are
 * done, so answers stay in request order and a client that sends one
 * request and waits gets its answer. `register`, `stats`, `save` and
 * `load` first wait until every earlier answer is printed; EOF and
 * `quit` wait for every answer before --save-cache runs. The `result`
 * line is a pure function of (loop, machine, options) — timings and
 * cache state live on the `meta` line — so replaying a request stream
 * must reproduce every result line byte-for-byte (scripts/ci.sh gates
 * on exactly that).
 */
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

#include "sched/schedule.hpp"
#include "service/schedule_service.hpp"
#include "support/error.hpp"
#include "support/parse_number.hpp"

namespace {

using namespace ims;

[[noreturn]] void
usage(int code)
{
    std::cerr << "usage: ims-serve [--threads n] [--cache-capacity n] "
                 "[--max-queue n]\n"
                 "                 [--machine name] "
                 "[--scheduler iterative|slack|exact]\n"
                 "                 [--budget-ratio r] [--load-cache path] "
                 "[--save-cache path]\n";
    std::exit(code);
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << std::hex << value;
    return out.str();
}

std::string
milliseconds(double seconds)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << seconds * 1000.0;
    return out.str();
}

/** Deterministic response line for one handled schedule request. */
std::string
resultLine(const service::ServiceResponse& response)
{
    if (response.status != service::ServiceResponse::Status::kOk)
        return "error " + response.errorCode + " " + response.errorMessage;

    std::ostringstream out;
    const core::PipelineResult& result = *response.result;
    out << "result " << response.loopName;
    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        out << " ok ii=" << artifacts.outcome.schedule.ii
            << " mii=" << artifacts.outcome.mii
            << " length=" << artifacts.outcome.schedule.scheduleLength;
    } else {
        std::string code = "error.unknown";
        for (const auto& diagnostic : result.diagnostics)
            if (diagnostic.severity == core::Diagnostic::Severity::kError) {
                code = diagnostic.code;
                break;
            }
        out << " failed code=" << code;
    }
    out << " fingerprint="
        << hex(service::fingerprintResult(*response.loop,
                                          response.model->model, result));
    return out.str();
}

/** The answer to one schedule request: its result line and, for a
 *  processed request, its meta line. */
std::string
answerText(const service::ServiceResponse& response)
{
    std::ostringstream out;
    out << resultLine(response) << "\n";
    if (response.ok())
        out << "meta hit=" << (response.cacheHit ? 1 : 0)
            << " key=" << hex(response.key)
            << " queue_ms=" << milliseconds(response.queueSeconds)
            << " service_ms=" << milliseconds(response.serviceSeconds)
            << "\n";
    return out.str();
}

/**
 * Prints answers in request order, each as soon as it and every earlier
 * answer are done. The reader thread reserves a slot per answer, in
 * request order; any thread may fill a slot, and filling one prints
 * every consecutive filled slot at the front.
 */
class InOrderWriter
{
  public:
    std::size_t
    reserve()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        slots_.emplace_back();
        return printed_ + slots_.size() - 1;
    }

    void
    fill(std::size_t slot, std::string text)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot - printed_] = std::move(text);
        if (!slots_.front())
            return;
        for (; !slots_.empty() && slots_.front(); ++printed_) {
            std::cout << *slots_.front();
            slots_.pop_front();
        }
        std::cout.flush();
        printedCv_.notify_all();
    }

    /** An answer ready now: printed after every earlier one. */
    void print(std::string text) { fill(reserve(), std::move(text)); }

    /** Blocks until every reserved slot is printed. */
    void
    waitAll()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        printedCv_.wait(lock, [this] { return slots_.empty(); });
    }

  private:
    std::mutex mutex_;
    std::condition_variable printedCv_;
    std::deque<std::optional<std::string>> slots_;
    std::size_t printed_ = 0;
};

/**
 * Read exactly `bytes` bytes (the payload of a byte-counted request). The
 * buffer grows in bounded chunks with the bytes actually received, so a
 * hostile count costs no more memory than the input that follows it.
 */
bool
readPayload(std::istream& in, std::size_t bytes, std::string& out)
{
    constexpr std::size_t kChunk = 64 * 1024;
    out.clear();
    while (out.size() < bytes) {
        const std::size_t have = out.size();
        const std::size_t want = std::min(kChunk, bytes - have);
        out.resize(have + want);
        in.read(out.data() + have, static_cast<std::streamsize>(want));
        out.resize(have + static_cast<std::size_t>(in.gcount()));
        if (out.size() != have + want)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    service::ServiceOptions options;
    std::string default_machine = "cydra5";
    std::string load_path;
    std::string save_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--threads")
            options.threads = support::numberArg<int>(arg, next());
        else if (arg == "--cache-capacity")
            options.cache.capacity =
                support::numberArg<std::size_t>(arg, next());
        else if (arg == "--max-queue")
            options.maxQueuedRequests =
                support::numberArg<std::size_t>(arg, next());
        else if (arg == "--machine")
            default_machine = next();
        else if (arg == "--scheduler") {
            const auto strategy = sched::schedulerStrategyByName(next());
            if (!strategy)
                usage(2);
            options.pipeline.withScheduler(*strategy);
        } else if (arg == "--budget-ratio")
            options.pipeline.withBudgetRatio(
                support::numberArg<double>(arg, next()));
        else if (arg == "--load-cache")
            load_path = next();
        else if (arg == "--save-cache")
            save_path = next();
        else if (arg == "--help")
            usage(0);
        else
            usage(2);
    }

    // Declared before the service, so it outlives the workers' last
    // callbacks.
    InOrderWriter writer;
    service::ScheduleService server(options);

    if (!load_path.empty()) {
        std::ifstream in(load_path);
        if (!in) {
            std::cerr << "ims-serve: cannot read " << load_path << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
            const std::size_t loaded = server.loadCacheText(text.str());
            std::cerr << "ims-serve: re-materialized " << loaded
                      << " cached schedules from " << load_path << "\n";
        } catch (const support::Error& error) {
            std::cerr << "ims-serve: " << error.what() << "\n";
            return 1;
        }
    }

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        std::istringstream request(line);
        std::string command;
        request >> command;

        if (command == "schedule") {
            std::string count;
            std::size_t bytes = 0;
            if (!(request >> count)) {
                writer.print("error service.bad_request missing byte count\n");
                continue;
            }
            // Payload byte counts are plain decimal digits, nothing else.
            if (!support::parseNumber(count, bytes)) {
                writer.print("error service.bad_request bad byte count\n");
                continue;
            }
            service::ServiceRequest item;
            item.machine = default_machine;
            std::string attribute;
            while (request >> attribute) {
                if (attribute.rfind("client=", 0) == 0)
                    item.client = attribute.substr(7);
                else if (attribute.rfind("machine=", 0) == 0)
                    item.machine = attribute.substr(8);
            }
            if (!readPayload(std::cin, bytes, item.loopText)) {
                writer.print("error service.bad_request truncated payload\n");
                break;
            }
            const std::size_t slot = writer.reserve();
            server.submitAsync(std::move(item),
                               [&writer, slot](const auto& response) {
                                   writer.fill(slot, answerText(response));
                               });
        } else if (command == "register") {
            writer.waitAll();
            std::string name;
            std::string count;
            std::size_t bytes = 0;
            request >> name >> count;
            if (!request.fail() && !support::parseNumber(count, bytes)) {
                writer.print("error service.bad_request bad byte count\n");
                continue;
            }
            std::string text;
            if (request.fail() || !readPayload(std::cin, bytes, text)) {
                writer.print("error service.bad_request malformed register\n");
                continue;
            }
            try {
                server.models().registerText(name, text);
                writer.print("ok registered " + name + "\n");
            } catch (const support::Error& error) {
                writer.print("error service.bad_machine " +
                             std::string(error.what()) + "\n");
            }
        } else if (command == "machines") {
            std::string reply = "ok";
            for (const auto& name : server.models().names())
                reply += " " + name;
            writer.print(reply + "\n");
        } else if (command == "stats") {
            writer.waitAll();
            writer.print(server.stats().toJson() + "\n");
        } else if (command == "save") {
            writer.waitAll();
            std::string path;
            request >> path;
            std::ofstream out(path, std::ios::binary);
            if (!out) {
                writer.print("error service.io cannot write " + path + "\n");
                continue;
            }
            out << server.saveCacheText();
            writer.print("ok saved " + path + "\n");
        } else if (command == "load") {
            writer.waitAll();
            std::string path;
            request >> path;
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                writer.print("error service.io cannot read " + path + "\n");
                continue;
            }
            std::ostringstream text;
            text << in.rdbuf();
            try {
                const std::size_t loaded = server.loadCacheText(text.str());
                writer.print("ok loaded " + std::to_string(loaded) + "\n");
            } catch (const support::Error& error) {
                writer.print("error service.bad_cache_file " +
                             std::string(error.what()) + "\n");
            }
        } else if (command == "quit") {
            break;
        } else {
            writer.print("error service.bad_request unknown command '" +
                         command + "'\n");
        }
    }
    writer.waitAll();

    if (!save_path.empty()) {
        std::ofstream out(save_path, std::ios::binary);
        if (!out) {
            std::cerr << "ims-serve: cannot write " << save_path << "\n";
            return 1;
        }
        out << server.saveCacheText();
        std::cerr << "ims-serve: saved cache to " << save_path << "\n";
    }
    return 0;
}
