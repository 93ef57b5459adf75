/**
 * @file
 * Crash isolation: every compile runs in a forked child that reports
 * a text record over a pipe; the parent reaps it with wait4 for its
 * exit status and peak RSS.
 */
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void
onInterrupt(int)
{
    g_interrupted = 1;
}

bool
writeAll(int fd, const std::string &data)
{
    size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

bool
interrupted()
{
    return g_interrupted != 0;
}

void
installInterruptHandlers()
{
    struct sigaction action = {};
    action.sa_handler = onInterrupt;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: a blocked poll() returns EINTR so the parent can
    // kill its child and clean up.
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

void
Record::set(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    values_[key] = buf;
}

void
Record::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

double
Record::num(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(),
                                                        nullptr);
}

std::string
Record::str(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
}

bool
Record::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::vector<std::string>
Record::keys(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (auto it = values_.lower_bound(prefix);
         it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        out.push_back(it->first);
    }
    return out;
}

std::map<std::string, double>
Record::numbers(const std::string &prefix) const
{
    std::map<std::string, double> out;
    for (const std::string &key : keys(prefix))
        out[key] = num(key);
    return out;
}

std::string
Record::serialize() const
{
    // One "key<TAB>value" line per entry; values never hold newlines.
    std::string out;
    for (const auto &[key, value] : values_) {
        out += key;
        out += '\t';
        for (char c : value)
            out += (c == '\n' || c == '\t') ? ' ' : c;
        out += '\n';
    }
    return out;
}

Record
Record::parse(const std::string &text)
{
    Record record;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const size_t tab = line.find('\t');
        if (tab != std::string::npos)
            record.values_[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return record;
}

ChildOutcome
runIsolated(const std::function<Record()> &work, double timeout_s)
{
    ChildOutcome outcome;
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
        std::string text;
        try {
            text = work().serialize();
        } catch (const std::exception &err) {
            Record thrown;
            thrown.set("threw", err.what());
            text = thrown.serialize();
        } catch (...) {
            Record thrown;
            thrown.set("threw", "unknown exception");
            text = thrown.serialize();
        }
        text += "end\t1\n";
        const bool ok = writeAll(fds[1], text);
        // _exit: no atexit handlers or static destructors run in the
        // child; the parent owns every shared resource.
        ::_exit(ok ? 0 : 3);
    }
    ::close(fds[1]);

    std::string text;
    char buf[65536];
    bool killed = false;
    for (;;) {
        const double left_ms = timeout_s * 1e3 - msSince(start);
        if (left_ms <= 0 || interrupted()) {
            ::kill(pid, SIGKILL);
            killed = true;
            outcome.timed_out = !interrupted();
            break;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            continue;
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);

    int status = 0;
    struct rusage usage = {};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    outcome.wall_ms = msSince(start);
    outcome.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (WIFSIGNALED(status))
        outcome.signal = WTERMSIG(status);
    if (WIFEXITED(status))
        outcome.exit_code = WEXITSTATUS(status);
    const bool complete = text.size() >= 6 &&
                          text.compare(text.size() - 6, 6, "end\t1\n") == 0;
    if (!killed && WIFEXITED(status) && outcome.exit_code == 0 && complete) {
        outcome.record = Record::parse(text);
        outcome.reported = true;
    }
    return outcome;
}

} // namespace perfbench
