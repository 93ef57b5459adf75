#include "synthesis/cache.h"

#include "observability/metrics.h"

namespace hydride {

const SynthesisResult *
SynthesisCache::lookup(const HExprPtr &window, const std::string &isa)
{
    const Key key{HExpr::hashOf(window), isa};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        static metrics::Counter &miss_counter =
            metrics::counter("synthesis.cache.misses");
        miss_counter.add();
        return nullptr;
    }
    ++hits_;
    ++it->second.hits;
    static metrics::Counter &hit_counter =
        metrics::counter("synthesis.cache.hits");
    hit_counter.add();
    return &it->second.result;
}

void
SynthesisCache::insertEntry(const Key &key, const SynthesisResult &result)
{
    CachedEntry &entry = entries_[key];
    entry.result = result;
    entry.hits = 0;
    static metrics::Counter &insert_counter =
        metrics::counter("synthesis.cache.inserts");
    insert_counter.add();
}

void
SynthesisCache::insert(const HExprPtr &window, const std::string &isa,
                       const SynthesisResult &result)
{
    insertEntry({HExpr::hashOf(window), isa}, result);
}

void
SynthesisCache::insertByKey(const Key &key, const SynthesisResult &result)
{
    insertEntry(key, result);
}

void
SynthesisCache::clear()
{
    lifetime_hits_ += hits_;
    lifetime_misses_ += misses_;
    metrics::counter("synthesis.cache.clears").add();
    entries_.clear();
    hits_ = misses_ = 0;
}

} // namespace hydride
